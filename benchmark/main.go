// Command benchmark is the repository's benchmark: it serves the paper's
// workload shapes through gsqld's wire path in one process and reports
// end-to-end metrics per workload, plus a layered breakdown from a separate
// traced run. See README.md for the metric, workload and interaction
// tables.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                                  # all workloads
//	bash benchmark/run.sh -workload point -seed 7 -seconds 24 -trace 1
//	bash benchmark/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/graphsql/client"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	scale     int
	trace     int
	out       string
	selfcheck bool
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload string  `json:"workload"`
	Nodes    int     `json:"nodes"`
	Edges    int     `json:"edges"`
	Clients  int     `json:"clients"`
	Timings  timings `json:"timings"`
	// SetupS is the median of the run's set-ups; Windows holds each one.
	SetupS     windowed                      `json:"setup_s"`
	Attempted  int                           `json:"attempted"`
	Failed     int                           `json:"failed"`
	FailedFrac float64                       `json:"failed_frac"`
	Client     client.Stats                  `json:"client"`
	PerLayer   map[string]float64            `json:"per_layer,omitempty"`
	PerClass   map[string]map[string]float64 `json:"per_layer_by_class,omitempty"`
	TraceFile  string                        `json:"trace_file,omitempty"`
}

// endToEndValues maps the end-to-end metric names to the run's values.
func (r runResult) endToEndValues() map[string]windowed {
	return map[string]windowed{
		"stmt_per_s":        r.Timings.StmtPerS,
		"p50_ms":            r.Timings.P50Ms,
		"p95_ms":            r.Timings.P95Ms,
		"alloc_kb_per_stmt": r.Timings.AllocKB,
		"setup_s":           r.SetupS,
	}
}

func runWorkload(wl *workload, opt options) (res runResult, err error) {
	var e *env
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if e, err = setup(wl, opt.seed, opt.scale); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	res = runResult{Workload: wl.name, Nodes: e.g.N, Edges: e.g.M(), Clients: wl.clients, SetupS: newWindowed(setups)}

	ph := e.timedPhase(time.Duration(opt.seconds) * time.Second / windows)
	res.Timings = ph.timings()

	var spans []span
	if opt.trace != 0 {
		if spans, err = e.tracedRun(); err != nil {
			return res, fmt.Errorf("%s: traced run: %w", wl.name, err)
		}
	}
	for _, cl := range e.clients {
		s := cl.Stats()
		res.Client.Requests += s.Requests
		res.Client.Retries += s.Retries
		res.Client.Reconnects += s.Reconnects
		res.Client.Busy += s.Busy
		res.Client.Drained += s.Drained
		res.Client.Truncated += s.Truncated
	}
	if opt.trace != 0 {
		res.PerLayer, res.PerClass = perLayerValues(wl, spans, res.Timings, res.Client)
		res.TraceFile = filepath.Join(opt.out, "trace_"+wl.name+".json")
		if err := writeJSON(res.TraceFile, spans); err != nil {
			return res, err
		}
	}
	res.Attempted, res.Failed = e.attempted, e.failed
	res.FailedFrac = float64(e.failed) / float64(max(1, e.attempted))
	return res, nil
}

// perLayerValues assembles every per-layer metric of a traced run: the
// span-derived ones for the whole workload and per class, the informational
// timed-phase numbers, and the client counters.
func perLayerValues(wl *workload, spans []span, tm timings, cs client.Stats) (all map[string]float64, byClass map[string]map[string]float64) {
	all = layerMetrics(spans)
	all["trace.overhead_frac"] = overheadFrac(spans, tm.ClassP50Ms)
	all["p99_ms"] = tm.P99Ms.Value
	for _, c := range allClasses() {
		all["class."+c+".p50_ms"] = tm.ClassP50Ms[c].Value
	}
	all["client.retries"] = float64(cs.Retries)
	all["client.busy"] = float64(cs.Busy)
	all["client.reconnects"] = float64(cs.Reconnects)
	all["client.truncated"] = float64(cs.Truncated)
	byClass = map[string]map[string]float64{}
	for _, c := range wl.classes() {
		var sub []span
		for _, s := range spans {
			if s.Class == c {
				sub = append(sub, s)
			}
		}
		byClass[c] = layerMetrics(sub)
	}
	return all, byClass
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs the selected workloads in their fixed order.
func runAll(opt options) ([]runResult, error) {
	var out []runResult
	for _, wl := range workloads {
		if opt.workload != "" && opt.workload != wl.name {
			continue
		}
		r, err := runWorkload(wl, opt)
		if err != nil {
			return out, err
		}
		report(r)
		out = append(out, r)
	}
	return out, nil
}

// report prints every metric of one run by name, with its unit.
func report(r runResult) {
	wl := workloadByName(r.Workload)
	fmt.Printf("workload %s: %s n=%d m=%d, %d closed-loop client(s), windows of %.2fs (whole cycles) after %.0fs warm-up\n",
		r.Workload, dataset, r.Nodes, r.Edges, r.Clients, r.Timings.WindowS, warmup.Seconds())
	fmt.Printf("  samples: %d timed statements, per window %v\n", r.Timings.Samples, r.Timings.WindowSamples)
	vals := r.endToEndValues()
	for _, d := range endToEnd {
		v := vals[d.Name]
		fmt.Printf("  %-28s %14.4f %-8s window min–max %.4f–%.4f (bound %.2f)\n", d.Name, v.Value, d.Unit, v.Min, v.Max, d.Bound)
	}
	fmt.Printf("  %-28s %14.6f %-8s %d of %d attempted (bound 0)\n", "failed_frac", r.FailedFrac, "fraction", r.Failed, r.Attempted)
	fmt.Printf("  informational:\n")
	fmt.Printf("  %-28s %14.4f %-8s window min–max %.4f–%.4f\n", "p99_ms", r.Timings.P99Ms.Value, "ms", r.Timings.P99Ms.Min, r.Timings.P99Ms.Max)
	for _, c := range wl.classes() {
		v := r.Timings.ClassP50Ms[c]
		fmt.Printf("  %-28s %14.4f %-8s window min–max %.4f–%.4f n=%d\n", "class."+c+".p50_ms", v.Value, "ms", v.Min, v.Max, r.Timings.ClassSamples[c])
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Printf("  per-layer (traced run of %d cycles, spans in %s):\n", wl.traceCycles, r.TraceFile)
	for _, d := range perLayer() {
		if d.Name == "p99_ms" || strings.HasPrefix(d.Name, "class.") {
			continue
		}
		fmt.Printf("  %-36s %14.4f %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
	}
}

// resultLine is the one-line JSON summary printed last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the final line: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one. With several workloads the
// names are prefixed "<workload>.".
func summarize(results []runResult, traced bool) resultLine {
	line := resultLine{Metrics: map[string]metricValue{}}
	for _, r := range results {
		prefix := ""
		if len(results) > 1 {
			prefix = r.Workload + "."
		}
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		if traced {
			for _, d := range perLayer() {
				line.Metrics[prefix+d.Name] = metricValue{r.PerLayer[d.Name], d.Unit}
			}
			continue
		}
		vals := r.endToEndValues()
		for _, d := range endToEnd {
			line.Metrics[prefix+d.Name] = metricValue{vals[d.Name].Value, d.Unit}
		}
	}
	line.Correct = line.Failed == 0
	return line
}

// document is the JSON result file written under -out.
type document struct {
	Seed       int64       `json:"seed"`
	Scale      int         `json:"scale"`
	Seconds    int         `json:"seconds"`
	Windows    int         `json:"windows"`
	WarmupS    float64     `json:"warmup_s"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"git_commit"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
	Workloads  []runResult `json:"workloads"`
}

// commit reports the VCS revision the binary was built from, when the
// build ran inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newDocument(opt options, results []runResult) document {
	return document{Seed: opt.seed, Scale: opt.scale, Seconds: opt.seconds, Windows: windows,
		WarmupS: warmup.Seconds(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), EndToEnd: endToEnd, PerLayer: perLayer(),
		Workloads: results}
}

// selfcheck runs the benchmark twice back to back and compares, per
// workload and end-to-end metric, the two medians against the bound. Every
// workload of every pass runs in a process of its own, as the driver runs
// it: a set-up that inherits the heap a previous workload grew is faster
// than one in a fresh process.
func selfcheck(opt options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var runs [2][]runResult
	for i := range runs {
		for _, wl := range workloads {
			if opt.workload != "" && opt.workload != wl.name {
				continue
			}
			fmt.Printf("selfcheck: run %d of 2, workload %s\n", i+1, wl.name)
			out := filepath.Join(opt.out, fmt.Sprintf("selfcheck%d", i+1))
			cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(opt.seed),
				"-seconds", fmt.Sprint(opt.seconds), "-scale", fmt.Sprint(opt.scale), "-out", out)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return false, fmt.Errorf("%s: %w", wl.name, err)
			}
			raw, err := os.ReadFile(filepath.Join(out, "result.json"))
			if err != nil {
				return false, err
			}
			var doc document
			if err := json.Unmarshal(raw, &doc); err != nil {
				return false, err
			}
			runs[i] = append(runs[i], doc.Workloads...)
		}
	}
	pass := true
	fmt.Printf("%-10s %-20s %14s %14s %9s %6s  %s\n", "workload", "metric", "run 1", "run 2", "rel diff", "bound", "verdict")
	for i, a := range runs[0] {
		b := runs[1][i]
		av, bv := a.endToEndValues(), b.endToEndValues()
		for _, d := range endToEnd {
			x, y := av[d.Name].Value, bv[d.Name].Value
			rel := math.Abs(y-x) / math.Max(math.Abs(x), 1e-12)
			verdict := "PASS"
			if rel > d.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("%-10s %-20s %14.4f %14.4f %9.4f %6.2f  %s\n", a.Workload, d.Name, x, y, rel, d.Bound, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-10s %-20s %14d %14d %9s %6d  FAIL\n", a.Workload, "failed", a.Failed, b.Failed, "", 0)
			pass = false
		}
	}
	return pass, nil
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run: point, traverse, analytics, ingest (default: all four)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the dataset generator and the statement-id generator")
	flag.IntVar(&opt.seconds, "seconds", 24, "length of the timed phase in seconds, split into three windows")
	flag.IntVar(&opt.scale, "scale", 1, "multiplier on every workload's node count (offline sweeps)")
	flag.IntVar(&opt.trace, "trace", 0, "1 = after the timed phase run the traced run and report the per-layer metrics")
	flag.StringVar(&opt.out, "out", filepath.Join(".bench_build", "out"), "directory for result.json and the trace files")
	flag.BoolVar(&opt.selfcheck, "selfcheck", false, "run the benchmark twice and compare the end-to-end medians against their bounds")
	flag.Parse()
	if opt.workload != "" && workloadByName(opt.workload) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", opt.workload)
		os.Exit(2)
	}
	if opt.seconds < 1 || opt.scale < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -scale must be at least 1, and there are no positional arguments")
		os.Exit(2)
	}
	if opt.selfcheck {
		pass, err := selfcheck(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !pass {
			os.Exit(1)
		}
		return
	}
	results, err := runAll(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := writeJSON(filepath.Join(opt.out, "result.json"), newDocument(opt, results)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line := summarize(results, opt.trace != 0)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

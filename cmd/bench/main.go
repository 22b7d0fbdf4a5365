// Command bench regenerates the paper's tables and figures on the scaled
// synthetic datasets, runs the ablation experiments, and gates them.
//
// Usage:
//
//	bench -exp all            # everything but the guard (default)
//	bench -exp table4 -nodes 3000
//	bench -exp fig11 -seed 7
//	bench -exp csr -nocsr -json
//	bench -exp guard          # every on/off pair vs BENCH.json, non-zero on a violation
//
// bench -h lists the experiment names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/exp"
	"repro/internal/obs"
)

func main() {
	var (
		which      = flag.String("exp", "all", "experiment to run: all, "+stepNames(false))
		nodes      = flag.Int("nodes", 0, "scaled dataset node count (0 = default)")
		seed       = flag.Int64("seed", 1, "dataset generator seed")
		iters      = flag.Int("iters", 0, "fixed iterations for PR/HITS/LP (0 = paper's 15)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		nodelta    = flag.Bool("nodelta", false, "disable delta-driven semi-naive evaluation in WITH+ (A/B baseline for the delta experiment)")
		nocsr      = flag.Bool("nocsr", false, "disable the CSR adjacency access path (A/B baseline for the csr experiment)")
		novector   = flag.Bool("novector", false, "disable the vectorized batch kernels (A/B baseline for the vector experiment)")
		nowcoj     = flag.Bool("nowcoj", false, "disable the worst-case-optimal multiway join lowering (A/B baseline for the motif experiment)")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON records ("+stepNames(true)+")")
		observe    = flag.Bool("observe", false, "attach a span sink to every engine (observability overhead A/B)")
		metrics    = flag.Bool("metrics", false, "dump the process-wide metrics registry as JSON after the run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()
	cfg := exp.Config{Nodes: *nodes, Seed: *seed, Iters: *iters, NoDelta: *nodelta, NoCSR: *nocsr, NoVector: *novector, NoWCOJ: *nowcoj, Observe: *observe}
	asCSV = *csv
	asJSON = *jsonOut
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if err := run(strings.ToLower(*which), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		exit(1)
	}
	if *metrics {
		if err := dumpMetrics(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			exit(1)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			exit(1)
		}
		defer f.Close()
		runtime.GC() // settle allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			exit(1)
		}
	}
}

// exit stops the CPU profile (running deferred handlers) before exiting, so
// a failed run still leaves a readable profile.
func exit(code int) {
	pprof.StopCPUProfile()
	os.Exit(code)
}

// dumpMetrics writes the process-wide metrics registry to w (stderr, so
// -json stdout stays machine-parseable).
func dumpMetrics(w io.Writer) error {
	js, err := obs.Global.JSON()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "-- metrics --\n%s\n", js)
	return err
}

// asCSV and asJSON switch output format (set from -csv / -json; variables so
// tests can exercise all modes).
var (
	asCSV  bool
	asJSON bool
)

// step is one -exp name.
type step struct {
	name string
	// manual steps run only when named, never under -exp all; records steps
	// measure exp.Records and honour -json.
	manual, records bool
	f               func(exp.Config) error
}

func show(t *exp.Table, err error) error {
	if err != nil {
		return err
	}
	if asCSV {
		fmt.Println(t.CSV())
	} else {
		fmt.Println(t.String())
	}
	return nil
}

func showAll(ts []*exp.Table, err error) error {
	if err != nil {
		return err
	}
	for _, t := range ts {
		fmt.Println(t.String())
	}
	return nil
}

// steps lists every -exp name in -exp all order: the paper's tables and
// figures, then the ablation experiments of exp.Experiments, then the guard.
func steps() []step {
	out := []step{
		{name: "table1", f: func(exp.Config) error { return show(exp.Table1(), nil) }},
		{name: "table2", f: func(exp.Config) error { return show(exp.Table2(), nil) }},
		{name: "table3", f: func(cfg exp.Config) error { return show(exp.Table3(cfg), nil) }},
		{name: "table4", f: func(cfg exp.Config) error { return show(exp.UnionByUpdateTable("WG", cfg)) }},
		{name: "table5", f: func(cfg exp.Config) error { return show(exp.UnionByUpdateTable("PC", cfg)) }},
		{name: "table6", f: func(cfg exp.Config) error { return show(exp.AntiJoinTable("WG", cfg)) }},
		{name: "table7", f: func(cfg exp.Config) error { return show(exp.AntiJoinTable("PC", cfg)) }},
		{name: "fig7", f: func(cfg exp.Config) error { return showAll(exp.GraphAlgosTable(true, cfg)) }},
		{name: "fig8", f: func(cfg exp.Config) error { return showAll(exp.GraphAlgosTable(false, cfg)) }},
		{name: "fig10", f: func(cfg exp.Config) error { return showAll(exp.IndexingTable(cfg)) }},
		{name: "fig11", f: func(cfg exp.Config) error { return showAll(exp.VsSystemsTable(cfg)) }},
		{name: "fig12", f: func(cfg exp.Config) error { return show(exp.WithVsWithPlusPR(cfg)) }},
		{name: "fig13", f: func(cfg exp.Config) error { return showAll(exp.TCAndAPSPTables(cfg)) }},
		{name: "resources", f: func(cfg exp.Config) error { return show(exp.ResourceTable(cfg)) }},
		{name: "opcounts", f: func(cfg exp.Config) error { return show(exp.OperatorCountTable(cfg)) }},
	}
	for _, x := range exp.Experiments() {
		out = append(out, step{name: x.Name, records: true, f: func(cfg exp.Config) error {
			recs, err := x.Run(cfg)
			if err != nil {
				return err
			}
			if asJSON {
				return exp.WriteJSON(os.Stdout, recs)
			}
			return show(x.Table(recs), nil)
		}})
	}
	return append(out, step{name: "guard", manual: true, records: true, f: func(cfg exp.Config) error {
		// The committed baseline holds every record of one guard run (default
		// config, seed 1); -json prints this run's, which is how it is made
		// (into a temporary file, then moved over BENCH.json).
		recs, gerr := exp.Guard(cfg, "BENCH.json", os.Stderr)
		if asJSON {
			if err := exp.WriteJSON(os.Stdout, recs); err != nil {
				return err
			}
		}
		return gerr
	}})
}

// stepNames lists the -exp names for the help text: all of them, or only the
// ones that honour -json.
func stepNames(recordsOnly bool) string {
	var names []string
	for _, s := range steps() {
		if s.records || !recordsOnly {
			names = append(names, s.name)
		}
	}
	return strings.Join(names, ", ")
}

func run(which string, cfg exp.Config) error {
	ran := false
	for _, s := range steps() {
		if which != s.name && (which != "all" || s.manual) {
			continue
		}
		ran = true
		if err := s.f(cfg); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}

package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"

	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
	"repro/internal/withplus"
)

// Record is one measurement of any ablation experiment (cmd/bench -exp
// perf|delta|csr|vector|motif|concurrent, -json): one (workload, profile)
// cell, or one session count of the concurrency run. Fields an experiment
// does not measure stay zero and drop out of the JSON. The operator counters
// are the engine's own snapshot, so their JSON keys are defined once, in
// internal/engine.
type Record struct {
	Exp string `json:"exp"`
	// Off marks the A/B baseline side: the experiment's knob is flipped.
	Off bool `json:"off,omitempty"`
	// Observed and Spans report the observability A/B: with -observe a
	// counting sink is attached and Spans is what it saw.
	Observed bool   `json:"observed,omitempty"`
	Spans    int64  `json:"spans,omitempty"`
	Name     string `json:"name"`
	Profile  string `json:"profile"`
	Dataset  string `json:"dataset,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Edges    int    `json:"edges,omitempty"`
	// Queries is the number of timed executions per repetition (ns_op is per
	// query); Sessions and Statements size a concurrency cell.
	Queries    int `json:"queries,omitempty"`
	Sessions   int `json:"sessions,omitempty"`
	Statements int `json:"statements,omitempty"`
	// Errors counts statements that returned an error; Mismatches counts
	// clients whose result checksum differed from the serial reference.
	Errors     int `json:"errors,omitempty"`
	Mismatches int `json:"mismatches,omitempty"`
	// Delta reports that the WITH+ compiler rewrote at least one recursive
	// branch to scan the Δ frontier — observed from the trace, not echoed
	// from the config.
	Delta          bool    `json:"delta,omitempty"`
	Iterations     int     `json:"iterations,omitempty"`
	RowsFinal      int     `json:"rows_final,omitempty"`
	DeltaRowsTotal int64   `json:"delta_rows_total,omitempty"`
	Count          int64   `json:"count,omitempty"`
	Checksum       string  `json:"checksum,omitempty"`
	NsOp           int64   `json:"ns_op"`
	Millis         float64 `json:"ms"`
	PerSec         float64 `json:"stmt_per_sec,omitempty"`
	engine.CountersSnapshot
}

// cell names a record's (workload, profile) within its experiment; key adds
// the side, so it is unique within one guard run.
func (r Record) cell() string { return r.Exp + " " + r.Name + "/" + r.Profile }

func (r Record) key() string {
	switch {
	case r.Off:
		return r.cell() + " (off)"
	case r.Observed:
		return r.cell() + " (observed)"
	}
	return r.cell()
}

// recordFields maps a record's JSON keys to struct field indexes, so gate
// rules and table columns can name fields as data.
var recordFields = func() map[string][]int {
	m := map[string][]int{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Record{})) {
		if key, _, _ := strings.Cut(f.Tag.Get("json"), ","); key != "" {
			m[key] = f.Index
		}
	}
	return m
}()

// field returns the value stored under a JSON key. An unknown key is a bug in
// an experiment's declaration, so it panics.
func (r Record) field(key string) any {
	idx, ok := recordFields[key]
	if !ok {
		panic("exp: no record field " + key)
	}
	return reflect.ValueOf(r).FieldByIndex(idx).Interface()
}

// Experiment is one row of the ablation table: what runs, which Config knob
// selects its baseline side, how a record prints, and what the guard demands
// of it.
type Experiment struct {
	Name  string
	Title string
	// Reps is the number of timed repetitions per cell. The record keeps the
	// first repetition's deterministic fields (counters, checksums) and the
	// minimum wall time: noise on a shared machine is one-sided, so the
	// fastest repetition is the least disturbed one.
	Reps int
	// Knob points at the Config switch that selects the off side; nil for an
	// experiment that is not an on/off pair.
	Knob func(*Config) *bool
	// ObserverAB makes the guard measure a third side with a span sink
	// attached (Config.Observe).
	ObserverAB bool
	// Columns are the record fields (JSON keys) of the text table.
	Columns []string
	Gate    Rule

	cells func(Config) ([]cell, error)
}

// cell is one measured unit of an experiment: the record fields known up
// front and one repetition's work, which fills in the measured fields and
// returns the time it wants charged.
type cell struct {
	rec Record
	run func(*Record) (time.Duration, error)
}

// Experiments lists every ablation experiment; cmd/bench and the guard both
// range over it.
func Experiments() []*Experiment {
	return []*Experiment{perfExp, deltaExp, csrExp, vectorExp, motifExp, concurrentExp}
}

// Run measures the experiment under cfg, one record per cell.
func (x *Experiment) Run(cfg Config) ([]Record, error) {
	sides, err := x.runSides([]Config{cfg})
	if err != nil {
		return nil, err
	}
	return sides[0], nil
}

// runSides measures the experiment under each configuration — one record
// per cell per configuration — alternating the configurations repetition by
// repetition within each cell, so a drift of the machine falls on every side
// alike. Each side's record keeps its own first repetition's deterministic
// fields and its own fastest time. Every configuration must yield the same
// cells in the same order.
func (x *Experiment) runSides(cfgs []Config) ([][]Record, error) {
	sides := make([][]cell, len(cfgs))
	for i, cfg := range cfgs {
		cells, err := x.cells(cfg)
		if err != nil {
			return nil, err
		}
		sides[i] = cells
	}
	out := make([][]Record, len(cfgs))
	for k := range sides[0] {
		recs := make([]Record, len(cfgs))
		best := make([]time.Duration, len(cfgs))
		for rep := 0; rep < x.Reps; rep++ {
			for i := range cfgs {
				r := sides[i][k].rec
				d, err := sides[i][k].run(&r)
				if err != nil {
					return nil, fmt.Errorf("%s %s/%s: %w", x.Name, r.Name, r.Profile, err)
				}
				obs.Global.Counter("bench.runs").Inc()
				obs.Global.Histogram("bench.run_us").Observe(d.Microseconds())
				if rep == 0 {
					recs[i] = r
				}
				if rep == 0 || d < best[i] {
					best[i] = d
				}
			}
		}
		for i, cfg := range cfgs {
			rec := recs[i]
			rec.Exp = x.Name
			rec.Off = x.Knob != nil && *x.Knob(&cfg)
			rec.NsOp = best[i].Nanoseconds() / int64(max(rec.Queries, 1))
			rec.Millis = float64(best[i].Microseconds()) / 1000.0
			if rec.Statements > 0 {
				rec.PerSec = float64(rec.Statements) / best[i].Seconds()
			}
			out[i] = append(out[i], rec)
		}
	}
	return out, nil
}

// engineWork is one repetition of an engine workload: it fills the record's
// measured fields and returns the time it wants charged (workloads differ in
// whether loading and parsing count).
type engineWork func(*engine.Engine, *Record) (time.Duration, error)

// workload is an engineWork and the record fields known before it runs.
type workload struct {
	rec Record
	run engineWork
}

// engineCells crosses workloads with profiles. Each repetition of a cell gets
// a fresh engine under cfg's knobs; after the work the engine's counters (and,
// when observing, the sink's span total) go into the record.
func engineCells(cfg Config, profs []engine.Profile, ws []workload) []cell {
	var out []cell
	for _, w := range ws {
		for _, prof := range profs {
			w.rec.Profile = prof.Name
			out = append(out, cell{rec: w.rec, run: func(r *Record) (time.Duration, error) {
				e := newEngine(prof, cfg)
				d, err := w.run(e, r)
				r.CountersSnapshot = e.Cnt.Snapshot()
				if cs, ok := e.Observer().(*obs.CountingSink); ok {
					r.Observed, r.Spans = true, cs.Count()
				}
				return d, err
			}})
		}
	}
	return out
}

// WriteJSON writes records as indented JSON: the -json output and the format
// of the committed BENCH.json.
func WriteJSON(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// Table renders the experiment's records as text, one column per declared
// field.
func (x *Experiment) Table(recs []Record) *Table {
	t := &Table{Title: x.Title, Header: x.Columns}
	for _, r := range recs {
		row := make([]string, len(x.Columns))
		for i, key := range x.Columns {
			switch v := r.field(key).(type) {
			case float64:
				row[i] = fmt.Sprintf("%.1f", v)
			default:
				row[i] = fmt.Sprint(v)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// result records a workload's final relation: its size, its
// order-independent checksum, and — for a one-cell integer result, the
// counting queries — the count itself.
func (r *Record) result(rel *relation.Relation) {
	r.RowsFinal, r.Checksum = rel.Len(), RelChecksum(rel)
	if rel.Len() == 1 && len(rel.Tuples[0]) == 1 && rel.Tuples[0][0].K == value.KindInt {
		r.Count = rel.Tuples[0][0].I
	}
}

// loadEV loads the edge table and, when given, the node table the SQL
// workloads read.
func loadEV(e *engine.Engine, edges, nodes *relation.Relation) error {
	if _, err := e.LoadBase("E", edges); err != nil || nodes == nil {
		return err
	}
	_, err := e.LoadBase("V", nodes)
	return err
}

// runWithPlus loads E and V, then times one WITH+ statement, recording its
// result and its recursion trace.
func runWithPlus(query string, edges, nodes *relation.Relation) engineWork {
	return func(e *engine.Engine, r *Record) (time.Duration, error) {
		if err := loadEV(e, edges, nodes); err != nil {
			return 0, err
		}
		start := time.Now()
		res, trace, err := withplus.Run(e, query)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		r.result(res)
		r.Delta, r.Iterations = trace.DeltaEnabled, trace.Iterations
		for _, dr := range trace.DeltaRows {
			r.DeltaRowsTotal += int64(dr)
		}
		return d, nil
	}
}

// runSelect loads E (and V, when given), parses a plain SELECT, then times
// r.Queries executions of it, recording the last result.
func runSelect(query string, edges, nodes *relation.Relation) engineWork {
	return func(e *engine.Engine, r *Record) (time.Duration, error) {
		if err := loadEV(e, edges, nodes); err != nil {
			return 0, err
		}
		sel, err := sql.ParseSelect(query)
		if err != nil {
			return 0, err
		}
		x := sql.NewExec(e)
		var res *relation.Relation
		start := time.Now()
		for i := 0; i < r.Queries; i++ {
			if res, err = x.Run(sel); err != nil {
				return 0, err
			}
		}
		d := time.Since(start)
		r.result(res)
		return d, nil
	}
}

// runAlgo adapts a native algorithm runner (the fused MV-/MM-join path); the
// runner loads the graph itself, inside the timing.
func runAlgo(run algos.RunFunc, g *graph.Graph, p algos.Params) engineWork {
	return func(e *engine.Engine, r *Record) (time.Duration, error) {
		start := time.Now()
		res, err := run(e, g, p)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		r.result(res.Rel)
		r.Iterations = res.Iterations
		return d, nil
	}
}

// hashProfile reports a cell of the Oracle- or DB2-like profile: their
// planners take the hash-join plans the ablated paths replace, so the speedup
// claims are theirs. The PostgreSQL-like profile sort-merges unanalyzed temps
// and moves little either way.
func hashProfile(r Record) bool { return r.Profile != "postgres" }

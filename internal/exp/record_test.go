package exp

import (
	"strings"
	"testing"
)

// TestExperimentDeclarations: every record field an experiment names — in its
// columns or its gate rule — exists, so a typo fails here instead of
// panicking inside the guard; and an on/off pair declares its speedup claim.
func TestExperimentDeclarations(t *testing.T) {
	for _, x := range Experiments() {
		g := x.Gate
		keys := append([]string{}, x.Columns...)
		keys = append(append(keys, g.OnUsed...), g.OffUnused...)
		for f := range g.OnAtMost {
			keys = append(keys, f)
		}
		for _, k := range append(keys, resultFields...) {
			if _, ok := recordFields[k]; !ok {
				t.Errorf("%s names unknown record field %q", x.Name, k)
			}
		}
		if x.Reps < 1 || x.Name == "" || x.Title == "" || len(x.Columns) == 0 {
			t.Errorf("%s: incomplete declaration", x.Name)
		}
		if pair := x.Knob != nil; pair != (g.Carries != nil && g.Speedup > 0) || pair != (len(g.OffUnused) > 0) {
			t.Errorf("%s: knob, path proof and speedup claim must come together", x.Name)
		}
	}
	for k := range wallClock {
		if _, ok := recordFields[k]; !ok {
			t.Errorf("wallClock names unknown record field %q", k)
		}
	}
}

// TestDeltaRecordsShape runs the delta experiment (frontier evaluation on)
// at the minimum benchmark scale and checks the acceptance-shaped
// invariants: every cell runs with the rewrite enabled, reaches a
// non-trivial fixpoint, and performs zero build-side index rebuilds during
// the accumulation iterations (at most the single initial build). The
// -nodelta side must flag itself and reach the same fixpoints.
func TestDeltaRecordsShape(t *testing.T) {
	cfg := Config{Nodes: 600, Seed: 1}
	recs, err := deltaExp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 workloads x 3 profiles: TC and REACH on the chain, SSSP, BFS and
	// WCC (union by update) on a fifth of it.
	if len(recs) != 15 {
		t.Fatalf("got %d records, want 15", len(recs))
	}
	for _, r := range recs {
		if r.Exp != "delta" || r.Off || !r.Delta {
			t.Errorf("%s: frontier rewrite not enabled: %+v", r.cell(), r)
		}
		if floor := map[string]int{"TC": 600, "REACH": 600}[r.Name]; r.Nodes < floor || floor == 0 && r.Nodes != 600/5 {
			t.Errorf("%s: scale %d, want the n>=600 floor (a fifth of it for union by update)", r.cell(), r.Nodes)
		}
		if r.Iterations == 0 || r.RowsFinal == 0 || r.DeltaRowsTotal == 0 || r.NsOp <= 0 {
			t.Errorf("%s: degenerate run %+v", r.cell(), r)
		}
		if r.IndexBuilds > 1 {
			t.Errorf("%s: %d index builds, want <= 1 (zero rebuilds during accumulation)", r.cell(), r.IndexBuilds)
		}
	}
	js, err := jsonOf(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js, `"delta": true`) || !strings.Contains(js, `"delta_rows_total"`) ||
		!strings.Contains(js, `"index_builds"`) || strings.Contains(js, `"off"`) {
		t.Errorf("JSON shape wrong:\n%s", js[:400])
	}
	cfg.NoDelta = true
	once := *deltaExp
	once.Reps = 1 // the naive loop is the slow side; one repetition proves the shape
	off, err := once.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad, _ := deltaExp.Check(append(recs, off...), recs); len(bad) != 0 {
		// Speed is not asserted at this scale; everything else must hold.
		for _, m := range bad {
			if !strings.Contains(m, "speedup") {
				t.Error(m)
			}
		}
	}
	for _, r := range off {
		if !r.Off || r.Delta {
			t.Errorf("%s: -nodelta side must flag itself off with the frontier disabled: %+v", r.cell(), r)
		}
	}
}

// TestPerfRecordsObserveAB checks the perf experiment's shape and the
// observability A/B contract: an observed run reports the spans the counting
// sink saw, an unobserved run's JSON omits the observed/spans fields
// entirely, and both sides count the same operators.
func TestPerfRecordsObserveAB(t *testing.T) {
	small := Config{Nodes: 120, Seed: 1, Iters: 3}
	off, err := perfExp.Run(small)
	if err != nil {
		t.Fatal(err)
	}
	// 3 algorithms x 3 profiles.
	if len(off) != 9 {
		t.Fatalf("got %d records, want 9", len(off))
	}
	for _, r := range off {
		if r.Exp != "perf" || r.Name == "" || r.Profile == "" || r.Dataset == "" {
			t.Errorf("incomplete record: %+v", r)
		}
		if r.NsOp <= 0 || r.Iterations <= 0 || r.Joins == 0 {
			t.Errorf("non-positive timing/iters/joins: %+v", r)
		}
	}
	offJSON, err := jsonOf(off)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(offJSON, "observed") || strings.Contains(offJSON, "spans") {
		t.Errorf("unobserved JSON leaked observer fields:\n%s", offJSON)
	}
	if !strings.Contains(offJSON, `"index_builds"`) || !strings.Contains(offJSON, `"tuples_materialized"`) {
		t.Error("JSON missing counter fields")
	}

	small.Observe = true
	on, err := perfExp.Run(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(on) != len(off) {
		t.Fatalf("record counts differ: %d vs %d", len(on), len(off))
	}
	for i, r := range on {
		if !r.Observed || r.Spans <= 0 {
			t.Errorf("%s: observed run saw no spans: %+v", r.cell(), r)
		}
		if r.CountersSnapshot != off[i].CountersSnapshot {
			t.Errorf("%s: observing changed the counters: %+v vs %+v", r.cell(), r.CountersSnapshot, off[i].CountersSnapshot)
		}
	}
	if text := perfExp.Table(on).String(); !strings.Contains(text, "tuples_materialized") {
		t.Errorf("text table missing columns:\n%s", text)
	}
}

func jsonOf(recs []Record) (string, error) {
	var b strings.Builder
	err := WriteJSON(&b, recs)
	return b.String(), err
}

package sql

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// frontierDB loads an edge table E(F, T, ew) with duplicate edges and a
// self-loop, and a frontier D(S, T) standing in for a recursion's Δ.
func frontierDB(t *testing.T, prof engine.Profile, noCSR bool) *engine.Engine {
	t.Helper()
	e := engine.New(prof)
	e.DisableCSR = noCSR
	edges := relation.New(schema.Schema{{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt}, {Name: "ew", Type: value.KindFloat}})
	for _, p := range [][2]int64{{1, 2}, {1, 3}, {2, 3}, {2, 3}, {3, 1}, {3, 3}, {4, 1}} {
		edges.AppendVals(value.Int(p[0]), value.Int(p[1]), value.Float(1))
	}
	front := relation.New(schema.Schema{{Name: "S", Type: value.KindInt}, {Name: "T", Type: value.KindInt}})
	for _, p := range [][2]int64{{9, 1}, {9, 2}, {8, 3}, {9, 1}} {
		front.AppendVals(value.Int(p[0]), value.Int(p[1]))
	}
	for name, r := range map[string]*relation.Relation{"E": edges, "D": front} {
		if _, err := e.LoadBase(name, r); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// frontierSet is a semi-naive set seeded with rows of the given width.
func frontierSet(width int, rows ...[]int64) *ra.TupleSet {
	sch := make(schema.Schema, width)
	for i := range sch {
		sch[i] = schema.Column{Name: string(rune('a' + i)), Type: value.KindInt}
	}
	seed := relation.New(sch)
	for _, r := range rows {
		tu := make(relation.Tuple, width)
		for i, v := range r {
			tu[i] = value.Int(v)
		}
		seed.Append(tu)
	}
	return ra.NewTupleSet(seed)
}

// TestFrontierRootRule: RunFrontier fuses exactly the statements whose plan
// root is a CSR equi-join keeping one column of the table and as many
// columns as the set is wide (the merge join never roots one: the
// withplus differentials cover it, over a recursion's unanalyzed R); a fused statement returns the rows the
// unfused one would after DiffAdd, in the same order, and leaves the same
// set behind.
func TestFrontierRootRule(t *testing.T) {
	for _, c := range []struct {
		name  string
		prof  engine.Profile
		noCSR bool
		q     string
		width int
		fused bool
	}{
		{"target only", engine.OracleLike(), false, "select E.T from D, E where D.T = E.F", 1, true},
		{"carried then target", engine.OracleLike(), false, "select D.S, E.T from D, E where D.T = E.F", 2, true},
		{"carried key", engine.DB2Like(), false, "select D.T, E.T from D, E where D.T = E.F", 2, true},
		// The join keeps its columns in FROM order; a reordering
		// projection above it is not a pass-through.
		{"target then carried", engine.OracleLike(), false, "select E.T, D.S from D, E where D.T = E.F", 2, false},
		{"two table columns", engine.OracleLike(), false, "select E.F, E.T from D, E where D.T = E.F", 2, false},
		{"no table column", engine.OracleLike(), false, "select D.S from D, E where D.T = E.F", 1, false},
		{"distinct on top", engine.OracleLike(), false, "select distinct E.T from D, E where D.T = E.F", 1, false},
		{"wider than the set", engine.OracleLike(), false, "select D.S, E.T from D, E where D.T = E.F", 1, false},
		{"hash join (-nocsr)", engine.OracleLike(), true, "select E.T from D, E where D.T = E.F", 1, false},
	} {
		seed := [][]int64{{3}}
		if c.width == 2 {
			seed = [][]int64{{9, 3}, {3, 9}}
		}
		e := frontierDB(t, c.prof, c.noCSR)
		s := mustParseSelect(c.q)
		set := frontierSet(c.width, seed...)
		got, _, fused, err := NewExec(e).RunFrontier(s, set, false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if (fused != nil) != c.fused {
			t.Errorf("%s: fused %v, want %v", c.name, fused != nil, c.fused)
			continue
		}
		if fused == nil {
			continue
		}
		ref := frontierSet(c.width, seed...)
		joined, err := NewExec(e).Run(s)
		if err != nil {
			t.Fatal(err)
		}
		want, old := ref.DiffAdd(joined)
		if relRows(got) != relRows(want) || fused.Old != old || fused.Candidates != int64(joined.Len()) || set.Len() != ref.Len() {
			t.Errorf("%s: fused rows %s (old %v, %d candidates, set %d), want %s (old %v, %d rows, set %d)",
				c.name, relRows(got), fused.Old, fused.Candidates, set.Len(), relRows(want), old, joined.Len(), ref.Len())
		}
		if !got.Sch.Equal(joined.Sch) {
			t.Errorf("%s: fused schema %v, want the join's %v", c.name, got.Sch, joined.Sch)
		}
	}
}

// TestFrontierExplainAnalyze: the analyzed plan labels the fused node and
// counts its new rows, and the kernel opens one CSR — the agg-join's
// (F, T, ew) when that is the one cached — with no plain (F) CSR beside it.
func TestFrontierExplainAnalyze(t *testing.T) {
	e := frontierDB(t, engine.OracleLike(), false)
	et, err := e.Cat.Get("E")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := et.EnsureCSR(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	before := e.Cnt.Snapshot()
	_, plan, fused, err := NewExec(e).RunFrontier(mustParseSelect("select E.T from D, E where D.T = E.F"), frontierSet(1, []int64{3}), true)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Cnt.Snapshot()
	if fused == nil {
		t.Fatal("the statement did not run fused")
	}
	if !strings.Contains(plan.Render(), "hash join on (D.T = E.F) via csr, new rows only (rows=2 ") {
		t.Errorf("analyzed plan:\n%s", plan.Render())
	}
	if builds, hits := after.CSRBuilds-before.CSRBuilds, after.CSRCacheHits-before.CSRCacheHits; builds != 0 || hits != 1 {
		t.Errorf("csr builds %d, hits %d: want the cached (F, T, ew) CSR served once", builds, hits)
	}
	if et.CSR(0, -1, -1) != nil {
		t.Error("a plain (F) CSR was built beside the one the kernel reads")
	}
}

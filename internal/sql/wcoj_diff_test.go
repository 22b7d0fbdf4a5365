package sql

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// graphDB loads a random directed graph into E(F,T) and its node list into
// V(ID) on a fresh engine of the given profile, with statistics gathered so
// base-table access paths (CSR, analyzed-join choices) are live. Two more
// edge tables ride along: D(F,T,ew) holds E's edges plus a second copy of
// every other one (duplicate edges, whose multiplicities multiply through
// a join), and N(F,T) is nullEdges.
func graphDB(t *testing.T, prof engine.Profile, n, m int, seed int64) *engine.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eRel := relation.New(schema.Cols(value.KindInt, "F", "T"))
	for i := 0; i < m; i++ {
		eRel.AppendVals(value.Int(rng.Int63n(int64(n))), value.Int(rng.Int63n(int64(n))))
	}
	dRel := relation.New(schema.Schema{{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt}, {Name: "ew", Type: value.KindFloat}})
	for i := 0; i < 2*m; i++ {
		if tu := eRel.Tuples[i%m]; i < m || i%2 == 0 {
			dRel.AppendVals(tu[0], tu[1], value.Float(float64(i%7)/4))
		}
	}
	vRel := relation.New(schema.Cols(value.KindInt, "ID"))
	for i := 0; i < n; i++ {
		vRel.AppendVals(value.Int(int64(i)))
	}
	e := engine.New(prof)
	for _, tab := range []struct {
		name string
		rel  *relation.Relation
	}{{"E", eRel}, {"V", vRel}, {"D", dRel}, {"N", nullEdges()}} {
		if _, err := e.LoadBase(tab.name, tab.rel); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// nullEdges is the complete directed graph with self-loops over {1, 2, 3,
// NULL}: value.Equal matches NULL to NULL in the engine's joins, so NULL
// closes cycles like any other endpoint.
func nullEdges() *relation.Relation {
	r := relation.New(schema.Cols(value.KindInt, "F", "T"))
	vals := []value.Value{value.Int(1), value.Int(2), value.Int(3), value.Null}
	for _, f := range vals {
		for _, to := range vals {
			r.AppendVals(f, to)
		}
	}
	return r
}

// sortedRows renders a relation as sorted tab-separated lines — the
// byte-identical comparison form (the two paths may enumerate in different
// orders; ORDER BY is not part of the queries under test).
func sortedRows(r *relation.Relation) string {
	lines := make([]string, r.Len())
	for i, tu := range r.Tuples {
		parts := make([]string, len(tu))
		for j, v := range tu {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "\t")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// cyclicQueries is the differential corpus: every query has a cyclic
// equi-join core, several also carry tail joins, residual filters, or a
// FROM order that forces the post-WCOJ column restore.
var cyclicQueries = []struct {
	name string
	q    string
}{
	{"triangle_star", "select * from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"},
	{"triangle_count", "select count(*) from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"},
	{"triangle_proj", "select e1.F, e2.T from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"},
	{"triangle_residual", "select * from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and e1.F < e2.F"},
	{"diamond_count", "select count(*) from E e1, E e2, E e3, E e4 where e1.T = e2.F and e2.T = e3.F and e3.T = e4.F and e4.T = e1.F"},
	{"clique4_count", "select count(*) from E e1, E e2, E e3, E e4, E e5, E e6 where e1.F = e2.F and e2.F = e3.F and e1.T = e4.F and e4.F = e5.F and e2.T = e4.T and e4.T = e6.F and e3.T = e5.T and e5.T = e6.T"},
	{"triangle_tail", "select * from E e1, E e2, E e3, V v where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and v.ID = e1.F"},
	{"tail_before_core", "select * from V v, E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and v.ID = e1.F"},
	{"triangle_group", "select e1.F, count(*) from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F group by e1.F"},
	// count(*) folded into the multiway node.
	{"triangle_count_dup", "select count(*) from D d1, D d2, D d3 where d1.T = d2.F and d2.T = d3.F and d3.T = d1.F"},
	{"triangle_count_nulls", "select count(*) from N n1, N n2, N n3 where n1.T = n2.F and n2.T = n3.F and n3.T = n1.F"},
	{"triangle_count_twice", "select count(*), count(*) as c from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"},
	{"triangle_count_plus", "select count(*) + 1 from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"},
	// Aggregates that keep the hash aggregate above the multiway node.
	{"triangle_count_col", "select count(e1.F) from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"},
	{"triangle_sum_dup", "select sum(d1.ew) from D d1, D d2, D d3 where d1.T = d2.F and d2.T = d3.F and d3.T = d1.F"},
	{"triangle_count_having", "select count(*) from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F having count(*) > 0"},
	{"triangle_count_residual", "select count(*) from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and e1.F < e2.F"},
	{"triangle_count_tail", "select count(*) from E e1, E e2, E e3, V v where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and v.ID = e1.F"},
}

// TestWCOJDifferential runs every cyclic-pattern query through the WCOJ and
// binary paths (DisableWCOJ A/B) on all three profiles and requires
// byte-identical sorted output, with the counters proving the fast side
// actually took the WCOJ path and the baseline did not.
func TestWCOJDifferential(t *testing.T) {
	for _, prof := range engine.Profiles() {
		t.Run(prof.Name, func(t *testing.T) {
			e := graphDB(t, prof, 40, 160, 11)
			x := NewExec(e)
			for _, tc := range cyclicQueries {
				t.Run(tc.name, func(t *testing.T) {
					s, err := ParseSelect(tc.q)
					if err != nil {
						t.Fatal(err)
					}
					e.DisableWCOJ = false
					before := e.Cnt.Snapshot()
					fast, err := x.Run(s)
					if err != nil {
						t.Fatal(err)
					}
					mid := e.Cnt.Snapshot()
					if mid.WCOJProbes == before.WCOJProbes {
						t.Fatalf("WCOJ path did not run (probes %d -> %d)", before.WCOJProbes, mid.WCOJProbes)
					}
					e.DisableWCOJ = true
					s2, err := ParseSelect(tc.q)
					if err != nil {
						t.Fatal(err)
					}
					slow, err := x.Run(s2)
					if err != nil {
						t.Fatal(err)
					}
					after := e.Cnt.Snapshot()
					if after.WCOJProbes != mid.WCOJProbes {
						t.Fatalf("disabled run still probed WCOJ (%d -> %d)", mid.WCOJProbes, after.WCOJProbes)
					}
					e.DisableWCOJ = false
					if fast.Sch.String() != slow.Sch.String() {
						t.Fatalf("schema diverged:\nwcoj:   %s\nbinary: %s", fast.Sch, slow.Sch)
					}
					if got, want := sortedRows(fast), sortedRows(slow); got != want {
						t.Fatalf("output diverged (%d vs %d rows)", fast.Len(), slow.Len())
					}
				})
			}
		})
	}
}

// TestWCOJDifferentialNulls repeats the A/B on a relation containing NULL
// endpoints: value.Equal matches NULL to NULL in the engine's joins, and
// the WCOJ dictionaries must agree.
func TestWCOJDifferentialNulls(t *testing.T) {
	e := engine.New(engine.OracleLike())
	if _, err := e.LoadBase("E", nullEdges()); err != nil {
		t.Fatal(err)
	}
	x := NewExec(e)
	q := "select * from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"
	s, _ := ParseSelect(q)
	fast, err := x.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	e.DisableWCOJ = true
	s2, _ := ParseSelect(q)
	slow, err := x.Run(s2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedRows(fast), sortedRows(slow); got != want {
		t.Fatalf("NULL handling diverged (%d vs %d rows)", fast.Len(), slow.Len())
	}
	if fast.Len() == 0 {
		t.Fatal("expected NULL-cycle matches")
	}
}

// TestWCOJExplainAnalyzeLabel pins the plan label: the executed plan of a
// cyclic query must carry the multiway node with its "via wcoj" marker and
// the core scans as children, and the disabled run must not.
func TestWCOJExplainAnalyzeLabel(t *testing.T) {
	e := graphDB(t, engine.OracleLike(), 20, 60, 3)
	x := NewExec(e)
	q := "select count(*) from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"
	s, _ := ParseSelect(q)
	_, plan, err := x.RunAnalyzed(s)
	if err != nil {
		t.Fatal(err)
	}
	report := plan.Render()
	if !strings.Contains(report, "via wcoj") {
		t.Fatalf("plan missing wcoj label:\n%s", report)
	}
	if !strings.Contains(report, "multiway generic join on") {
		t.Fatalf("plan missing multiway node:\n%s", report)
	}
	// The global count(*) is folded into the multiway node: one node, one
	// row out, no hash aggregate above it.
	if !strings.HasSuffix(plan.Label, "via wcoj (count(*) folded)") || plan.Rows != 1 {
		t.Fatalf("count(*) not folded into the multiway node (rows=%d):\n%s", plan.Rows, report)
	}
	if strings.Contains(report, "hash aggregate") {
		t.Fatalf("folded plan still aggregates:\n%s", report)
	}
	e.DisableWCOJ = true
	s2, _ := ParseSelect(q)
	_, plan, err = x.RunAnalyzed(s2)
	if err != nil {
		t.Fatal(err)
	}
	if report := plan.Render(); strings.Contains(report, "via wcoj") || !strings.Contains(report, "hash aggregate (single group)") {
		t.Fatalf("disabled plan must be the binary chain under a hash aggregate:\n%s", report)
	}
}

// TestWCOJCountFold pins which aggregates fold into the multiway node: a
// global count(*) (any number of them, under any select-list expression)
// directly over the core renders as the one folded node; every other
// aggregate shape keeps the hash aggregate above an emitting core.
func TestWCOJCountFold(t *testing.T) {
	x := NewExec(graphDB(t, engine.OracleLike(), 20, 60, 3))
	folds := map[string]bool{
		"triangle_count": true, "diamond_count": true, "clique4_count": true,
		"triangle_count_dup": true, "triangle_count_nulls": true,
		"triangle_count_twice": true, "triangle_count_plus": true,
	}
	aggregates := 0
	for _, tc := range cyclicQueries {
		if !strings.Contains(tc.q, "count(") && !strings.Contains(tc.q, "sum(") {
			continue
		}
		aggregates++
		text, err := x.ExplainSelect(mustParse(t, tc.q))
		if err != nil {
			t.Fatal(err)
		}
		folded := strings.Contains(text, "via wcoj (count(*) folded)")
		hashAgg := strings.Contains(text, "hash aggregate")
		if folded != folds[tc.name] || hashAgg == folds[tc.name] {
			t.Errorf("%s: folded=%v hash aggregate=%v, want folded=%v:\n%s", tc.name, folded, hashAgg, folds[tc.name], text)
		}
	}
	if aggregates != 13 {
		t.Fatalf("corpus has %d aggregate queries, want 13", aggregates)
	}
}

// TestWCOJCountFoldBudget: the folded count charges the governor what the
// emitting core charged (a row per candidate and per joined tuple, charged
// in batches: once per level loop), so a row budget below the triangle
// count fails it with the same resource, an unlimited run charges exactly
// as many rows as the emitting core did, and a budget of exactly that many
// rows passes both while one row less fails both.
func TestWCOJCountFoldBudget(t *testing.T) {
	e := graphDB(t, engine.OracleLike(), 40, 160, 11)
	x := NewExec(e)
	const (
		folded   = "select count(*) from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"
		emitting = "select count(e1.F) from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"
	)
	run := func(q string, maxRows int64) (n, charged int64, err error) {
		e.Limits = govern.Limits{MaxRows: maxRows}
		end := e.BeginStatement(context.Background())
		defer end()
		defer func() { charged = e.Gov().Rows() }()
		defer govern.RecoverTo(&err)
		r, err := x.Run(mustParse(t, q))
		if err != nil {
			return 0, 0, err
		}
		return r.At(0)[0].AsInt(), 0, nil
	}
	count, foldedRows, err := run(folded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, emittingRows, err := run(emitting, 0); err != nil || emittingRows != foldedRows {
		t.Fatalf("governor rows: folded %d, emitting %d (err %v)", foldedRows, emittingRows, err)
	}
	if count < 2 {
		t.Fatalf("triangle count %d too small to budget below", count)
	}
	for _, q := range []string{folded, emitting} {
		for _, limit := range []int64{count / 2, foldedRows - 1} {
			_, _, err := run(q, limit)
			var be *govern.BudgetError
			if !errors.As(err, &be) || be.Resource != "rows" {
				t.Fatalf("%s under MaxRows=%d: want a rows BudgetError, got %v", q, limit, err)
			}
		}
		if n, _, err := run(q, foldedRows); err != nil || n != count {
			t.Fatalf("%s under MaxRows=%d: got %d, %v; want %d", q, foldedRows, n, err, count)
		}
	}
}

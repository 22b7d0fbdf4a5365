package sql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// warm reads the named tables once, the way any statement would: a table
// read since it was loaded is one the lookup rule builds a structure for.
func warm(t *testing.T, e *engine.Engine, names ...string) {
	t.Helper()
	for _, name := range names {
		if _, err := e.Rel(name); err != nil {
			t.Fatal(err)
		}
	}
}

func explain(t *testing.T, x *Exec, q string) string {
	t.Helper()
	text, err := x.ExplainSelect(mustParse(t, q))
	if err != nil {
		t.Fatalf("explain %q: %v", q, err)
	}
	return text
}

// TestLookupRule: which conjuncts become index lookups, and how EXPLAIN
// labels them.
func TestLookupRule(t *testing.T) {
	x := planExec(t, graphDB(t, engine.OracleLike(), 30, 120, 7))
	for _, tc := range []struct{ query, want string }{
		{"select T from E where F = 17", "-> index lookup E on (F = 17) via csr (base table, 120 rows, analyzed)\n"},
		{"select T from E where 17 = F", "-> index lookup E on (17 = F) via csr (base table, 120 rows, analyzed)\n"},
		{"select ew from D where ew = 0.5", "-> index lookup D on (ew = 0.5) via csr (base table, 180 rows, analyzed)\n"},
		// One lookup per source; the other conjunct stays a residual.
		{"select T from E where F = 1 and T = 2",
			"-> filter (T = 2)\n   -> index lookup E on (F = 1) via csr (base table, 120 rows, analyzed)\n"},
		// A pinned source on the build side reads its lookup, not the
		// table's CSR: the join builds fresh.
		{"select a.T from E a, E b where a.T = b.F and b.F = 1",
			"-> hash join on (a.T = b.F)\n   -> scan a (base table, 120 rows, analyzed)\n   -> index lookup b on (b.F = 1) via csr (base table, 120 rows, analyzed)\n"},
		// Refused: a NULL literal, a column of two sources, a subquery, an
		// outer-join member, an Override (Δ) relation.
		{"select T from E where F = null", "-> filter (F = NULL)\n   -> scan E (base table, 120 rows, analyzed)\n"},
		{"select a.T from E a, E b where F = 1 and a.T = b.F",
			"-> filter (F = 1)\n   -> hash join on (a.T = b.F) via csr\n      -> scan a (base table, 120 rows, analyzed)\n      -> scan b (base table, 120 rows, analyzed)\n"},
		{"select s.T from (select F, T from E) s where s.F = 1",
			"-> filter (s.F = 1)\n   -> subquery s:\n      -> scan E (base table, 120 rows, analyzed)\n"},
		{"select V.ID from V left outer join E on V.ID = E.F where E.F = 1",
			"-> filter (E.F = 1)\n   -> left outer join on (V.ID = E.F)\n      -> scan V (base table, 30 rows, analyzed)\n      -> scan E (base table, 120 rows, analyzed)\n"},
		{"select T from TC where F = 0", "-> filter (F = 0)\n   -> scan TC (Δ frontier, 2 rows, no statistics)\n"},
	} {
		if got := explain(t, x, tc.query); got != tc.want {
			t.Errorf("%s:\n%s--- want ---\n%s", tc.query, got, tc.want)
		}
	}
	// A float literal finds the integer keys it equals, as the filter does.
	if got, want := mustRun(t, x, "select T from E where F = 3.0"), mustRun(t, x, "select T from E where F + 0 = 3"); want.Len() == 0 || relRows(got) != relRows(want) {
		t.Errorf("F = 3.0:\n%s\nwant\n%s", relRows(got), relRows(want))
	}
	if _, err := x.Run(mustParse(t, "select a.T from E a, E b where F = 1 and a.T = b.F")); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("an ambiguous pinned column must still fail as ambiguous, got %v", err)
	}

	// A table nobody has read since it was loaded is filtered: a build
	// would serve this one statement only.
	cold := NewExec(graphDB(t, engine.OracleLike(), 30, 120, 7))
	if got := explain(t, cold, "select T from E where F = 17"); got != "-> filter (F = 17)\n   -> scan E (base table, 120 rows, analyzed)\n" {
		t.Errorf("a cold table must keep the filtered scan:\n%s", got)
	}

	// Other profiles and the -nocsr knob take the lookup too.
	for _, tc := range []struct {
		prof  engine.Profile
		noCSR bool
		via   string
	}{{engine.PostgresLike(true), false, "via csr"}, {engine.DB2Like(), true, "via hash index"}} {
		e := graphDB(t, tc.prof, 30, 120, 7)
		warm(t, e, "E")
		e.DisableCSR = tc.noCSR
		if got := explain(t, NewExec(e), "select T from E where F = 17"); !strings.Contains(got, "index lookup E on (F = 17) "+tc.via) {
			t.Errorf("%s (nocsr=%v): %s", tc.prof.Name, tc.noCSR, got)
		}
	}
}

// TestLookupOnUnanalyzedTable: a table appended to since its statistics
// were taken keeps the filtered scan until a join has paid for the CSR; a
// lookup planned over that CSR is served correctly when a write drops it
// between plan and execute.
func TestLookupOnUnanalyzedTable(t *testing.T) {
	e := graphDB(t, engine.OracleLike(), 30, 120, 7)
	x := NewExec(e)
	edges := mustRun(t, x, "select F, T from E")
	if _, err := e.CreateBase("W", edges.Sch); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendInto("W", edges); err != nil {
		t.Fatal(err)
	}
	const q = "select F, T from W where F = 3"
	if got := explain(t, x, q); !strings.Contains(got, "filter (F = 3)") {
		t.Fatalf("unanalyzed W without a CSR must filter:\n%s", got)
	}
	mustRun(t, x, "select count(*) from W a, W b where a.T = b.F") // builds W's CSR on F
	p, err := x.plan(mustParse(t, q))
	if err != nil {
		t.Fatal(err)
	}
	if l := p.kids[0].label(false); l != "index lookup W on (F = 3) via csr (base table, no statistics)" {
		t.Fatalf("with the CSR cached the lookup applies, got %q", l)
	}
	// Rewrite W between plan and execute: the cached CSR is gone and half
	// the rows with it.
	half := relation.New(edges.Sch)
	half.Tuples = edges.Tuples[:edges.Len()/2]
	if err := e.StoreInto("W", half); err != nil {
		t.Fatal(err)
	}
	got, _, err := x.execute(p, false)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New(p.sch)
	for _, tu := range half.Tuples {
		if tu[0].Equal(value.Int(3)) {
			want.Append(tu)
		}
	}
	if sortedRows(got) != sortedRows(want) {
		t.Errorf("lookup after the CSR was dropped:\n%s\nwant\n%s", sortedRows(got), sortedRows(want))
	}
}

// TestLookupUnderConcurrentAppends: sessions run lookups on a shared table
// while another session appends to it (and re-analyzes it, so lookups keep
// being planned); every lookup returns exactly the rows, in the order, a
// filtered scan returns over the same statement snapshot.
func TestLookupUnderConcurrentAppends(t *testing.T) {
	root := graphDB(t, engine.OracleLike(), 30, 120, 7)
	warm(t, root, "E")
	tab, err := root.Cat.Get("E")
	if err != nil {
		t.Fatal(err)
	}
	const readers, statements, appends = 3, 60, 40
	var wg sync.WaitGroup
	lookups := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := root.NewSession(fmt.Sprintf("reader%d", r))
			defer sess.CloseSession()
			x := NewExec(sess)
			for i := 0; i < statements; i++ {
				k := (r*7 + i) % 30
				end := sess.BeginStatement(context.Background())
				viaLookup, plan, err := x.RunAnalyzed(mustParseSelect(fmt.Sprintf("select F, T from E where F = %d", k)))
				var viaFilter *relation.Relation
				if err == nil {
					viaFilter, err = x.Run(mustParseSelect(fmt.Sprintf("select F, T from E where F + 0 = %d", k)))
				}
				end()
				if err != nil {
					t.Error(err)
					return
				}
				if plan.Find("index lookup") != nil {
					lookups[r]++
				}
				if relRows(viaLookup) != relRows(viaFilter) {
					t.Errorf("reader %d, F = %d: lookup\n%s\nfilter\n%s", r, k, relRows(viaLookup), relRows(viaFilter))
					return
				}
			}
		}(r)
	}
	writer := root.NewSession("writer")
	for i := 0; i < appends; i++ {
		rows := relation.New(schema.Cols(value.KindInt, "F", "T"))
		rows.AppendVals(value.Int(int64(i%30)), value.Int(int64(i)))
		if err := writer.AppendInto("E", rows); err != nil {
			t.Fatal(err)
		}
		tab.Analyze()
	}
	writer.CloseSession()
	wg.Wait()
	for r, n := range lookups {
		if n == 0 {
			t.Errorf("reader %d never ran a lookup", r)
		}
	}
}

func mustParseSelect(q string) *SelectStmt {
	s, err := ParseSelect(q)
	if err != nil {
		panic(err)
	}
	return s
}

// relRows renders a relation's rows in order.
func relRows(r *relation.Relation) string {
	var b strings.Builder
	for _, tu := range r.Tuples {
		b.WriteString(tu.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPruning: which join chains emit only the columns their block reads,
// and which keep every column.
func TestPruning(t *testing.T) {
	x := planExec(t, graphDB(t, engine.OracleLike(), 30, 120, 7))
	keeps := func(q string) []string {
		p, err := x.plan(mustParse(t, q))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		var walk func(n *planNode)
		walk = func(n *planNode) {
			for _, k := range n.kids {
				walk(k)
			}
			switch {
			case n.op != opEquiJoin:
			case n.join.keep == nil:
				out = append(out, "all")
			default:
				out = append(out, fmt.Sprint(n.join.keep))
			}
		}
		walk(p)
		return out
	}
	for _, tc := range []struct {
		query string
		want  string
	}{
		{"select b.T from E a, E b where a.T = b.F", "[[3]]"},
		// The bottom join carries b.T, the next join's key.
		{"select a.F from E a, E b, V c where a.T = b.F and b.T = c.ID", "[[0 3] [0]]"},
		{"select count(*) from E a, E b where a.T = b.F", "[[]]"},
		{"select a.F, b.T from E a, E b where a.T = b.F and a.F < b.T order by b.T", "[[0 3]]"},
		// Refused: select *, a subquery anywhere in the block, a multiway
		// core whose columns are restored to FROM order.
		{"select * from E a, E b where a.T = b.F", "[all]"},
		{"select a.F from E a, E b where a.T = b.F and a.F in (select ID from V)", "[all]"},
		{"select a.F from E a, E b where a.T = b.F and exists (select ID from V)", "[all]"},
		{"select v.ID from V v, E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and v.ID = e1.F", "[all]"},
	} {
		if got := fmt.Sprint(keeps(tc.query)); got != tc.want {
			t.Errorf("%s: keep %s, want %s", tc.query, got, tc.want)
		}
	}
	// An unresolvable or ambiguous reference turns pruning off, so the
	// error is the one the unpruned plan reports.
	for _, q := range []string{"select F from E a, E b where a.T = b.F", "select a.Q from E a, E b where a.T = b.F"} {
		if _, err := x.Run(mustParse(t, q)); err == nil {
			t.Errorf("%s: want a resolution error", q)
		}
	}
}

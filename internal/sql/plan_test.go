package sql

import (
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// planCases is the shared corpus of the plan-tree tests: one statement per
// planner decision that EXPLAIN and the executor used to take separately.
var planCases = []struct {
	name, query string
}{
	{"chain_of_three", "select a.F from E a, E b, V c where a.T = b.F and b.T = c.ID"},
	{"same_source_equality_beside_key", "select a.F from E a, V c where a.F = a.T and a.T = c.ID"},
	{"triangle_tail_first", "select * from V v, E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and v.ID = e1.F"},
	{"subquery_in_cyclic_core", "select count(*) from E e1, (select F, T from E where F < 15) e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"},
	{"outer_join_source", "select V.ID, b.T from V left outer join E on V.ID = E.T, E b where V.ID = b.F"},
	{"aggregate_having", "select F, count(*) c, sum(T) + 1 s from E group by F having count(*) > 1"},
	{"distinct_order_limit", "select distinct T from E where F < 15 order by T desc limit 3"},
	{"compound", "(select F from E) union (select T from E) except (select ID from V where ID < 3)"},
	{"delta_frontier_override", "select TC.F, E.T from TC, E where TC.T = E.F"},
	{"pinned_scan", "select T from E where F = 3"},
	{"pinned_chain_pruned", "select b.T from E a, E b where a.F = 3 and a.T = b.F"},
	{"pinned_literal_first_with_residual", "select a.T from E a, V c where 3 = a.F and a.T = c.ID and a.T < 20"},
	{"pruned_chain_under_group_by", "select c.ID, count(*) n from E a, E b, V c where a.T = b.F and b.T = c.ID group by c.ID having count(*) > 1 order by c.ID"},
	{"pruned_to_no_columns", "select count(*) from E a, E b where a.T = b.F and b.T = 4"},
	{"pinned_delta_frontier_stays_filtered", "select TC.F, E.T from TC, E where TC.T = E.F and TC.F = 0"},
	{"agg_join", "select b.T, min(a.ew + b.ew) d from D a, D b where a.T = b.F group by b.T"},
	{"agg_join_over_subquery_probe", "select b.T, 0.85 * sum(a.w * b.ew) + 1 r from (select T, ew w from D where F < 15) a, D b where a.T = b.F group by b.T order by b.T"},
}

var planProfiles = []engine.Profile{engine.OracleLike(), engine.DB2Like(), engine.PostgresLike(true)}

// planExec returns an executor over the random graph with the state of a
// WITH+ recursive section mid-loop: TC bound to a Δ-frontier override. Its
// base tables have been read since loading, so pinned conjuncts on them
// plan as index lookups (engine.ChooseLookup).
func planExec(t *testing.T, e *engine.Engine) *Exec {
	t.Helper()
	warm(t, e, "E", "V", "D")
	x := NewExec(e)
	tc := relation.New(schema.Cols(value.KindInt, "F", "T"))
	tc.AppendVals(value.Int(0), value.Int(1))
	tc.AppendVals(value.Int(1), value.Int(2))
	x.Override["TC"], x.Delta["TC"] = tc, true
	return x
}

type planLine struct {
	depth int
	label string
}

var (
	estimateRE = regexp.MustCompile(`, \d+ rows`)
	runNoteRE  = regexp.MustCompile(` \((vectorized|vectorized, row fallback|row path)\)$`)
)

// explainLines parses plain EXPLAIN text into its label tree, dropping the
// scans' row estimates.
func explainLines(t *testing.T, text string) []planLine {
	t.Helper()
	var out []planLine
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		body := strings.TrimLeft(line, " ")
		indent := len(line) - len(body)
		if indent%3 != 0 || !strings.HasPrefix(body, "-> ") {
			t.Fatalf("malformed EXPLAIN line %q in:\n%s", line, text)
		}
		out = append(out, planLine{indent / 3, estimateRE.ReplaceAllString(body[len("-> "):], "")})
	}
	return out
}

// analyzedLines flattens an executed plan the same way, dropping the
// run-time kernel annotations.
func analyzedLines(n *obs.PlanNode, depth int) []planLine {
	out := []planLine{{depth, runNoteRE.ReplaceAllString(n.Label, "")}}
	for _, c := range n.Children {
		out = append(out, analyzedLines(c, depth+1)...)
	}
	return out
}

// TestExplainMatchesExplainAnalyze: the tree EXPLAIN prints is, node for
// node, the tree EXPLAIN ANALYZE reports having run.
func TestExplainMatchesExplainAnalyze(t *testing.T) {
	for _, prof := range planProfiles {
		for _, tc := range planCases {
			t.Run(prof.Name+"/"+tc.name, func(t *testing.T) {
				x := planExec(t, graphDB(t, prof, 30, 120, 7))
				text, err := x.ExplainSelect(mustParse(t, tc.query))
				if err != nil {
					t.Fatal(err)
				}
				_, ran, err := x.RunAnalyzed(mustParse(t, tc.query))
				if err != nil {
					t.Fatal(err)
				}
				if want, got := analyzedLines(ran, 0), explainLines(t, text); !reflect.DeepEqual(got, want) {
					t.Errorf("EXPLAIN diverged from the executed plan\n--- explain ---\n%s--- explain analyze ---\n%s", text, ran.Render())
				}
			})
		}
	}
}

// cachedStructures counts the indexes cached on the table over every
// one- and two-column key: hash, sorted, and CSR.
func cachedStructures(t *testing.T, e *engine.Engine, name string) int {
	t.Helper()
	tab, err := e.Cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for a := 0; a < tab.Sch.Arity(); a++ {
		for b := -1; b < tab.Sch.Arity(); b++ {
			cols := []int{a}
			if b >= 0 {
				cols = append(cols, b)
			}
			if tab.HashIndex(cols) != nil {
				n++
			}
			if tab.Index(cols) != nil {
				n++
			}
			if tab.CSR(a, b, -1) != nil {
				n++
			}
		}
	}
	return n
}

// TestPlanningExecutesNothing: EXPLAIN charges no counter, caches no index
// on any table and creates no table.
func TestPlanningExecutesNothing(t *testing.T) {
	for _, prof := range planProfiles {
		e := graphDB(t, prof, 30, 120, 7)
		x := planExec(t, e)
		// An unanalyzed temp: the build side the CSR rule only peeks at.
		if _, err := e.CreateTemp("W", schema.Cols(value.KindInt, "F", "T")); err != nil {
			t.Fatal(err)
		}
		queries := []string{"select E.F from E, W where E.T = W.F"}
		for _, tc := range planCases {
			queries = append(queries, tc.query)
		}
		before, tables := e.Cnt.Snapshot(), e.Cat.Names()
		for _, q := range queries {
			if _, err := x.ExplainSelect(mustParse(t, q)); err != nil {
				t.Fatalf("%s: explain %q: %v", prof.Name, q, err)
			}
		}
		if after := e.Cnt.Snapshot(); after != before {
			t.Errorf("%s: planning charged counters: %+v -> %+v", prof.Name, before, after)
		}
		if after := e.Cat.Names(); !reflect.DeepEqual(after, tables) {
			t.Errorf("%s: planning changed the catalog: %v -> %v", prof.Name, tables, after)
		}
		for _, name := range tables {
			if n := cachedStructures(t, e, name); n != 0 {
				t.Errorf("%s: planning cached %d index structure(s) on %s", prof.Name, n, name)
			}
		}
	}
}

// TestPlanningPinsNoSnapshot: on a session engine, planning a statement
// leaves the statement snapshot as it found it — a table the statement has
// not read yet is still unpinned (a later read sees a concurrent commit),
// and a table it has read keeps its pin.
func TestPlanningPinsNoSnapshot(t *testing.T) {
	root := graphDB(t, engine.OracleLike(), 30, 120, 7)
	warm(t, root, "E")
	sess := root.NewSession("s1")
	defer sess.CloseSession()
	x := NewExec(sess)
	end := sess.BeginStatement(context.Background())
	defer end()
	pinned := mustRun(t, x, "select count(*) from V").At(0)[0].AsInt()
	for _, q := range []string{"select count(*) from E", "select count(*) from V", "select E.F from E, V where E.T = V.ID",
		"select T from E where F = 1", "select b.T from E a, E b where a.F = 1 and a.T = b.F"} {
		if _, err := x.ExplainSelect(mustParse(t, q)); err != nil {
			t.Fatal(err)
		}
	}
	edges := mustRun(t, NewExec(root), "select count(*) from E").At(0)[0].AsInt()
	extraE := relation.New(schema.Cols(value.KindInt, "F", "T"))
	extraE.AppendVals(value.Int(1), value.Int(2))
	extraV := relation.New(schema.Cols(value.KindInt, "ID"))
	extraV.AppendVals(value.Int(99))
	if err := root.AppendInto("E", extraE); err != nil {
		t.Fatal(err)
	}
	if err := root.AppendInto("V", extraV); err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, x, "select count(*) from E").At(0)[0].AsInt(); got != edges+1 {
		t.Errorf("planning pinned E: statement sees %d edges, want %d", got, edges+1)
	}
	if got := mustRun(t, x, "select count(*) from V").At(0)[0].AsInt(); got != pinned {
		t.Errorf("V lost its pin: statement sees %d vertices, want %d", got, pinned)
	}
}

// TestPlanSchemasMatchExecution: every node's statically derived schema is
// exactly the schema its execution produces — what lets plan() resolve join
// keys, sort columns and subquery outputs without running anything.
func TestPlanSchemasMatchExecution(t *testing.T) {
	for _, prof := range planProfiles {
		x := planExec(t, graphDB(t, prof, 30, 120, 7))
		for _, tc := range planCases {
			root, err := x.plan(mustParse(t, tc.query))
			if err != nil {
				t.Fatal(err)
			}
			var check func(n *planNode)
			check = func(n *planNode) {
				out, _, err := x.execute(n, false)
				if err != nil {
					t.Fatalf("%s/%s: %s: %v", prof.Name, tc.name, n.label(false), err)
				}
				if len(n.sch)+len(out.Sch) > 0 && !reflect.DeepEqual(n.sch, out.Sch) {
					t.Errorf("%s/%s: %s: planned schema %v, executed %v", prof.Name, tc.name, n.label(false), n.sch, out.Sch)
				}
				for _, k := range n.kids {
					check(k)
				}
			}
			check(root)
		}
	}
}

// TestInnerJoinTakesTheJoinStep: INNER JOIN ... ON is the comma join spelled
// differently — same counters, same cached build side, same plan label.
func TestInnerJoinTakesTheJoinStep(t *testing.T) {
	run := func(q string) (engine.CountersSnapshot, string) {
		x := NewExec(graphDB(t, engine.OracleLike(), 30, 120, 7))
		mustRun(t, x, "select count(*) from E a, E b where a.T = b.F") // warm the CSR cache
		before := x.Eng.Cnt.Snapshot()
		_, plan, err := x.RunAnalyzed(mustParse(t, q))
		if err != nil {
			t.Fatal(err)
		}
		after := x.Eng.Cnt.Snapshot()
		after.Joins -= before.Joins
		after.CSRCacheHits -= before.CSRCacheHits
		join := plan.Find(" join on ")
		if join == nil {
			t.Fatalf("no join node in:\n%s", plan.Render())
		}
		return after, join.Label
	}
	comma, commaLabel := run("select a.F, b.T from E a, E b where a.T = b.F")
	inner, innerLabel := run("select a.F, b.T from E a inner join E b on a.T = b.F")
	if comma.Joins != 1 || comma.CSRCacheHits != 1 || commaLabel != "hash join on (a.T = b.F) via csr" {
		t.Fatalf("comma form: joins=%d csr hits=%d label=%q", comma.Joins, comma.CSRCacheHits, commaLabel)
	}
	if inner.Joins != comma.Joins || inner.CSRCacheHits != comma.CSRCacheHits || innerLabel != commaLabel {
		t.Errorf("inner join diverged from the comma form: joins=%d csr hits=%d label=%q", inner.Joins, inner.CSRCacheHits, innerLabel)
	}
}

// TestStatementShapeErrorsAtPlanTime: a statement the executor cannot run is
// rejected before any of it runs, and EXPLAIN rejects it the same way.
func TestStatementShapeErrorsAtPlanTime(t *testing.T) {
	AggFuncs["median"] = true // parses as an aggregate the executor lacks
	defer delete(AggFuncs, "median")
	x := NewExec(graphDB(t, engine.OracleLike(), 30, 120, 7))
	for _, tc := range []struct{ query, want string }{
		{"select a.F from E a, E b where a.T = b.F order by a.F + 1", "sql: order by supports column references only"},
		{"select *, count(*) from E a, E b where a.T = b.F", "sql: select * cannot be combined with aggregation"},
		{"select median(a.F) from E a, E b where a.T = b.F", `sql: unknown aggregate "median"`},
		{"select sum(a.F, a.T) from E a, E b where a.T = b.F", "sql: aggregate sum takes one argument"},
	} {
		before := x.Eng.Cnt.Snapshot()
		if _, err := x.Run(mustParse(t, tc.query)); err == nil || err.Error() != tc.want {
			t.Errorf("run %q: error %v, want %q", tc.query, err, tc.want)
		}
		if _, err := x.ExplainSelect(mustParse(t, tc.query)); err == nil || err.Error() != tc.want {
			t.Errorf("explain %q: error %v, want %q", tc.query, err, tc.want)
		}
		if after := x.Eng.Cnt.Snapshot(); after != before {
			t.Errorf("%q ran before it was rejected: %+v -> %+v", tc.query, before, after)
		}
	}
}

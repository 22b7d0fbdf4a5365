package withplus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/datalog"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ra"
	"repro/internal/refimpl"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/value"
)

// These tests pin the two union-by-update rules: the guarded Δ
// (GuardReason), under which a min/max-guarded relaxation's inner reference
// reads the rows the previous step changed, and the keyed merge
// (sql.RunUBU), which merges the step's rows into R by key position on the
// hash-join profiles. With both on, every iteration must leave R, its Δ and
// the trace exactly as full evaluation with the merge off does.

// ubuEngines are the set-ups the differentials run: the keyed merge runs on
// the two hash-join profiles, with the CSR and without; the PostgreSQL-like
// profile keeps its merge join and full-outer union-by-update.
var ubuEngines = []struct {
	name   string
	new    func() *engine.Engine
	merges bool
}{
	{"oracle", func() *engine.Engine { return engine.New(engine.OracleLike()) }, true},
	{"db2", func() *engine.Engine { return engine.New(engine.DB2Like()) }, true},
	{"postgres", func() *engine.Engine { return engine.New(engine.PostgresLike(true)) }, false},
	{"oracle -nocsr", func() *engine.Engine {
		e := engine.New(engine.OracleLike())
		e.DisableCSR = true
		return e
	}, true},
}

// ubuCase is one guarded text, on its graph, prepared by its own loader
// (the MATCH lowering needs the property graph first).
type ubuCase struct {
	name    string
	g       *graph.Graph
	text    string
	shortFr int // ANY SHORTEST from this source when text is empty
}

// weightedMultiGraph is multiGraph — duplicate edges and self-loops — with
// weights 1, 2 and 3.
func weightedMultiGraph(n, m int, seed int64) *graph.Graph {
	g := multiGraph(n, m, seed)
	for i := range g.Edges {
		g.Edges[i].W = float64(1 + i%3)
	}
	return g
}

// ubuCases are the guarded texts over g. BFS multiplies flags by weights,
// so it reads g with every weight 1 (a weight above 1 would grow the flags
// without bound).
func ubuCases(g *graph.Graph) []ubuCase {
	unit := graph.New(g.N, g.Directed)
	for _, e := range g.Edges {
		unit.AddEdge(e.F, e.T, 1)
	}
	return []ubuCase{
		{name: "SSSP", g: g, text: algos.SSSPSQL(0)},
		{name: "WCC", g: unit.Symmetrize(), text: algos.WCCSQL()},
		{name: "BFS", g: unit, text: algos.BFSSQL(1)},
		{name: "KS", g: g, text: algos.KSSQL(4)},
		{name: "shortest 0", g: g, shortFr: 0},
		{name: "shortest 3", g: g, shortFr: 3},
		{name: "shortest 17", g: g, shortFr: 17},
		{name: "shortest 29", g: g, shortFr: 29},
	}
}

// loadKInit loads Keyword-Search's indicator table: one keyword per node
// residue, set on every other node.
func loadKInit(t *testing.T, e *engine.Engine, n int) {
	t.Helper()
	rel := relation.New(schema.Schema{{Name: "ID", Type: value.KindInt}, {Name: "b0", Type: value.KindInt},
		{Name: "b1", Type: value.KindInt}, {Name: "b2", Type: value.KindInt}})
	for i := 0; i < n; i++ {
		row := relation.Tuple{value.Int(int64(i)), value.Int(0), value.Int(0), value.Int(0)}
		row[1+i%3] = value.Int(int64(i % 2))
		rel.Append(row)
	}
	if _, err := e.LoadBase("KInit", rel); err != nil {
		t.Fatal(err)
	}
}

// shortestStmt lowers MATCH ANY SHORTEST from src over E into its WITH+
// statement (sql/graphexpand.go).
func shortestStmt(t *testing.T, e *engine.Engine, src int) *sql.WithStmt {
	t.Helper()
	x := sql.NewExec(e)
	for _, q := range []string{
		"create property graph pg (vertex tables (V key (ID)), edge tables (E source key (F) references V destination key (T) references V))",
		fmt.Sprintf("select * from graph_table(pg match any shortest (a)-[e]->(b) where a.ID = %d and path_cost() < 1e18 columns (b.ID ID, path_cost() dist))", src),
	} {
		st, err := sql.ParseStatement(q)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = sql.ExpandStatement(e, st); err != nil {
			t.Fatal(err)
		}
		if w, ok := st.(*sql.WithQueryStmt); ok {
			return w.With
		}
		if _, err := x.ExecStatement(st); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("the ANY SHORTEST statement lowered to no recursion")
	return nil
}

// prepareCase loads the case's data into e and prepares its statement.
func prepareCase(t *testing.T, e *engine.Engine, c ubuCase) *Program {
	t.Helper()
	loadGraphDB(t, e, c.g)
	loadKInit(t, e, c.g.N)
	var p *Program
	var err error
	if c.text == "" {
		p, err = PrepareStmt(e, shortestStmt(t, e, c.shortFr))
	} else {
		p, err = Prepare(e, c.text)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rowBits renders rows in order, kinds and float bits included.
func rowBits(r *relation.Relation) string {
	var b strings.Builder
	for _, tu := range r.Tuples {
		for _, v := range tu {
			if v.K == value.KindFloat {
				fmt.Fprintf(&b, "f%016x ", math.Float64bits(v.F))
			} else {
				fmt.Fprintf(&b, "%d:%v ", v.K, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ubuOutcome runs p and renders, byte for byte, R and the changed rows after
// every step, then the result and the trace. It also reports the trace's
// branch modes and how many steps the keyed merge ran.
func ubuOutcome(t *testing.T, e *engine.Engine, p *Program) (outcome string, modes []string, merged int) {
	t.Helper()
	col := obs.NewCollector()
	e.SetObserver(col)
	defer e.SetObserver(nil)
	var b strings.Builder
	step := 0
	p.afterStep = func(r, delta *relation.Relation) {
		step++
		fmt.Fprintf(&b, "step %d R:\n%sΔ:\n%s", step, rowBits(r), rowBits(delta))
	}
	defer p.Cleanup()
	out, tr, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "result:\n%siterations=%d rows=%v delta=%v\n", rowBits(out), tr.Iterations, tr.IterRows, tr.DeltaRows)
	for _, sp := range col.Spans() {
		if sp.Op == "union-by-update" && strings.Contains(sp.Note, "keyed merge") {
			merged++
		}
		if sp.Dur > time.Minute {
			t.Errorf("%s span %q lasted %v: its clock never started", sp.Op, sp.Note, sp.Dur)
		}
	}
	return b.String(), tr.BranchModes, merged
}

// TestUBUGuardedDeltaMatchesFull: on WV (n = 1 000) and a multigraph with
// duplicate edges and self-loops, the SSSP, WCC, BFS and KS texts and MATCH
// ANY SHORTEST from four sources leave R and its Δ after every iteration,
// the result rows (in order, to the bit) and the trace exactly as full
// evaluation with the keyed merge off does, on every profile; the guard
// admitted every one of them, and the merge ran on every step of the
// hash-join profiles and on none of the PostgreSQL-like one's.
func TestUBUGuardedDeltaMatchesFull(t *testing.T) {
	info, err := dataset.ByCode("WV")
	if err != nil {
		t.Fatal(err)
	}
	wv := info.Generate(1000, 1)
	graphs := map[string]*graph.Graph{"WV": wv, "multigraph": weightedMultiGraph(40, 120, 9)}
	if testing.Short() {
		delete(graphs, "WV")
	}
	for gname, g := range graphs {
		for _, c := range ubuCases(g) {
			for _, ue := range ubuEngines {
				label := fmt.Sprintf("%s %s %s", gname, c.name, ue.name)
				e := ue.new()
				got, modes, merged := ubuOutcome(t, e, prepareCase(t, e, c))
				full := ue.new()
				full.DisableDelta = true
				restore := ra.SetMergeTestMode(ra.MergeOff)
				want, fullModes, fullMerged := ubuOutcome(t, full, prepareCase(t, full, c))
				restore()
				if got != want {
					t.Errorf("%s: guarded Δ + merge differ from full evaluation:\n%s", label, firstDiff(got, want))
				}
				if len(modes) != 1 || !strings.Contains(modes[0], "guarded Δ") {
					t.Errorf("%s: branch modes %v, want guarded Δ", label, modes)
				}
				if !strings.Contains(strings.Join(fullModes, ";"), "delta evaluation disabled") || fullMerged != 0 {
					t.Errorf("%s: the full run took modes %v and %d merges", label, fullModes, fullMerged)
				}
				if steps := strings.Count(got, "step "); ue.merges && merged != steps || !ue.merges && merged != 0 {
					t.Errorf("%s: the keyed merge ran %d of %d steps", label, merged, steps)
				}
			}
		}
	}
}

// firstDiff shows the first line where two outcomes part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(g), len(w))
}

// TestUBUTextsMatchReferences: the guarded SSSP, WCC and BFS texts agree
// with refimpl and with the SociaLite-style delta evaluators on every
// profile.
func TestUBUTextsMatchReferences(t *testing.T) {
	g := weightedMultiGraph(50, 160, 13)
	unit := multiGraph(50, 160, 13)
	dist, _ := datalog.SocialiteSSSP(g, 0)
	labels, _ := datalog.SocialiteWCC(unit)
	ref := refimpl.BellmanFord(g, 0)
	refLabels, reach := refimpl.WCC(unit.Symmetrize()), refimpl.BFS(unit, 0)
	for _, ue := range ubuEngines {
		for _, c := range []struct {
			name, text string
			g          *graph.Graph
			ok         func(id int64, v value.Value) bool
		}{
			{"SSSP", algos.SSSPSQL(0), g, func(id int64, v value.Value) bool {
				want := dist[id]
				if math.IsInf(want, 1) {
					want = 1e18
				}
				return v.AsFloat() == want && (ref[id] == dist[id])
			}},
			{"WCC", algos.WCCSQL(), unit.Symmetrize(), func(id int64, v value.Value) bool {
				return v.AsInt() == labels[id] && labels[id] == refLabels[id]
			}},
			{"BFS", algos.BFSSQL(0), unit, func(id int64, v value.Value) bool { return v.AsFloat() == reach[id] }},
		} {
			e := ue.new()
			loadGraphDB(t, e, c.g)
			out, tr, err := Run(e, c.text)
			if err != nil {
				t.Fatalf("%s %s: %v", ue.name, c.name, err)
			}
			if !tr.DeltaEnabled {
				t.Errorf("%s %s: guarded Δ off (%v)", ue.name, c.name, tr.BranchModes)
			}
			for _, tu := range out.Tuples {
				if !c.ok(tu[0].AsInt(), tu[1]) {
					t.Fatalf("%s %s: row %v disagrees with the references", ue.name, c.name, tu)
				}
			}
		}
	}
}

// TestUBUGuardFallsBack: what the guard must refuse stays on full
// evaluation, with its reason in the trace — the PageRank texts, a sum
// under least, an unguarded merge, least over a max, two inner references
// to R — and so does a guarded text under DisableDelta.
func TestUBUGuardFallsBack(t *testing.T) {
	// Bounded: an unguarded relaxation need not converge.
	sssp := strings.Replace(algos.SSSPSQL(0), "s.tid))", "s.tid) maxrecursion 5)", 1)
	cases := []struct {
		name, text, reason string
		disable            bool
	}{
		{"PageRank", algos.PageRankSQL(30, 5, 0.85), "not a select over P and one subquery", false},
		{"PageRank Fig. 3", algos.PageRankFig3SQL(30, 5, 0.85), "not a select over P and one subquery", false},
		{"sum under least", strings.Replace(sssp, "min(dist + ew)", "sum(dist + ew)", 1), "s.nd is not min(…) under least", false},
		{"unguarded", strings.Replace(sssp, "least(D.dist, s.nd)", "s.nd", 1), "column dist: not guarded", false},
		{"least over max", strings.Replace(sssp, "min(dist + ew)", "max(dist + ew)", 1), "s.nd is not min(…) under least", false},
		{"old value second", strings.Replace(sssp, "least(D.dist, s.nd)", "least(s.nd, D.dist)", 1), "does not merge the old D.dist", false},
		{"two inner references", strings.Replace(sssp, "min(dist + ew) nd from D, E where D.ID = E.F",
			"min(D.dist + ew) nd from D, E, D D2 where D.ID = E.F and D2.ID = E.T", 1), "reads D 2 times", false},
		{"delta disabled", sssp, "delta evaluation disabled", true},
	}
	g := weightedMultiGraph(30, 90, 17)
	for _, c := range cases {
		e := engine.New(engine.OracleLike())
		e.DisableDelta = c.disable
		loadGraphDB(t, e, g)
		_, tr, err := Run(e, c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(tr.BranchModes) != 1 || !strings.Contains(tr.BranchModes[0], "full evaluation") || !strings.Contains(tr.BranchModes[0], c.reason) {
			t.Errorf("%s: branch modes %v, want full evaluation (%s)", c.name, tr.BranchModes, c.reason)
		}
		if tr.DeltaEnabled {
			t.Errorf("%s: DeltaEnabled", c.name)
		}
	}
}

// TestUBUDuplicateKeysReadFullR: a seed whose key repeats makes R ⋈ s
// multiply rows, which reading Δ would not; the guarded branch then reads
// all of R, the merge declines, and the run matches full evaluation.
func TestUBUDuplicateKeysReadFullR(t *testing.T) {
	text := `with D(ID, dist) as ((select ID, 0.0 from V where ID = 0) union all (select ID, 1e18 from V)
  union by update ID
  (select D.ID, least(D.dist, s.nd) from D,
     (select E.T tid, min(dist + ew) nd from D, E where D.ID = E.F group by E.T) s
   where D.ID = s.tid) maxrecursion 3) select ID, dist from D`
	g := weightedMultiGraph(12, 30, 21)
	for _, ue := range ubuEngines {
		run := func(full bool) string {
			e := ue.new()
			e.DisableDelta = full
			loadGraphDB(t, e, g)
			p, err := Prepare(e, text)
			if err != nil {
				t.Fatal(err)
			}
			if full {
				defer ra.SetMergeTestMode(ra.MergeOff)()
			}
			out, merged := "", 0
			out, _, merged = ubuOutcome(t, e, p)
			if merged != 0 {
				t.Errorf("%s: the merge ran %d steps over duplicate keys", ue.name, merged)
			}
			return out
		}
		if got, want := run(false), run(true); got != want {
			t.Errorf("%s: duplicate keys: %s", ue.name, firstDiff(got, want))
		}
	}
}

// TestUBUNaNConverges: a value that stays NaN is no change. The relaxation
// below starts every distance at NaN (1e308*10 - 1e308*10) and NaN + ew
// stays NaN, so R never changes: one iteration, no changed rows — with the
// merge and without, on every profile. A change test under which NaN is
// unequal to itself would count every row as changed in every iteration
// and run the loop to maxrecursion.
func TestUBUNaNConverges(t *testing.T) {
	text := `with D(ID, dist) as ((select ID, 1e308*10 - 1e308*10 from V)
  union by update ID
  (select D.ID, least(D.dist, s.nd) from D,
     (select E.T tid, min(dist + ew) nd from D, E where D.ID = E.F group by E.T) s
   where D.ID = s.tid) maxrecursion 50) select ID, dist from D`
	g := weightedMultiGraph(50, 150, 23)
	for _, ue := range ubuEngines {
		for _, mode := range []string{"", ra.MergeOff} {
			restore := ra.SetMergeTestMode(mode)
			e := ue.new()
			loadGraphDB(t, e, g)
			out, tr, err := Run(e, text)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if tr.Iterations != 1 || fmt.Sprint(tr.DeltaRows) != "[0]" {
				t.Errorf("%s (merge mode %q): %d iterations, delta rows %v; want 1, [0]", ue.name, mode, tr.Iterations, tr.DeltaRows)
			}
			for _, tu := range out.Tuples {
				if !math.IsNaN(tu[1].F) {
					t.Fatalf("%s: row %v is no longer NaN", ue.name, tu)
				}
			}
		}
	}
}

// TestUBUMergeGovernor: the keyed merge charges the governor the rows the
// join, projection and union-by-update it replaces do, so the rows charged
// are equal with the merge on and off and a MaxRows budget trips on the same
// statements.
func TestUBUMergeGovernor(t *testing.T) {
	g := weightedMultiGraph(40, 120, 27)
	for _, ue := range ubuEngines[:2] {
		for _, c := range ubuCases(g)[:4] {
			rows := func(mode string, limit int64) (n int64, err error) {
				defer ra.SetMergeTestMode(mode)()
				e := ue.new()
				loadGraphDB(t, e, c.g)
				loadKInit(t, e, c.g.N)
				e.Limits = govern.Limits{MaxRows: limit}
				end := e.BeginStatement(context.Background())
				defer end()
				defer govern.RecoverTo(&err)
				_, _, err = Run(e, c.text)
				return e.Gov().Rows(), err
			}
			merged, err := rows("", 0)
			if err != nil {
				t.Fatal(err)
			}
			unfused, err := rows(ra.MergeOff, 0)
			if err != nil {
				t.Fatal(err)
			}
			if merged != unfused {
				t.Fatalf("%s %s: governor rows %d with the merge, %d without", ue.name, c.name, merged, unfused)
			}
			for _, mode := range []string{"", ra.MergeOff} {
				if _, err := rows(mode, merged); err != nil {
					t.Errorf("%s %s (merge mode %q): a budget of exactly %d rows failed: %v", ue.name, c.name, mode, merged, err)
				}
				for _, limit := range []int64{merged - 1, merged / 2, merged / 5} {
					if _, err := rows(mode, limit); !errors.Is(err, govern.ErrBudgetExceeded) {
						t.Errorf("%s %s (merge mode %q): a budget of %d rows: error %v, want a row budget error", ue.name, c.name, mode, limit, err)
					}
				}
			}
		}
	}
}

// TestUBUMergeExplain: EXPLAIN ANALYZE names the keyed merge and marks the
// inner scan as the Δ frontier; the PostgreSQL-like profile keeps its
// merge join.
func TestUBUMergeExplain(t *testing.T) {
	g := weightedMultiGraph(20, 60, 31)
	for _, ue := range ubuEngines {
		e := ue.new()
		loadGraphDB(t, e, g)
		p, err := Prepare(e, algos.SSSPSQL(0))
		if err != nil {
			t.Fatal(err)
		}
		_, an, err := p.RunAnalyzed()
		p.Cleanup()
		if err != nil {
			t.Fatal(err)
		}
		plan := an.Render()
		if got := strings.Contains(plan, "merge into D by (ID)"); got != ue.merges {
			t.Errorf("%s: merge node %v, want %v:\n%s", ue.name, got, ue.merges, plan)
		}
		if !strings.Contains(plan, "scan D (Δ frontier") {
			t.Errorf("%s: no Δ frontier scan:\n%s", ue.name, plan)
		}
	}
}

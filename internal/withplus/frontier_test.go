package withplus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// frontierTexts are recursions whose step the frontier kernel runs on the
// CSR profiles: the transitive closure under both set operations, the
// benchmark's khop, the delta experiment's REACH, and the MATCH
// (a)-[e]->{1,}(b) and {1,3} lowerings (sql/graphexpand.go), pinned.
var frontierTexts = map[string]string{
	"TC":        algos.TCSQL(0),
	"TC union":  strings.Replace(algos.TCSQL(0), "union all", "union", 1),
	"TC depth3": algos.TCSQL(3),
	"khop":      "with R(T) as ((select distinct T from E where F = 1) union all (select E.T from R, E where R.T = E.F) maxrecursion 3) select T from R",
	"REACH":     "with R(ID) as ((select ID from V where ID = 0) union all (select E.T from R, E where R.ID = E.F)) select ID from R",
	"match {1,}": "with pg__paths(F, T) as ((select F, T from E where F = 2) union all " +
		"(select pg__paths.F, E.T from pg__paths, E where pg__paths.T = E.F)) select T from pg__paths",
	"match {1,3}": "with pg__paths(F, T) as ((select F, T from E where F = 2) union all " +
		"(select pg__paths.F, E.T from pg__paths, E where pg__paths.T = E.F) maxrecursion 2) select T from pg__paths",
}

// frontierEngines are the set-ups a differential compares: the two CSR
// profiles run the kernel; -nocsr (hash join) and the PostgreSQL-like merge
// join run the unfused join and DiffAdd. The merge join emits its rows in
// key order, not the hash join's probe order, so its rows are compared as a
// set (sorted) and only its trace byte for byte.
var frontierEngines = []struct {
	name   string
	new    func() *engine.Engine
	fused  bool
	sorted bool
}{
	{"oracle", func() *engine.Engine { return engine.New(engine.OracleLike()) }, true, false},
	{"db2", func() *engine.Engine { return engine.New(engine.DB2Like()) }, true, false},
	{"oracle -nocsr", func() *engine.Engine {
		e := engine.New(engine.OracleLike())
		e.DisableCSR = true
		return e
	}, false, false},
	{"postgres", func() *engine.Engine { return engine.New(engine.PostgresLike(true)) }, false, true},
}

// sortedRows sorts an outcome's row lines, keeping its trace line first.
func sortedRows(outcome string) string {
	lines := strings.Split(outcome, "\n")
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n")
}

// frontierOutcome renders a run byte for byte — rows in order with their
// kinds, and the trace's iterations, R sizes, Δ sizes and cycle flag — and
// counts the steps the kernel ran.
func frontierOutcome(t *testing.T, e *engine.Engine, text string) (string, int) {
	t.Helper()
	col := obs.NewCollector()
	e.SetObserver(col)
	defer e.SetObserver(nil)
	out, tr, err := Run(e, text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "iterations=%d rows=%v delta=%v cycle=%v\n", tr.Iterations, tr.IterRows, tr.DeltaRows, tr.CycleDetected)
	for _, tu := range out.Tuples {
		for _, v := range tu {
			fmt.Fprintf(&b, "%s:%v ", v.K, v)
		}
		b.WriteByte('\n')
	}
	fused := 0
	for _, sp := range col.Spans() {
		if sp.Op == "join" && strings.Contains(sp.Note, "new rows only") {
			fused++
			if sp.Algo != "csr" || sp.Dur <= 0 {
				t.Errorf("fused join span %+v: want algo csr and a duration", sp)
			}
		}
	}
	return b.String(), fused
}

// multiGraph is a random graph with duplicate edges and self-loops.
func multiGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, true)
	for i := 0; i < m; i++ {
		f := int32(rng.Intn(n))
		g.AddEdge(f, int32(rng.Intn(n)), 1)
		if i%7 == 0 {
			g.AddEdge(f, f, 1)
		}
	}
	for i := 0; i < m/5; i++ {
		e := g.Edges[rng.Intn(len(g.Edges))]
		g.AddEdge(e.F, e.T, e.W)
	}
	return g
}

// TestFrontierLaneMatchesUnfused: every frontier text yields, byte for byte,
// the same rows in the same order, iterations, per-iteration R and Δ sizes
// and cycle flag through the kernel (oracle, db2) as through the unfused
// hash and merge joins, and the kernel ran exactly on the CSR profiles.
func TestFrontierLaneMatchesUnfused(t *testing.T) {
	for gi, g := range []*graph.Graph{cycleGraph(9), multiGraph(40, 120, 3), graph.GenerateDAG(30, 70, 5)} {
		for name, text := range frontierTexts {
			var want string
			for i, fe := range frontierEngines {
				e := fe.new()
				loadGraphDB(t, e, g)
				got, fused := frontierOutcome(t, e, text)
				if i == 0 {
					want = got
				}
				if fe.sorted {
					got, want = sortedRows(got), sortedRows(want)
				}
				if got != want {
					t.Errorf("graph %d, %s, %s differs from oracle:\n%s\nwant\n%s", gi, name, fe.name, got, want)
				}
				if (fused > 0) != fe.fused {
					t.Errorf("graph %d, %s, %s: %d fused steps, want fused=%v", gi, name, fe.name, fused, fe.fused)
				}
			}
		}
	}
}

// TestFrontierLaneTailChains: after rows are appended to the edge table
// its CSR serves them from tail chains, and the kernel walks them in the
// order csrJoin does.
func TestFrontierLaneTailChains(t *testing.T) {
	g := multiGraph(30, 80, 7)
	more := multiGraph(30, 40, 8).EdgeRelation()
	text := frontierTexts["TC depth3"]
	run := func(fe int) (string, int) {
		e := frontierEngines[fe].new()
		loadGraphDB(t, e, g)
		frontierOutcome(t, e, text)
		if err := e.AppendInto("E", more); err != nil {
			t.Fatal(err)
		}
		if fe == 0 {
			csr, _ := e.OpenBuildSide("E", engine.CachedCSR, []int{0}, 1)
			if csr == nil || len(csr.TailRows) != more.Len() {
				t.Fatalf("the appended rows are not in the CSR's tail chains: %+v", csr)
			}
		}
		return frontierOutcome(t, e, text)
	}
	got, fused := run(0)
	want, _ := run(2)
	if fused == 0 {
		t.Error("the kernel did not run over the extended CSR")
	}
	if got != want {
		t.Errorf("over tail chains the kernel differs from the hash join:\n%s\nwant\n%s", got, want)
	}
}

// edgeTable loads E(F, T) from pairs of values.
func edgeTable(t *testing.T, e *engine.Engine, kind value.Kind, pairs ...[2]value.Value) {
	t.Helper()
	r := relation.New(schema.Schema{{Name: "F", Type: kind}, {Name: "T", Type: kind}})
	for _, p := range pairs {
		r.AppendVals(p[0], p[1])
	}
	if _, err := e.LoadBase("E", r); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierLaneKeys: string keys run through the kernel; a target
// column that mixes Int and Float spellings of one value (or holds a NaN)
// makes the kernel decline — the dictionary would merge spellings the
// unfused DISTINCT keeps apart in first-seen order — and every set-up
// still agrees byte for byte.
func TestFrontierLaneKeys(t *testing.T) {
	s := value.Str
	i, f := value.Int, value.Float
	for _, c := range []struct {
		name  string
		kind  value.Kind
		pairs [][2]value.Value
		fused bool
	}{
		{"strings", value.KindString, [][2]value.Value{{s("a"), s("b")}, {s("b"), s("c")}, {s("c"), s("a")}, {s("b"), s("b")}, {s("a"), s("b")}, {s("c"), value.Null}}, true},
		{"int and float", value.KindInt, [][2]value.Value{{i(1), i(2)}, {i(2), f(3)}, {i(2), i(3)}, {f(3), i(1)}, {i(3), f(2)}}, false},
		{"float NaN", value.KindFloat, [][2]value.Value{{f(1), f(2)}, {f(2), value.Float(math.NaN())}, {f(2), f(1)}}, false},
	} {
		for _, text := range []string{
			"with TC(F, T) as ((select F, T from E) union all (select TC.F, E.T from TC, E where TC.T = E.F) maxrecursion 5) select F, T from TC",
			"with R(T) as ((select T from E) union (select E.T from R, E where R.T = E.F) maxrecursion 5) select T from R",
		} {
			var want string
			for n, fe := range frontierEngines {
				e := fe.new()
				edgeTable(t, e, c.kind, c.pairs...)
				got, fused := frontierOutcome(t, e, text)
				if n == 0 {
					want = got
				}
				if fe.sorted {
					got, want = sortedRows(got), sortedRows(want)
				}
				if got != want {
					t.Errorf("%s, %s: %s differs from oracle:\n%s\nwant\n%s", c.name, text, fe.name, got, want)
				}
				if (fused > 0) != (fe.fused && c.fused) {
					t.Errorf("%s, %s: %s ran %d fused steps, want fused=%v", c.name, text, fe.name, fused, fe.fused && c.fused)
				}
			}
		}
	}
}

// TestFrontierCycleIgnoresInBatchDuplicates: a step that derives one new
// row twice (a duplicate edge) and re-derives nothing already in R raises
// no cycle, through the kernel and unfused alike; the 3-cycle of
// TestCycleDetection does.
func TestFrontierCycleIgnoresInBatchDuplicates(t *testing.T) {
	dup := graph.New(3, true)
	dup.AddEdge(0, 1, 1)
	dup.AddEdge(1, 2, 1)
	dup.AddEdge(1, 2, 1)
	tri := graph.New(3, true)
	tri.AddEdge(0, 1, 1)
	tri.AddEdge(1, 2, 1)
	tri.AddEdge(2, 0, 1)
	for _, fe := range frontierEngines {
		for _, c := range []struct {
			g     *graph.Graph
			cycle bool
		}{{dup, false}, {tri, true}} {
			e := fe.new()
			loadGraphDB(t, e, c.g)
			_, tr, err := Run(e, algos.TCSQL(0))
			if err != nil {
				t.Fatal(err)
			}
			if tr.CycleDetected != c.cycle {
				t.Errorf("%s, %d edges: CycleDetected %v, want %v (trace %+v)", fe.name, len(c.g.Edges), tr.CycleDetected, c.cycle, tr)
			}
		}
	}
}

// TestFrontierGovernor: the kernel charges the governor what the join it
// replaces does — one row per frontier row — so a MaxRows budget trips on
// the same statements through the kernel and unfused.
func TestFrontierGovernor(t *testing.T) {
	g := multiGraph(40, 120, 11)
	text := frontierTexts["TC"]
	rows := func(fe int, limit int64) (n int64, err error) {
		e := frontierEngines[fe].new()
		loadGraphDB(t, e, g)
		e.Limits = govern.Limits{MaxRows: limit}
		end := e.BeginStatement(context.Background())
		defer end()
		defer govern.RecoverTo(&err)
		_, _, err = Run(e, text)
		return e.Gov().Rows(), err
	}
	fused, err := rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := rows(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fused != hash {
		t.Fatalf("governor rows: kernel %d, hash join %d", fused, hash)
	}
	for _, fe := range []int{0, 2} {
		if _, err := rows(fe, fused); err != nil {
			t.Errorf("%s: a budget of exactly %d rows failed: %v", frontierEngines[fe].name, fused, err)
		}
		if _, err := rows(fe, fused-1); !errors.Is(err, govern.ErrBudgetExceeded) {
			t.Errorf("%s: a budget of %d rows: error %v, want a row budget error", frontierEngines[fe].name, fused-1, err)
		}
	}
}

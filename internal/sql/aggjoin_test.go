package sql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/value"
)

// TestAggJoinRule: which join + group-by blocks fold into one agg-join, and
// how EXPLAIN labels them. D(F, T, ew) is a float-weighted base table.
func TestAggJoinRule(t *testing.T) {
	const via = " via csr"
	for _, tc := range []struct {
		query, want string // want: the agg-join label, "" when the block must not fold
	}{
		{"select b.T, min(a.ew + b.ew) d from D a, D b where a.T = b.F group by b.T",
			"agg-join on (a.T = b.F) group by b.T min(a.ew + b.ew)" + via},
		{"select b.T, sum(a.ew * b.ew) from D a, D b where a.T = b.F group by b.T",
			"agg-join on (a.T = b.F) group by b.T sum(a.ew * b.ew)" + via},
		{"select b.T, max(b.ew * a.ew) from D a, D b where b.F = a.T group by b.T",
			"agg-join on (b.F = a.T) group by b.T max(b.ew * a.ew)" + via},
		{"select b.T, 2 * min(a.ew * b.ew) + 1 from D a, D b where a.T = b.F group by b.T",
			"agg-join on (a.T = b.F) group by b.T min(a.ew * b.ew)" + via},
		{"select b.T, min(a.w + b.ew) from (select T, ew w from D where F < 15) a, D b where a.T = b.F group by b.T",
			"agg-join on (a.T = b.F) group by b.T min(a.w + b.ew)" + via},
		// Not one aggregate ⊕(p ⊗ b) over a semiring.
		{"select b.T, max(a.ew + b.ew) from D a, D b where a.T = b.F group by b.T", ""},
		{"select b.T, sum(a.ew + b.ew) from D a, D b where a.T = b.F group by b.T", ""},
		{"select b.T, avg(a.ew * b.ew) from D a, D b where a.T = b.F group by b.T", ""},
		{"select b.T, count(*) from D a, D b where a.T = b.F group by b.T", ""},
		{"select b.T, min(a.ew + b.ew), count(*) from D a, D b where a.T = b.F group by b.T", ""},
		{"select b.T, min(a.ew + a.F) from D a, D b where a.T = b.F group by b.T", ""},
		{"select b.T, min(a.ew + b.ew * 2) from D a, D b where a.T = b.F group by b.T", ""},
		// Not the build side's other endpoint, or not one group key.
		{"select a.F, min(a.ew + b.ew) from D a, D b where a.T = b.F group by a.F", ""},
		{"select b.F, min(a.ew + b.ew) from D a, D b where a.T = b.F group by b.F", ""},
		{"select b.T, b.ew, min(a.ew + b.ew) from D a, D b where a.T = b.F group by b.T, b.ew", ""},
		// HAVING, a residual filter, a second join key, a non-catalog build side.
		{"select b.T, min(a.ew + b.ew) from D a, D b where a.T = b.F group by b.T having min(a.ew + b.ew) > 1", ""},
		{"select b.T, min(a.ew + b.ew) from D a, D b where a.T = b.F and a.ew > 0.5 group by b.T", ""},
		{"select b.T, min(a.ew + b.ew) from D a, D b where a.T = b.F and a.F = b.T group by b.T", ""},
		{"select b.T, min(a.ew + b.ew) from D a, (select F, T, ew from D) b where a.T = b.F group by b.T", ""},
		{"select b.T, min(a.ew + b.ew) from D a, D b where a.T = b.F and b.F = 3 group by b.T", ""},
	} {
		x := planExec(t, graphDB(t, engine.OracleLike(), 30, 120, 7))
		text := explain(t, x, tc.query)
		if got := strings.Contains(text, "agg-join"); got != (tc.want != "") || tc.want != "" && !strings.Contains(text, "-> "+tc.want+"\n") {
			t.Errorf("%s\nplanned:\n%swant agg-join label %q", tc.query, text, tc.want)
		}
	}
	// The hash-index path under -nocsr; the PostgreSQL-like profile keeps
	// its merge join and group-by.
	q := "select b.T, min(a.ew + b.ew) from D a, D b where a.T = b.F group by b.T"
	e := graphDB(t, engine.OracleLike(), 30, 120, 7)
	e.DisableCSR = true
	if text := explain(t, planExec(t, e), q); !strings.HasPrefix(text, "-> agg-join on (a.T = b.F) group by b.T min(a.ew + b.ew) via hash index\n") {
		t.Errorf("-nocsr planned:\n%s", text)
	}
	for _, prof := range []engine.Profile{engine.PostgresLike(true), engine.PostgresLike(false)} {
		if text := explain(t, planExec(t, graphDB(t, prof, 30, 120, 7)), q); strings.Contains(text, "agg-join") {
			t.Errorf("%s planned an agg-join:\n%s", prof.Name, text)
		}
	}
}

// aggJoinTemplates are the four semiring shapes, each over the probe
// table P(ID, x) and the build table Q(F, T, w).
var aggJoinTemplates = []string{"min(a.x + b.w)", "sum(a.x * b.w)", "max(b.w * a.x)", "min(a.x * b.w)"}

// aggJoinDB loads P and Q with random rows whose operands are drawn from
// dom; keys range over [0, keys).
func aggJoinDB(t *testing.T, prof engine.Profile, noCSR bool, rng *rand.Rand, dom []value.Value, keys int) *engine.Engine {
	t.Helper()
	e := engine.New(prof)
	e.DisableCSR = noCSR
	p := relation.New(schema.Schema{{Name: "ID", Type: value.KindInt}, {Name: "x", Type: value.KindFloat}})
	for i := 0; i < 40; i++ {
		p.AppendVals(value.Int(int64(rng.Intn(keys))), dom[rng.Intn(len(dom))])
	}
	q := relation.New(schema.Schema{{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt}, {Name: "w", Type: value.KindFloat}})
	for i := 0; i < 120; i++ {
		q.AppendVals(value.Int(int64(rng.Intn(keys))), value.Int(int64(rng.Intn(keys))), dom[rng.Intn(len(dom))])
	}
	for name, r := range map[string]*relation.Relation{"P": p, "Q": q} {
		if _, err := e.LoadBase(name, r); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// bitRows renders a relation's rows in order, floats by their bits — every
// NaN as NaN: which NaN a sum or product of two NaNs returns is the
// compiler's choice of operand order, not the plan's.
func bitRows(r *relation.Relation) string {
	var b strings.Builder
	for _, tu := range r.Tuples {
		for _, v := range tu {
			switch {
			case v.K == value.KindFloat && math.IsNaN(v.F):
				b.WriteString("NaN ")
			case v.K == value.KindFloat:
				fmt.Fprintf(&b, "f%016x ", math.Float64bits(v.F))
			default:
				fmt.Fprintf(&b, "%v ", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestAggJoinMatchesUnfolded: an agg-join returns the rows, in the order
// and to the bit, of the same block with the build side behind a subquery —
// which does not fold, so it runs the join and the group-by. On all-float
// operands the fold runs (CSR float lane, or the hash index under -nocsr);
// with a NULL or an integer operand, or a float group key, the node runs
// the join and group-by it replaced and says so.
func TestAggJoinMatchesUnfolded(t *testing.T) {
	floats := []value.Value{value.Float(0.5), value.Float(1.25), value.Float(-2), value.Float(math.Copysign(0, -1)),
		value.Float(0), value.Float(math.Inf(1)), value.Float(math.NaN())}
	mixed := append([]value.Value{value.Null, value.Int(2)}, floats...)
	rng := rand.New(rand.NewSource(32))
	for _, cfg := range []struct {
		name  string
		prof  engine.Profile
		noCSR bool
	}{{"oracle", engine.OracleLike(), false}, {"oracle -nocsr", engine.OracleLike(), true}, {"db2", engine.DB2Like(), false}} {
		for trial := 0; trial < 12; trial++ {
			dom, folds := floats, true
			if trial%3 == 2 {
				dom, folds = mixed, false
			}
			e := aggJoinDB(t, cfg.prof, cfg.noCSR, rng, dom, 3+trial)
			x := NewExec(e)
			// The last shape folds a tail source onto a multiway core that
			// precedes it in the plan but not in FROM: the join restores
			// FROM order (joinPlan.restore), which the fold never reads. It
			// runs on the sparser graphs only: over three keys the core
			// alone has ~60 000 triangles.
			shapes := []string{"from P a, %s b where a.ID = b.F group by b.T"}
			if trial >= 9 {
				shapes = append(shapes, "from %s b, Q e1, Q e2, Q e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F and b.F = e1.F group by b.T")
			}
			for i, agg := range aggJoinTemplates {
				shape := shapes[i%len(shapes)]
				if i%len(shapes) == 1 {
					agg = strings.ReplaceAll(agg, "a.x", "e1.w")
				}
				q := "select b.T, " + agg + " " + fmt.Sprintf(shape, "Q")
				ref := "select b.T, " + agg + " " + fmt.Sprintf(shape, "(select F, T, w from Q)")
				got, plan, err := x.RunAnalyzed(mustParse(t, q))
				if err != nil {
					t.Fatal(err)
				}
				node := plan.Find("agg-join")
				if node == nil || strings.HasSuffix(node.Label, " (not folded)") == folds {
					t.Fatalf("%s trial %d %s: folded=%v wanted, plan:\n%s", cfg.name, trial, q, folds, plan.Render())
				}
				if want := mustRun(t, x, ref); bitRows(got) != bitRows(want) {
					t.Errorf("%s trial %d %s:\n got %s\nwant %s", cfg.name, trial, q, bitRows(got), bitRows(want))
				}
			}
		}
	}
	// A float in the group column: the dictionary's first spelling of 1
	// (Int) is not the first one the join meets (Float), so the node does
	// not fold.
	e := engine.New(engine.OracleLike())
	p := relation.New(schema.Schema{{Name: "ID", Type: value.KindInt}, {Name: "x", Type: value.KindFloat}})
	p.AppendVals(value.Int(1), value.Float(0.5))
	p.AppendVals(value.Int(0), value.Float(0.25))
	q := relation.New(schema.Schema{{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindFloat}, {Name: "w", Type: value.KindFloat}})
	q.AppendVals(value.Int(0), value.Int(1), value.Float(1))
	q.AppendVals(value.Int(1), value.Float(1), value.Float(2))
	for name, r := range map[string]*relation.Relation{"P": p, "Q": q} {
		if _, err := e.LoadBase(name, r); err != nil {
			t.Fatal(err)
		}
	}
	x := NewExec(e)
	got, plan, err := x.RunAnalyzed(mustParse(t, "select b.T, min(a.x + b.w) from P a, Q b where a.ID = b.F group by b.T"))
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.Find("agg-join"); n == nil || !strings.HasSuffix(n.Label, " (not folded)") {
		t.Errorf("float group key folded:\n%s", plan.Render())
	}
	if rows := bitRows(got); rows != "f3ff0000000000000 f3ff4000000000000 \n" {
		t.Errorf("float group key: got %q", rows)
	}
}

// TestAggJoinAccounting: the folded statement counts one join and one
// group-by and materializes no join intermediate; its governor rows — one
// per probe row — equal engine.MVJoin's for the same inputs, and a MaxRows
// budget below them trips it; its span names the float lane.
func TestAggJoinAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := aggJoinDB(t, engine.OracleLike(), false, rng, []value.Value{value.Float(0.5), value.Float(2)}, 10)
	x := NewExec(e)
	q := mustParse(t, "select b.T, sum(a.x * b.w) from P a, Q b where a.ID = b.F group by b.T")
	run := func(f func() error) (rows int64, err error) {
		end := e.BeginStatement(context.Background())
		defer end()
		err = f()
		return e.Gov().Rows(), err
	}
	sink := obs.NewCollector()
	e.SetObserver(sink)
	before := e.Cnt.Snapshot()
	var folded *relation.Relation
	sqlRows, err := run(func() (err error) { folded, err = x.Run(q); return err })
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(nil)
	after := e.Cnt.Snapshot()
	if d := after.Joins - before.Joins; d != 1 {
		t.Errorf("joins counted %d, want 1", d)
	}
	if d := after.GroupBys - before.GroupBys; d != 1 {
		t.Errorf("group-bys counted %d, want 1", d)
	}
	if d := after.TuplesMaterialized - before.TuplesMaterialized; d != 0 {
		t.Errorf("materialized %d join tuples, want 0", d)
	}
	var algo string
	for _, sp := range sink.Spans() {
		if sp.Op == "agg-join" {
			algo = sp.Algo
		}
	}
	if algo != "fused-csr f64" {
		t.Errorf("agg-join span algo %q, want fused-csr f64 (spans %+v)", algo, sink.Spans())
	}

	pt, _ := e.Cat.Get("P")
	qt, _ := e.Cat.Get("Q")
	var mv *relation.Relation
	mvRows, err := run(func() (err error) {
		mv, err = e.MVJoin(qt, pt, ra.MatCols{F: 0, T: 1, W: 2}, ra.VecCols{ID: 0, W: 1}, 0, 1, semiring.PlusTimes())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if sqlRows != mvRows || sqlRows != int64(pt.Rows()) {
		t.Errorf("governor rows: agg-join %d, MVJoin %d, probe rows %d", sqlRows, mvRows, pt.Rows())
	}
	if bitRows(folded) != bitRows(mv) {
		t.Errorf("agg-join and MVJoin disagree:\n%s\n%s", bitRows(folded), bitRows(mv))
	}

	e.Limits = govern.Limits{MaxRows: sqlRows - 1}
	defer func() { e.Limits = govern.Limits{} }()
	if _, err := run(func() error { _, err := x.Run(q); return err }); !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Errorf("MaxRows %d: error %v, want a row budget error", sqlRows-1, err)
	}
}

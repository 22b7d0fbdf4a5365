package sql

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Exec evaluates SELECT statements against an engine's catalog. Override
// maps names to in-flight relations (the recursive working table and
// computed-by deltas the WITH+ runtime maintains); overrides shadow catalog
// tables and always count as statistics-free temporaries for plan choice.
type Exec struct {
	Eng      *engine.Engine
	Override map[string]*relation.Relation

	// Delta marks Override entries that bind a semi-naive Δ frontier in
	// place of the full recursive relation. It changes nothing about
	// resolution — only the scan label, so EXPLAIN shows which scans read
	// the frontier.
	Delta map[string]bool

	// The statement RunFrontier is running: its frontier root, the set its
	// rows go into, and what the kernel found when it ran.
	fuse     *planNode
	frontier *ra.TupleSet
	fused    *ra.FrontierStats

	// The statement RunUBU is running: its keyed-merge target, its merge
	// root, and what the merge did when it ran.
	ubu     *UBUMerge
	mergeAt *planNode
	merged  *MergeStats
}

// NewExec returns an executor over eng.
func NewExec(eng *engine.Engine) *Exec {
	return &Exec{Eng: eng, Override: map[string]*relation.Relation{}, Delta: map[string]bool{}}
}

// Run evaluates a (possibly compound) statement.
func (x *Exec) Run(s *SelectStmt) (*relation.Relation, error) {
	p, err := x.plan(s)
	if err != nil {
		return nil, err
	}
	r, _, err := x.execute(p, false)
	return r, err
}

// RunAnalyzed evaluates the statement and also returns the executed plan
// tree annotated with actual output rows and per-node wall time — the
// EXPLAIN ANALYZE mode.
func (x *Exec) RunAnalyzed(s *SelectStmt) (*relation.Relation, *obs.PlanNode, error) {
	p, err := x.plan(s)
	if err != nil {
		return nil, nil, err
	}
	return x.execute(p, true)
}

// RunFrontier evaluates a WITH+ union or union all branch whose rows go
// into set, the recursion's semi-naive set, with or without analyze (as Run
// and RunAnalyzed). When the plan's frontier root runs as ra's frontier
// kernel, the rows returned are only those not yet in set — already added to
// it — and fused reports what the kernel found; fused is nil when the
// statement ran unfused, and the caller diffs its rows against set.
func (x *Exec) RunFrontier(s *SelectStmt, set *ra.TupleSet, analyze bool) (r *relation.Relation, plan *obs.PlanNode, fused *ra.FrontierStats, err error) {
	p, err := x.plan(s)
	if err != nil {
		return nil, nil, nil, err
	}
	x.fuse, x.frontier, x.fused = frontierRoot(p, set), set, nil
	defer func() { x.fuse, x.frontier, x.fused = nil, nil, nil }()
	r, plan, err = x.execute(p, analyze)
	return r, plan, x.fused, err
}

// frontierRoot is the node of p the frontier kernel may replace: the plan
// root — under projections that pass its rows through — when it is an
// equi-join over a cached CSR on a single key whose kept columns are left
// columns and exactly one column of the right table, as many as set's rows
// are wide. Whether the kernel runs is decided when the node executes
// (frontierJoin).
func frontierRoot(p *planNode, set *ra.TupleSet) *planNode {
	if set == nil {
		return nil
	}
	for p.op == opProject && p.passthrough {
		p = p.kids[0]
	}
	j := p.join
	if p.op != opEquiJoin || j.algo != ra.HashJoin || j.path != engine.CachedCSR || len(j.rCols) != 1 ||
		j.restore != nil || len(j.keep) != set.Arity() {
		return nil
	}
	right := 0
	for _, c := range j.keep {
		if c >= p.kids[0].sch.Arity() {
			right++
		}
	}
	if right != 1 {
		return nil
	}
	return p
}

// execute runs the plan bottom-up and is, with the kernel helpers it calls,
// the only code that invokes relational operators. With analyze it also
// builds the annotated tree: one obs node per plan node under the node's
// own label plus whatever only the run could tell, timed around the node's
// own work (inputs excluded). Off, no obs node is allocated and the clock
// is read only for a join whose span an attached observer wants.
func (x *Exec) execute(n *planNode, analyze bool) (*relation.Relation, *obs.PlanNode, error) {
	if n == x.mergeAt {
		return x.keyedMerge(n, analyze)
	}
	var buf [3]*relation.Relation
	ins := buf[:0]
	var kids []*obs.PlanNode
	for _, k := range n.kids {
		r, kp, err := x.execute(k, analyze)
		if err != nil {
			return nil, nil, err
		}
		ins = append(ins, r)
		if analyze {
			kids = append(kids, kp)
		}
	}
	var t0 time.Time
	if analyze || (n.op == opEquiJoin || n.op == opMultiway || n.op == opAggJoin) && x.Eng.Observing() {
		t0 = time.Now()
	}
	out, note, err := x.apply(n, ins, t0)
	if err != nil || !analyze {
		return out, nil, err
	}
	if n.op == opProject {
		return out, kids[0], nil
	}
	return out, obs.NewPlanNode(n.label(false)+note, int64(out.Len()), time.Since(t0), kids...), nil
}

// apply runs one node over its already-computed inputs. note is the
// run-time annotation for the analyzed label: which kernel path ran.
func (x *Exec) apply(n *planNode, ins []*relation.Relation, t0 time.Time) (out *relation.Relation, note string, err error) {
	switch n.op {
	case opValues:
		out = relation.New(schema.Schema{})
		out.Append(relation.Tuple{})
		return out, "", nil
	case opScan:
		rel := n.over
		if n.tab != nil {
			if l := n.lookup; l != nil {
				rel, err = x.Eng.Lookup(n.ref.Name, l.path, l.col, l.key)
			} else {
				rel, err = x.Eng.Rel(n.ref.Name)
			}
			if err != nil {
				return nil, "", err
			}
			if !rel.Sch.Equal(n.sch) {
				return nil, "", fmt.Errorf("sql: table %s changed shape while the statement was planned", n.ref.Name)
			}
		}
		// Re-qualified under the alias (ρ) without copying tuples.
		return &relation.Relation{Sch: n.sch, Tuples: rel.Tuples}, "", nil
	case opSubquery:
		return &relation.Relation{Sch: n.sch, Tuples: ins[0].Tuples}, "", nil
	case opOuterJoin:
		if n.ref.Kind == JoinLeftOuter {
			out = ra.LeftOuterJoin(ins[0], ins[1], n.join.lCols, n.join.rCols, x.Eng.Gov())
		} else {
			out = ra.FullOuterJoin(ins[0], ins[1], n.join.lCols, n.join.rCols, x.Eng.Gov())
		}
	case opEquiJoin:
		out, note = x.equiJoin(n, ins[0], ins[1], t0)
	case opProduct:
		out = ra.Product(ins[0], ins[1])
	case opMultiway:
		out = x.multiwayJoin(n, ins, t0)
	case opFilter:
		return x.filter(ins[0], n.pred, n.vec)
	case opAggregate:
		return x.aggregate(n, ins[0])
	case opAggJoin:
		return x.aggJoin(n, ins, t0)
	case opProject:
		if n.passthrough {
			return &relation.Relation{Sch: n.sch, Tuples: ins[0].Tuples}, "", nil
		}
		out, err = x.project(n, ins[0])
		return out, "", err
	case opDistinct:
		return ra.Distinct(ins[0]), "", nil
	case opSort:
		desc := make([]bool, len(n.sortCols))
		for i, o := range n.stmt.OrderBy {
			desc[i] = o.Desc
		}
		return ra.OrderBy(ins[0], n.sortCols, desc), "", nil
	case opLimit:
		return ra.Limit(ins[0], n.stmt.Limit), "", nil
	case opSetOp:
		switch n.stmt.SetOp {
		case "union all":
			out = ra.UnionAll(ins[0], ins[1])
		case "union":
			out = ra.Union(ins[0], ins[1])
		case "except":
			out = ra.Difference(ra.Distinct(ins[0]), ins[1])
		default:
			out = ra.Intersect(ins[0], ins[1])
		}
		return out, "", nil
	}
	// Every join materializes an intermediate.
	if err := x.Eng.ChargeMaterialized(out); err != nil {
		return nil, "", err
	}
	if n.join.restore != nil {
		out = ra.ProjectCols(out, n.join.restore)
	}
	return out, note, nil
}

// equiJoin runs one binary equi-join step. The build-side structure the
// planner chose is opened here — built once per table version and extended
// in place on appends, so the recursive loop's immutable build sides never
// rebuild. The frontier root runs as the frontier kernel when it can
// (frontierJoin); note then labels it.
func (x *Exec) equiJoin(n *planNode, l, r *relation.Relation, t0 time.Time) (*relation.Relation, string) {
	j := n.join
	spec := ra.EquiJoinSpec{LeftCols: j.lCols, RightCols: j.rCols, Algo: j.algo, Keep: j.keep, Gov: x.Eng.Gov()}
	if x.Eng.Observing() {
		spec.Span = &obs.Span{Op: "join", Algo: j.algo.String(), Note: "sql equi-join", Start: t0}
	}
	var out *relation.Relation
	note := ""
	switch {
	case n == x.fuse:
		out, note = x.frontierJoin(n, l, r, &spec)
	case j.path != engine.FreshBuild:
		spec.RightCSR, spec.RightHash = x.Eng.OpenBuildSide(n.kids[1].ref.Name, j.path, j.rCols, -1)
	}
	if out == nil {
		out = ra.EquiJoin(l, r, spec)
	}
	x.Eng.CountJoin()
	if sp := spec.Span; sp != nil {
		sp.LeftRows, sp.RightRows, sp.OutRows = int64(l.Len()), int64(r.Len()), int64(out.Len())
		sp.BytesMaterialized = int64(out.Len()) * int64(out.Sch.Arity()) * 16
		sp.Dur = time.Since(t0)
		x.Eng.Emit(*sp)
	}
	return out, note
}

// frontierJoin runs the frontier root through the frontier kernel over the
// one structure it opens, the table's cached CSR on (key, target) — with any
// weight column, so an agg-join's (F, T, ew) CSR serves it. The kernel
// declines when the target dictionary holds a float (equal values could be
// spelled apart); out is then nil and spec reads the same CSR, whose rows
// csrJoin joins as the planned path would.
func (x *Exec) frontierJoin(n *planNode, l, r *relation.Relation, spec *ra.EquiJoinSpec) (*relation.Relation, string) {
	j := n.join
	nl := n.kids[0].sch.Arity()
	fs := ra.FrontierSpec{LeftCol: j.lCols[0], Out: make([]int, len(j.keep)), Sch: n.sch, Gov: spec.Gov}
	target := -1
	for i, c := range j.keep {
		fs.Out[i] = c
		if c >= nl {
			fs.Out[i], target = -1, c-nl
		}
	}
	csr, _ := x.Eng.OpenBuildSide(n.kids[1].ref.Name, engine.CachedCSR, j.rCols, target)
	spec.RightCSR = csr
	if csr == nil || !csr.Covers(r) {
		return nil, ""
	}
	out, st, ok := x.frontier.Frontier(l, csr, fs)
	if !ok {
		return nil, ""
	}
	x.fused = &st
	if spec.Span != nil {
		spec.Span.Algo = "csr"
		spec.Span.Note = "sql equi-join, new rows only"
	}
	return out, ", new rows only"
}

// aggJoin runs an agg-join node: the fused MV-join over the build table's
// planned access path when the data is foldable exactly (engine.AggJoin),
// else the equi-join and the aggregate the node replaced, noted " (not
// folded)". The fold charges the governor what the join it replaces does —
// one row per probe row — and the bytes of its grouped output, as the
// vectorized aggregate does; it materializes no join intermediate.
func (x *Exec) aggJoin(n *planNode, ins []*relation.Relation, t0 time.Time) (*relation.Relation, string, error) {
	f := n.fold
	var sp *obs.Span
	if x.Eng.Observing() {
		sp = &obs.Span{Op: "agg-join", Note: "sql agg-join", Start: t0}
	}
	out, ok, err := x.Eng.AggJoin(n.kids[1].ref.Name, f.path, ins[0], f.build, f.probe, f.build.F, f.build.T, f.sr, !f.inexact, sp)
	if err != nil {
		return nil, "", err
	}
	if ok {
		out.Sch = n.sch
		return out, "", x.Eng.Gov().ChargeBytes(int64(out.Len()) * int64(out.Sch.Arity()) * 16)
	}
	joined, _, err := x.apply(f.unfolded.kids[0], ins, t0)
	if err != nil {
		return nil, "", err
	}
	out, _, err = x.aggregate(f.unfolded, joined)
	return out, " (not folded)", err
}

// multiwayJoin runs the cyclic core through the worst-case-optimal join.
// A node with a folded count(*) counts the join instead and returns the
// aggregate's one row.
func (x *Exec) multiwayJoin(n *planNode, ins []*relation.Relation, t0 time.Time) *relation.Relation {
	wp := n.join.wcoj
	atoms := make([]ra.WCOJAtom, len(wp.Atoms))
	for k, ap := range wp.Atoms {
		atoms[k] = ra.WCOJAtom{Rel: ins[k], VarCols: ap.VarCols}
		if ap.CSR {
			sc, dc, _ := ap.csrShape()
			atoms[k].CSR, _ = x.Eng.OpenBuildSide(n.kids[k].ref.Name, engine.CachedCSR, []int{sc}, dc)
		}
	}
	out, stats := ra.WCOJ(ra.WCOJSpec{Atoms: atoms, NumVars: wp.NumVars, Order: wp.Order, Gov: x.Eng.Gov(), Count: n.agg != nil})
	x.Eng.CountWCOJ(stats.Builds, stats.Probes)
	if n.agg != nil {
		row := make(relation.Tuple, len(n.agg.calls))
		for i := range row {
			row[i] = value.Int(stats.Tuples)
		}
		out = relation.New(n.sch)
		out.Append(row)
	}
	if x.Eng.Observing() {
		sp := obs.Span{Op: "join", Algo: "wcoj", Note: "sql multiway generic join", Start: t0, OutRows: int64(out.Len()), Dur: time.Since(t0)}
		sp.BytesMaterialized = int64(out.Len()) * int64(out.Sch.Arity()) * 16
		x.Eng.Emit(sp)
	}
	return out
}

// filter keeps the rows satisfying pred, through the selection-vector
// kernels or the row closures as planned.
func (x *Exec) filter(in *relation.Relation, pred Expr, vec bool) (*relation.Relation, string, error) {
	if !vec {
		p, err := x.compilePred(pred, in.Sch)
		if err != nil {
			return nil, "", err
		}
		out, err := ra.Select(in, p)
		return out, "", err
	}
	p, fellBack, err := x.compileVecPred(pred, in.Sch)
	if err != nil {
		return nil, "", err
	}
	out, err := x.selectVec(in, p, fellBack)
	return out, vecPathNote(fellBack), err
}

// project evaluates the select list; the output columns are the planned
// ones ("*" expands to the input's).
func (x *Exec) project(n *planNode, in *relation.Relation) (*relation.Relation, error) {
	var vouts []ra.VecOutCol
	var outs []ra.OutCol
	fellBack := false
	for _, it := range n.items {
		if it.Star {
			for ci := range in.Sch {
				if n.vec {
					vouts = append(vouts, ra.VecOutCol{Col: in.Sch[ci], Expr: ra.VecColExpr(ci)})
				} else {
					outs = append(outs, ra.OutCol{Col: in.Sch[ci], Expr: ra.ColExpr(ci)})
				}
			}
			continue
		}
		col := n.sch[len(vouts)+len(outs)]
		if n.vec {
			ex, fb, err := x.compileVecExpr(it.Expr, in.Sch)
			if err != nil {
				return nil, err
			}
			fellBack = fellBack || fb
			vouts = append(vouts, ra.VecOutCol{Col: col, Expr: ex})
		} else {
			ex, err := x.compileExpr(it.Expr, in.Sch)
			if err != nil {
				return nil, err
			}
			outs = append(outs, ra.OutCol{Col: col, Expr: ex})
		}
	}
	if n.vec {
		return x.projectVecOuts(in, vouts, fellBack)
	}
	return ra.Project(in, outs)
}

// aggregate groups the input and applies HAVING; its output is the plan's
// virtual schema (group keys ++ aggregate results), which the project node
// above evaluates the select list over. The vectorized group-by runs when
// planned and its key shape qualifies (zero or one dense integer key
// column — only the data can tell); otherwise the row hash aggregate runs.
func (x *Exec) aggregate(n *planNode, in *relation.Relation) (*relation.Relation, string, error) {
	a := n.agg
	// Computed (non-column) group keys are appended to the input first,
	// under the key columns the plan named.
	var keys []ra.OutCol
	for i, g := range n.stmt.GroupBy {
		if _, ok := g.(*ColRef); ok {
			continue
		}
		ex, err := x.compileExpr(g, in.Sch)
		if err != nil {
			return nil, "", err
		}
		keys = append(keys, ra.OutCol{Col: a.virtual[i], Expr: ex})
	}
	if len(keys) > 0 {
		outs := make([]ra.OutCol, 0, in.Sch.Arity()+len(keys))
		for ci := range in.Sch {
			outs = append(outs, ra.OutCol{Col: in.Sch[ci], Expr: ra.ColExpr(ci)})
		}
		var err error
		if in, err = ra.Project(in, append(outs, keys...)); err != nil {
			return nil, "", err
		}
	}
	aggCols := a.virtual[len(a.groupCols):]
	var grouped *relation.Relation
	note := ""
	if n.vec {
		specs, fellBack, err := x.compileVecAggs(a.calls, a.kinds, aggCols, in.Sch)
		if err != nil {
			return nil, "", err
		}
		g, handled, err := ra.GroupByVec(in, a.groupCols, specs)
		if err != nil {
			return nil, "", err
		}
		note = " (row path)"
		if handled {
			grouped, note = g, vecPathNote(fellBack)
			x.Eng.CountVectorizedBatch(fellBack)
			if err := x.Eng.Gov().ChargeBytes(int64(g.Len()) * int64(g.Sch.Arity()) * 16); err != nil {
				return nil, "", err
			}
		}
	}
	if grouped == nil {
		specs := make([]ra.AggSpec, len(a.calls))
		for i, f := range a.calls {
			var arg ra.Expr
			if !f.Star {
				var err error
				if arg, err = x.compileExpr(f.Args[0], in.Sch); err != nil {
					return nil, "", err
				}
			}
			switch a.kinds[i] {
			case ra.VecSum:
				specs[i] = ra.Sum(aggCols[i], arg)
			case ra.VecMin:
				specs[i] = ra.MinAgg(aggCols[i], arg)
			case ra.VecMax:
				specs[i] = ra.MaxAgg(aggCols[i], arg)
			case ra.VecAvg:
				specs[i] = ra.Avg(aggCols[i], arg)
			default: // count(expr), and count(*) with its nil argument
				specs[i] = ra.Count(aggCols[i], arg)
			}
		}
		var err error
		if grouped, err = ra.GroupBy(in, a.groupCols, specs); err != nil {
			return nil, "", err
		}
	}
	grouped.Sch = a.virtual
	x.Eng.CountGroupBy()
	if a.having != nil {
		var err error
		if grouped, _, err = x.filter(grouped, a.having, n.vec); err != nil {
			return nil, "", err
		}
	}
	return grouped, note, nil
}

func splitAnd(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "and" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

func andJoin(a, b Expr) Expr {
	if a == nil {
		return b
	}
	return &Binary{Op: "and", L: a, R: b}
}

// rewrite applies fn bottom-up, rebuilding nodes whose children changed.
func rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Unary:
		return fn(&Unary{Op: x.Op, X: rewrite(x.X, fn)})
	case *Binary:
		return fn(&Binary{Op: x.Op, L: rewrite(x.L, fn), R: rewrite(x.R, fn)})
	case *FuncCall:
		// Aggregates are replaced whole; do not descend into them first.
		if x.IsAggregate() {
			return fn(x)
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rewrite(a, fn)
		}
		return fn(&FuncCall{Name: x.Name, Args: args, Star: x.Star})
	case *IsNullExpr:
		return fn(&IsNullExpr{X: rewrite(x.X, fn), Negated: x.Negated})
	case *InExpr:
		return fn(&InExpr{X: rewrite(x.X, fn), Sub: x.Sub, List: x.List, Negated: x.Negated})
	default:
		return fn(e)
	}
}

// exprEqual reports structural equality of two expressions (used to match
// select-list subtrees against group-by expressions).
func exprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && x.Table == y.Table && x.Name == y.Name
	case *Lit:
		y, ok := b.(*Lit)
		return ok && x.Val.Equal(y.Val)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L) && exprEqual(x.R, y.R)
	case *FuncCall:
		y, ok := b.(*FuncCall)
		if !ok || x.Name != y.Name || x.Star != y.Star || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !exprEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *IsNullExpr:
		y, ok := b.(*IsNullExpr)
		return ok && x.Negated == y.Negated && exprEqual(x.X, y.X)
	}
	return false
}

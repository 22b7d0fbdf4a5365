package sql

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/ra"
	"repro/internal/relation"
)

// UBUMerge is the keyed-merge target of a WITH+ union-by-update step
// (RunUBU): the recursive table R, its union-by-update key column, and the
// key index over R's rows, which the caller keeps across iterations (the
// merge builds it when it is nil or no longer covers R).
type UBUMerge struct {
	Table string
	Key   int
	Index *ra.KeyIndex
}

// MergeStats is what a keyed merge did when it ran.
type MergeStats struct {
	// Delta is R's changed rows in R order, as UnionByUpdate returns them.
	Delta *relation.Relation
	// Rows is |R ⋈ s|: the rows the statement would have returned.
	Rows int
}

// RunUBU evaluates a WITH+ union-by-update branch whose rows go into m's
// table, with or without analyze (as Run and RunAnalyzed). When the plan's
// merge root (mergeRoot) runs as the keyed merge, the branch's rows are
// already merged into R — only the changed rows written — and merged says
// what changed; r is then nil. merged is nil when the statement ran
// unfused, and the caller runs the union-by-update of r into R.
func (x *Exec) RunUBU(s *SelectStmt, m *UBUMerge, analyze bool) (r *relation.Relation, plan *obs.PlanNode, merged *MergeStats, err error) {
	p, err := x.plan(s)
	if err != nil {
		return nil, nil, nil, err
	}
	x.ubu, x.mergeAt, x.merged = m, mergeRoot(p, m), nil
	defer func() { x.ubu, x.mergeAt, x.merged = nil, nil, nil }()
	r, plan, err = x.execute(p, analyze)
	if x.merged != nil {
		r = nil
	}
	return r, plan, x.merged, err
}

// mergeRoot is the node of p the keyed merge may replace: the plan root when
// it is the select list over a hash join of a full scan of m's table, keyed
// on m's key column alone, with a subtree s — R ⋈ s — whose list has one
// item per column of R and passes R's key column through at its own
// position, so every projected row lands on the R row it came from. Only
// the hash-join profiles plan this join; the PostgreSQL-like profile keeps
// its merge join and full-outer union-by-update. Whether the merge runs is
// decided when the node executes (keyedMerge).
func mergeRoot(p *planNode, m *UBUMerge) *planNode {
	if m == nil || p.op != opProject || len(p.kids[0].kids) != 2 {
		return nil
	}
	j, scan := p.kids[0], p.kids[0].kids[0]
	if j.op != opEquiJoin || j.join.algo != ra.HashJoin || j.join.restore != nil || len(j.join.lCols) != 1 ||
		j.join.lCols[0] != m.Key || scan.fullTable() == nil || scan.ref.Name != m.Table || len(p.items) != scan.sch.Arity() {
		return nil
	}
	for _, it := range p.items {
		if it.Star {
			return nil
		}
	}
	key, ok := p.items[m.Key].Expr.(*ColRef)
	if !ok {
		return nil
	}
	idx, err := j.sch.Resolve(key.Table, key.Name)
	if err == nil && j.join.keep != nil {
		idx = j.join.keep[idx]
	}
	if err != nil || idx != m.Key {
		return nil
	}
	return p
}

// keyedMerge runs the merge root n — the select list over R ⋈ s — as the
// keyed merge: s's rows merged into R through the key index, the select list
// evaluated on each (R row, s row) pair, R's changed rows written in place
// (engine.MergeInto). The join, the projection and the union-by-update it
// replaces are counted and charged to the governor as they would have been;
// the join materializes no intermediate. When the merge declines — R's key
// is not unique, two s rows reach one R row, or R is shared — the join and
// the projection run instead and their rows are returned. With analyze the
// merge renders as one node over the join's two inputs.
func (x *Exec) keyedMerge(n *planNode, analyze bool) (*relation.Relation, *obs.PlanNode, error) {
	j := n.kids[0]
	ins := make([]*relation.Relation, 2)
	var kids []*obs.PlanNode
	for i, k := range j.kids {
		r, kp, err := x.execute(k, analyze)
		if err != nil {
			return nil, nil, err
		}
		ins[i] = r
		kids = append(kids, kp)
	}
	var t0 time.Time
	if analyze || x.Eng.Observing() {
		t0 = time.Now()
	}
	st, err := x.merge(n, ins[0], ins[1])
	if err != nil {
		return nil, nil, err
	}
	if st != nil {
		x.merged = st
		if !analyze {
			return nil, nil, nil
		}
		label := fmt.Sprintf("merge into %s by (%s)", x.ubu.Table, j.kids[0].sch[x.ubu.Key].Name)
		return nil, obs.NewPlanNode(label, int64(st.Delta.Len()), time.Since(t0), kids...), nil
	}
	out, note, err := x.apply(j, ins, t0)
	if err != nil {
		return nil, nil, err
	}
	var jp *obs.PlanNode
	if analyze {
		jp = obs.NewPlanNode(j.label(false)+note, int64(out.Len()), time.Since(t0), kids...)
	}
	out, _, err = x.apply(n, []*relation.Relation{out}, t0)
	return out, jp, err
}

// merge runs the keyed merge of s into r, the rows of R the root scanned, or
// returns nil when it declines.
func (x *Exec) merge(n *planNode, r, s *relation.Relation) (*MergeStats, error) {
	m, j := x.ubu, n.kids[0]
	if t, err := x.Eng.Cat.Get(m.Table); err != nil || !x.Eng.Cat.Owns(t) {
		// A shared R's read-modify-write must lock (UnionByUpdate).
		return nil, err
	}
	if m.Index == nil || !m.Index.Covers(r, m.Key) {
		m.Index = ra.NewKeyIndex(r, m.Key)
	}
	spec := ra.MergeSpec{RightKey: j.join.rCols[0], Keep: j.join.keep, Outs: make([]ra.Expr, len(n.items))}
	for i, it := range n.items {
		ex, err := x.compileExpr(it.Expr, j.sch)
		if err != nil {
			return nil, err
		}
		spec.Outs[i] = ex
	}
	res, ok, err := m.Index.Merge(r, s, spec)
	if err != nil || !ok {
		return nil, err
	}
	// What the join and the projection would have charged: one row per
	// probe (R) row, and the bytes of the joined and the projected rows.
	gov := x.Eng.Gov()
	if err := gov.Step(r.Len()); err != nil {
		return nil, err
	}
	if err := gov.ChargeBytes(int64(res.Pairs) * int64(j.sch.Arity()) * 16); err != nil {
		return nil, err
	}
	if n.vec && !n.passthrough {
		if err := gov.ChargeBytes(int64(res.Pairs) * int64(n.sch.Arity()) * 16); err != nil {
			return nil, err
		}
	}
	delta, err := x.Eng.MergeInto(m.Table, r.Len(), res)
	if err != nil {
		return nil, err
	}
	x.Eng.CountJoin()
	return &MergeStats{Delta: delta, Rows: res.Pairs}, nil
}

package sql

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/value"
)

// This file is the planner: plan() turns a SELECT into the one plan tree
// that execute() runs and that EXPLAIN and EXPLAIN ANALYZE both render.
// Planning reads schemas and statistics only — catalog metadata, Override
// relations, cached-structure peeks. It runs no subquery, builds no index
// and charges no counter; statement-shape errors surface here, before any
// work. Join order is FROM order. Two rewrites run before the join chain
// and over it: a conjunct "column = literal" on a plain catalog table
// becomes an index lookup at the scan (planLookups), and every equi-join of
// the chain emits only the columns the rest of its block reads
// (pruneChain). Every other non-key conjunct is a residual filter. Above
// the chain, a global count(*) folds into a multiway join (foldsCount) and a
// one-aggregate GROUP BY over one equi-join folds with it into an agg-join
// (foldsAggJoin).

// planOp enumerates the node kinds.
type planOp uint8

const (
	opValues    planOp = iota // no FROM clause: one empty tuple
	opScan                    // catalog table or Override relation; an index lookup when lookup is set
	opSubquery                // FROM (select ...) alias; input: the subquery's plan
	opOuterJoin               // explicit LEFT / FULL OUTER JOIN ... ON
	opEquiJoin                // binary equi-join step
	opProduct                 // no usable key: Cartesian product
	opMultiway                // cyclic core through the worst-case-optimal join
	opFilter                  // residual conjuncts
	opAggregate               // GROUP BY / global aggregates, then HAVING
	opAggJoin                 // equi-join + semiring group-by as one fused MV-join
	opProject                 // select list; not rendered, its input shows in its place
	opDistinct
	opSort
	opLimit
	opSetOp
)

// planNode is one operator of the plan: its statically derived output
// schema, its inputs, and the decisions the planner took for it. Only the
// fields of the node's own kind are set.
type planNode struct {
	op   planOp
	sch  schema.Schema
	kids []*planNode
	stmt *SelectStmt // aggregate, sort, limit: the block; set-op: the block left of the operator

	// Scans, subqueries and outer joins name their FROM item. A scan reads
	// a catalog table (tab, with whether its statistics are current) or an
	// Override relation (over, with whether it binds a Δ frontier).
	ref      *TableRef
	tab      *catalog.Table
	over     *relation.Relation
	analyzed bool
	delta    bool
	lookup   *lookupPlan

	// A project whose select list is exactly its input's columns, in order
	// (identity), over rows the statement built — a join's, or a FROM
	// subquery's grouped rows — passes them through under its own header.
	identity    bool
	passthrough bool

	// Filter, project and aggregate run the vector kernels (vec) or the row
	// closures; whether a vectorized node fell back to rows for a subtree,
	// or a group-by's key shape was handled, is known only at run time.
	vec   bool
	pred  Expr
	items []SelectItem
	agg   *aggPlan // aggregate; on a multiway node, the folded count(*) calls

	join     *joinPlan // outer join, equi-join, product, multiway join; agg-join: the join it folds
	fold     *aggJoinPlan
	sortCols []int
}

// joinPlan is what a join node decided: key columns per side and the
// conjuncts they came from. An equi-join records the profile's algorithm
// and, for a hash join over a catalog table, the build-side access path;
// the multiway join its core and variable order. restore, on the topmost
// join above a multiway core, permutes the columns back to FROM order; keep,
// on a pruned equi-join, lists the columns of l ++ r it emits.
type joinPlan struct {
	lCols, rCols []int
	keys         []Expr
	algo         ra.JoinAlgo
	path         engine.AccessPath
	wcoj         *wcojPlan
	restore      []int
	keep         []int
}

// lookupPlan is a scan's pinned selection served by an index lookup: the
// conjunct it claimed, the column and literal that conjunct binds, and the
// structure ChooseLookup picked.
type lookupPlan struct {
	pred Expr
	col  int
	key  value.Value
	path engine.AccessPath
}

// aggJoinPlan is an agg-join's static half: the semiring its aggregate and
// operator name, the columns the fold reads — the probe side's join key and
// ⊙ operand, the build table's join key, group key and ⊙ operand — the
// build table's access path, and the aggregate node (over the equi-join
// node, over the agg-join's own inputs) it replaced, which runs instead
// when the data is not foldable exactly. inexact and the group key are
// changed only by the planner mutations (RunMutated).
type aggJoinPlan struct {
	sr       semiring.Semiring
	probe    ra.VecCols // ID: join key, W: ⊙ operand
	build    ra.MatCols // F: join key, T: group key, W: ⊙ operand
	path     engine.AccessPath
	unfolded *planNode
	inexact  bool
}

// aggPlan is the aggregate node's static half: where the group keys sit in
// the (key-extended) input, the collected aggregate calls with their
// kinds, HAVING rewritten over the output, and that output's schema —
// group keys followed by one __aggN column per call.
type aggPlan struct {
	groupCols []int
	calls     []*FuncCall
	kinds     []ra.VecAggKind
	having    Expr
	virtual   schema.Schema
}

// plan builds the tree for a (possibly compound) statement.
func (x *Exec) plan(s *SelectStmt) (*planNode, error) {
	left, err := x.planSelect(s)
	if err != nil {
		return nil, err
	}
	for cur := s; cur.Next != nil; cur = cur.Next {
		right, err := x.planSelect(cur.Next)
		if err != nil {
			return nil, err
		}
		if !left.sch.UnionCompatible(right.sch) {
			return nil, fmt.Errorf("sql: set operation arity mismatch (%d vs %d)", left.sch.Arity(), right.sch.Arity())
		}
		switch cur.SetOp {
		case "union all", "union", "except", "intersect":
		default:
			return nil, fmt.Errorf("sql: unknown set op %q", cur.SetOp)
		}
		left = &planNode{op: opSetOp, stmt: cur, sch: left.sch, kids: []*planNode{left, right}}
	}
	return left, nil
}

// vectorized and multiway are the planner's reads of the two executor A/B
// knobs; every node records the outcome, execute never looks again.
func (x *Exec) vectorized() bool { return !x.Eng.DisableVectorized }
func (x *Exec) multiway() bool   { return !x.Eng.DisableWCOJ }

func (x *Exec) planSelect(s *SelectStmt) (*planNode, error) {
	cur, err := x.planFrom(s)
	if err != nil {
		return nil, err
	}
	if len(s.GroupBy) > 0 || s.HasAggregates() {
		if cur, err = x.planAggregate(s, cur); err != nil {
			return nil, err
		}
	} else {
		cur = x.projectNode(s.Items, cur)
	}
	if s.Distinct {
		cur = &planNode{op: opDistinct, sch: cur.sch, kids: []*planNode{cur}}
	}
	if len(s.OrderBy) > 0 {
		n := &planNode{op: opSort, stmt: s, sch: cur.sch, kids: []*planNode{cur}, sortCols: make([]int, len(s.OrderBy))}
		for i, o := range s.OrderBy {
			cr, ok := o.Expr.(*ColRef)
			if !ok {
				return nil, fmt.Errorf("sql: order by supports column references only")
			}
			idx, err := cur.sch.Resolve(cr.Table, cr.Name)
			if err != nil {
				return nil, err
			}
			n.sortCols[i] = idx
		}
		cur = n
	}
	if s.Limit >= 0 {
		cur = &planNode{op: opLimit, stmt: s, sch: cur.sch, kids: []*planNode{cur}}
	}
	return cur, nil
}

// planFrom plans FROM and WHERE: the sources in FROM order folded into a
// left-deep join chain (a cyclic equi-join core first collapses into one
// multiway node, its tail sources fold onto it), then the residual filter.
func (x *Exec) planFrom(s *SelectStmt) (*planNode, error) {
	if len(s.From) == 0 {
		return &planNode{op: opValues}, nil
	}
	srcs := make([]*planNode, len(s.From))
	allAnalyzed := true
	for i, f := range s.From {
		src, err := x.planRef(f)
		if err != nil {
			return nil, err
		}
		srcs[i] = src
		allAnalyzed = allAnalyzed && src.analyzed
	}
	var conjuncts []Expr
	if s.Where != nil {
		conjuncts = splitAnd(s.Where)
	}
	used := make([]bool, len(conjuncts))
	x.planLookups(srcs, conjuncts, used)
	cur := srcs[0]
	tails := srcs[1:]
	var order []int // join order as source indexes, when a core reorders it
	if len(srcs) >= 3 && x.multiway() {
		schemas := make([]schema.Schema, len(srcs))
		for i, src := range srcs {
			schemas[i] = src.sch
		}
		if wp := chooseWCOJ(schemas, conjuncts, used); wp != nil {
			cur = &planNode{op: opMultiway, join: &joinPlan{wcoj: wp}}
			inCore := make([]bool, len(srcs))
			for k, si := range wp.Core {
				inCore[si] = true
				cur.kids = append(cur.kids, srcs[si])
				cur.sch = cur.sch.Concat(srcs[si].sch)
				// A table-backed binary atom reads the cached (src, dst) CSR
				// as its sorted backing instead of building a trie.
				if sc, dc, ok := wp.Atoms[k].csrShape(); ok && srcs[si].fullTable() != nil {
					wp.Atoms[k].CSR = x.Eng.ChooseBuildSide(srcs[si].tab, []int{sc}, dc) == engine.CachedCSR
				}
			}
			for _, ci := range wp.Conjuncts {
				used[ci] = true
				cur.join.keys = append(cur.join.keys, conjuncts[ci])
			}
			order = append(order, wp.Core...)
			tails = nil
			for i, src := range srcs {
				if !inCore[i] {
					tails = append(tails, src)
					order = append(order, i)
				}
			}
		}
	}
	chain := make([]*planNode, 0, len(tails))
	for _, next := range tails {
		lCols, rCols, keys := joinKeys(conjuncts, used, cur.sch, next.sch)
		cur = x.joinNode(cur, next, lCols, rCols, keys, allAnalyzed)
		chain = append(chain, cur)
	}
	// The multiway lowering joins core sources first, so when a tail source
	// precedes a core source in FROM order the concatenated columns are
	// permuted relative to the binary chain. Restore FROM order so
	// "select *" output stays byte-identical across the two paths.
	if perm := fromOrderPerm(srcs, order); perm != nil {
		cur.join.restore, cur.sch = perm, cur.sch.Project(perm)
	} else if need, ok := blockReads(s, conjuncts, used, cur.sch); ok {
		pruneChain(chain, need)
	}
	return x.filterUnused(conjuncts, used, cur), nil
}

// planLookups claims, per FROM source, at most one unused conjunct
// "column = literal" (either orientation) as an index lookup at the scan,
// served before any join. The column must resolve in exactly one source,
// that source must be a plain catalog scan (not an Override or Δ relation,
// a subquery or a member of an explicit join), the literal must be neither
// NULL nor NaN — the lookup matches by value.Equal, under which NULL equals
// NULL and NaN equals nothing, while for every other literal it is SQL's =
// — and the engine's lookup rule must find the structure affordable. Every
// other conjunct stays where it was.
func (x *Exec) planLookups(srcs []*planNode, conjuncts []Expr, used []bool) {
	for ci, c := range conjuncts {
		b, ok := c.(*Binary)
		if used[ci] || !ok || b.Op != "=" {
			continue
		}
		cr, lok := b.L.(*ColRef)
		lit, rok := b.R.(*Lit)
		if !lok || !rok {
			cr, lok = b.R.(*ColRef)
			lit, rok = b.L.(*Lit)
		}
		if !lok || !rok || lit.Val.IsNull() || lit.Val.K == value.KindFloat && math.IsNaN(lit.Val.F) {
			continue
		}
		src, col := -1, -1
		for i, n := range srcs {
			if idx, err := n.sch.Resolve(cr.Table, cr.Name); err == nil {
				if src >= 0 {
					src = -1
					break
				}
				src, col = i, idx
			}
		}
		if src < 0 || srcs[src].fullTable() == nil {
			continue
		}
		if path := x.Eng.ChooseLookup(srcs[src].tab, col); path != engine.FreshBuild {
			srcs[src].lookup = &lookupPlan{pred: c, col: col, key: lit.Val, path: path}
			used[ci] = true
		}
	}
}

// fullTable is the catalog table a node reads whole — a scan without a
// lookup — or nil. Only such a node can hand a join or a multiway atom the
// table's cached structures: they index every row of the table.
func (n *planNode) fullTable() *catalog.Table {
	if n.op != opScan || n.lookup != nil {
		return nil
	}
	return n.tab
}

// blockReads marks the columns of the join chain's wide schema that the
// rest of the block reads: the select list, the residual conjuncts (those
// no join or lookup claimed), GROUP BY, the aggregate arguments inside the
// select list and HAVING, HAVING itself and ORDER BY. Every reference is
// resolved against the wide schema; ok is false — nothing is pruned and
// every error surfaces where it always did — when one does not resolve,
// when the block selects *, or when it has a subquery (what an IN or EXISTS
// subquery reads is not told statically). ORDER BY resolves against the
// select list, so an ORDER BY name the wide schema lacks (an alias) is
// skipped rather than refused.
func blockReads(s *SelectStmt, conjuncts []Expr, used []bool, wide schema.Schema) (need []bool, ok bool) {
	exprs := append([]Expr{s.Having}, s.GroupBy...)
	for _, it := range s.Items {
		if it.Star {
			return nil, false
		}
		exprs = append(exprs, it.Expr)
	}
	for ci, c := range conjuncts {
		if !used[ci] {
			exprs = append(exprs, c)
		}
	}
	var refs []*ColRef
	for _, e := range exprs {
		if refs, ok = colRefs(e, refs); !ok {
			return nil, false
		}
	}
	need = make([]bool, wide.Arity())
	for _, cr := range refs {
		idx, err := wide.Resolve(cr.Table, cr.Name)
		if err != nil {
			return nil, false
		}
		need[idx] = true
	}
	for _, o := range s.OrderBy {
		if cr, isCol := o.Expr.(*ColRef); isCol {
			if idx, err := wide.Resolve(cr.Table, cr.Name); err == nil {
				need[idx] = true
			}
		}
	}
	return need, true
}

// colRefs appends the column references of e to refs; ok is false when e
// holds a subquery (or an expression kind this walk does not know).
func colRefs(e Expr, refs []*ColRef) (_ []*ColRef, ok bool) {
	ok = true
	Walk(e, func(n Expr) {
		switch x := n.(type) {
		case *ColRef:
			refs = append(refs, x)
		case *InExpr:
			ok = ok && x.Sub == nil
		case *Lit, *Unary, *Binary, *FuncCall, *IsNullExpr:
		default:
			ok = false
		}
	})
	return refs, ok
}

// pruneChain narrows each equi-join of a join chain (its steps bottom-up;
// the chain's base is chain[0]'s left input) to the columns read above it:
// need — the block's reads, as positions of the chain's wide schema, which
// is the base's columns followed by each step's right source — plus the
// left keys of every later step. Keys and join decisions were taken over
// the unpruned schemas; each step's left keys are remapped onto its pruned
// input and its planned schema narrows with its output. A product emits
// every column of its (possibly narrowed) inputs.
func pruneChain(chain []*planNode, need []bool) {
	if len(chain) == 0 {
		return
	}
	// Top-down: what each step's output must carry. A step's left keys are
	// positions of its unpruned left input, a prefix of the wide schema.
	wants := make([][]bool, len(chain))
	for k := len(chain) - 1; k >= 0; k-- {
		wants[k] = append([]bool(nil), need...)
		for _, c := range chain[k].join.lCols {
			need[c] = true
		}
	}
	// Bottom-up: cols are the wide positions of the current left input.
	cols := make([]int, chain[0].kids[0].sch.Arity())
	for i := range cols {
		cols[i] = i
	}
	at := make([]int, len(need)) // wide position -> column of the left input
	right := len(cols)           // wide position of the step's right source
	for k, n := range chain {
		for i, c := range cols {
			at[c] = i
		}
		for i, c := range n.join.lCols {
			n.join.lCols[i] = at[c]
		}
		full := cols
		for c := 0; c < n.kids[1].sch.Arity(); c++ {
			full = append(full, right+c)
		}
		right += n.kids[1].sch.Arity()
		n.sch = n.kids[0].sch.Concat(n.kids[1].sch)
		cols = full
		if n.op != opEquiJoin {
			continue
		}
		var keep, kept []int
		for i, c := range full {
			if wants[k][c] {
				keep, kept = append(keep, i), append(kept, c)
			}
		}
		if len(keep) < len(full) {
			if keep == nil {
				keep = []int{}
			}
			n.join.keep, n.sch, cols = keep, n.sch.Project(keep), kept
		}
	}
}

// planRef plans one FROM item.
func (x *Exec) planRef(t *TableRef) (*planNode, error) {
	switch {
	case t.GraphTable != nil:
		return nil, fmt.Errorf("sql: unexpanded GRAPH_TABLE reference to graph %q (run ExpandStatement first)", t.GraphTable.Graph)
	case t.IsJoin():
		return x.planJoinRef(t)
	case t.Sub != nil:
		sub, err := x.plan(t.Sub)
		if err != nil {
			return nil, err
		}
		// A subquery's select list that is exactly its grouped rows'
		// columns only names them, and the subquery re-qualifies rows
		// without copying: the group-by's fresh rows pass through.
		if sub.op == opProject && sub.identity && (sub.kids[0].op == opAggregate || sub.kids[0].op == opAggJoin) {
			sub.passthrough = true
		}
		n := &planNode{op: opSubquery, ref: t, sch: sub.sch, kids: []*planNode{sub}}
		if t.Alias != "" {
			n.sch = sub.sch.Qualify(t.Alias)
		}
		return n, nil
	}
	// Re-qualify under the alias (ρ); an override is not the catalog table
	// of the same name and always counts as a statistics-free temporary.
	if r, ok := x.Override[t.Name]; ok {
		return &planNode{op: opScan, ref: t, over: r, delta: x.Delta[t.Name], sch: r.Sch.Qualify(t.DisplayName())}, nil
	}
	tab, err := x.Eng.Cat.Get(t.Name)
	if err != nil {
		return nil, err
	}
	return &planNode{op: opScan, ref: t, tab: tab, analyzed: tab.Analyzed(), sch: tab.Sch.Qualify(t.DisplayName())}, nil
}

// planJoinRef plans an explicit join: the outer forms keep their dedicated
// operators, INNER takes the same equi-join step as the comma form. ON
// conjuncts that are not keys filter the joined rows.
func (x *Exec) planJoinRef(t *TableRef) (*planNode, error) {
	l, err := x.planRef(t.Join)
	if err != nil {
		return nil, err
	}
	r, err := x.planRef(t.Right)
	if err != nil {
		return nil, err
	}
	var conjuncts []Expr
	if t.On != nil {
		conjuncts = splitAnd(t.On)
	}
	used := make([]bool, len(conjuncts))
	lCols, rCols, keys := joinKeys(conjuncts, used, l.sch, r.sch)
	var n *planNode
	switch {
	case t.Kind == JoinInner:
		n = x.joinNode(l, r, lCols, rCols, keys, l.analyzed && r.analyzed)
	case len(lCols) == 0:
		return nil, fmt.Errorf("sql: outer join requires equality conditions")
	default:
		n = &planNode{op: opOuterJoin, ref: t, sch: l.sch.Concat(r.sch), kids: []*planNode{l, r}, join: &joinPlan{lCols: lCols, rCols: rCols}}
	}
	return x.filterUnused(conjuncts, used, n), nil
}

// joinKeys claims the unused "column = column" conjuncts that bind one
// column of each side (in either orientation) as equi-join keys.
func joinKeys(conjuncts []Expr, used []bool, lSch, rSch schema.Schema) (lCols, rCols []int, keys []Expr) {
	for ci, c := range conjuncts {
		if used[ci] {
			continue
		}
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		lc, lok := b.L.(*ColRef)
		rc, rok := b.R.(*ColRef)
		if !lok || !rok {
			continue
		}
		li, lerr := lSch.Resolve(lc.Table, lc.Name)
		ri, rerr := rSch.Resolve(rc.Table, rc.Name)
		if lerr != nil || rerr != nil {
			li, lerr = lSch.Resolve(rc.Table, rc.Name)
			ri, rerr = rSch.Resolve(lc.Table, lc.Name)
		}
		if lerr == nil && rerr == nil {
			lCols, rCols, keys = append(lCols, li), append(rCols, ri), append(keys, c)
			used[ci] = true
		}
	}
	return lCols, rCols, keys
}

// joinNode is the one binary join step: a product when no key binds the
// two sides, else an equi-join under the profile's algorithm for the
// inputs' statistics. A plain catalog table on the build side of a hash
// join serves its cached access structures — the engine's chooser says
// which (both are revalidated against the probe-time rows inside the join).
func (x *Exec) joinNode(l, r *planNode, lCols, rCols []int, keys []Expr, allAnalyzed bool) *planNode {
	j := &joinPlan{lCols: lCols, rCols: rCols, keys: keys}
	n := &planNode{op: opProduct, join: j, sch: l.sch.Concat(r.sch), kids: []*planNode{l, r}}
	if len(lCols) == 0 {
		return n
	}
	n.op, j.algo = opEquiJoin, x.Eng.Prof.JoinAlgo(allAnalyzed)
	if t := r.fullTable(); j.algo == ra.HashJoin && t != nil {
		j.path = x.Eng.ChooseBuildSide(t, rCols, -1)
	}
	return n
}

// filterUnused puts the conjuncts no join claimed as a key over in, as one
// residual filter.
func (x *Exec) filterUnused(conjuncts []Expr, used []bool, in *planNode) *planNode {
	var residual Expr
	for ci, c := range conjuncts {
		if !used[ci] {
			residual = andJoin(residual, c)
		}
	}
	if residual == nil {
		return in
	}
	return &planNode{op: opFilter, pred: residual, vec: x.vectorized(), sch: in.sch, kids: []*planNode{in}}
}

// projectNode plans the select list over in; "*" expands to in's columns.
// A list that is exactly in's columns, in order, over a binary join's rows
// passes them through — the join already emitted only what the list reads.
// A table's rows are always copied, so a caller never holds (and can never
// change) the rows of a table's cache.
func (x *Exec) projectNode(items []SelectItem, in *planNode) *planNode {
	n := &planNode{op: opProject, items: items, vec: x.vectorized(), kids: []*planNode{in}}
	identity := true
	for i, it := range items {
		if it.Star {
			identity = identity && len(n.sch) == 0
			n.sch = append(n.sch, in.sch...)
			continue
		}
		cr, ok := it.Expr.(*ColRef)
		if ok {
			idx, err := in.sch.Resolve(cr.Table, cr.Name)
			ok = err == nil && idx == len(n.sch)
		}
		identity = identity && ok
		n.sch = append(n.sch, outColName(it, i, in.sch))
	}
	n.identity = identity && len(n.sch) == in.sch.Arity()
	n.passthrough = n.identity && in.joinRows()
	return n
}

// joinRows reports whether n's output rows are a binary join's, possibly
// filtered: rows the statement built, not a table's.
func (n *planNode) joinRows() bool {
	switch n.op {
	case opFilter:
		return n.kids[0].joinRows()
	case opEquiJoin, opProduct:
		return true
	}
	return false
}

func outColName(it SelectItem, i int, sch schema.Schema) schema.Column {
	var col schema.Column
	// Infer the type from a column reference (including the internal
	// __aggN references that aggregate rewriting produces).
	if cr, ok := it.Expr.(*ColRef); ok {
		if idx, err := sch.Resolve(cr.Table, cr.Name); err == nil {
			col.Type = sch[idx].Type
		}
	}
	if it.Alias != "" {
		col.Name = it.Alias
		return col
	}
	if cr, ok := it.Expr.(*ColRef); ok {
		// Keep the qualifier so ORDER BY / outer queries can still resolve
		// the qualified form.
		col.Table, col.Name = cr.Table, cr.Name
		return col
	}
	col.Name = fmt.Sprintf("col%d", i+1)
	return col
}

// planAggregate plans GROUP BY / global aggregation: aggregates inside the
// select list and HAVING are computed per group, then the outer
// expressions are projected over (group keys ++ aggregate results).
func (x *Exec) planAggregate(s *SelectStmt, in *planNode) (*planNode, error) {
	a := &aggPlan{groupCols: make([]int, len(s.GroupBy))}
	// Group-by expressions that are not plain column references are
	// computed into key columns appended to the input first.
	computed := 0
	for i, g := range s.GroupBy {
		if cr, ok := g.(*ColRef); ok {
			idx, err := in.sch.Resolve(cr.Table, cr.Name)
			if err != nil {
				return nil, err
			}
			a.groupCols[i] = idx
			a.virtual = append(a.virtual, in.sch[idx])
			continue
		}
		a.groupCols[i] = in.sch.Arity() + computed
		computed++
		a.virtual = append(a.virtual, schema.Column{Name: keyName(i)})
	}
	// Collect aggregate calls across select items and having.
	collect := func(e Expr) Expr {
		return rewrite(e, func(n Expr) Expr {
			if f, ok := n.(*FuncCall); ok && f.IsAggregate() {
				for i, prev := range a.calls {
					if prev == f {
						return &ColRef{Name: aggName(i)}
					}
				}
				a.calls = append(a.calls, f)
				return &ColRef{Name: aggName(len(a.calls) - 1)}
			}
			return n
		})
	}
	// Select items and HAVING may repeat a group-by expression verbatim
	// ("select b0+b1 from t group by b0+b1"): such subtrees resolve to the
	// computed key column.
	replaceKeys := func(e Expr) Expr {
		return rewrite(e, func(n Expr) Expr {
			for i, g := range s.GroupBy {
				if _, isCol := g.(*ColRef); !isCol && exprEqual(n, g) {
					return &ColRef{Name: keyName(i)}
				}
			}
			return n
		})
	}
	items := make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: select * cannot be combined with aggregation")
		}
		alias := it.Alias
		if alias == "" {
			// A bare aggregate select item is named after its function.
			if f, ok := it.Expr.(*FuncCall); ok && f.IsAggregate() {
				alias = strings.ToLower(f.Name)
			}
		}
		items[i] = SelectItem{Expr: replaceKeys(collect(it.Expr)), Alias: alias}
	}
	if s.Having != nil {
		a.having = replaceKeys(collect(s.Having))
	}
	a.kinds = make([]ra.VecAggKind, len(a.calls))
	for i, f := range a.calls {
		if !f.Star && len(f.Args) != 1 {
			return nil, fmt.Errorf("sql: aggregate %s takes one argument", f.Name)
		}
		col := schema.Column{Name: aggName(i), Type: value.KindFloat}
		switch strings.ToLower(f.Name) {
		case "sum":
			a.kinds[i] = ra.VecSum
		case "min":
			a.kinds[i] = ra.VecMin
		case "max":
			a.kinds[i] = ra.VecMax
		case "avg":
			a.kinds[i] = ra.VecAvg
		case "count":
			col.Type = value.KindInt
			a.kinds[i] = ra.VecCount
			if f.Star {
				a.kinds[i] = ra.VecCountStar
			}
		default:
			return nil, fmt.Errorf("sql: unknown aggregate %q", f.Name)
		}
		a.virtual = append(a.virtual, col)
	}
	if foldsCount(s, in, a) {
		in.agg, in.sch = a, a.virtual
		return x.projectNode(items, in), nil
	}
	n := &planNode{op: opAggregate, stmt: s, agg: a, vec: x.vectorized(), sch: a.virtual, kids: []*planNode{in}}
	if f := x.foldsAggJoin(s, in, a); f != nil {
		f.unfolded = n
		n = &planNode{op: opAggJoin, stmt: s, agg: a, sch: a.virtual, kids: in.kids, join: in.join, fold: f}
	}
	return x.projectNode(items, n), nil
}

// foldsCount reports whether a global aggregate folds into the multiway
// node beneath it: the aggregate reads the node directly (no residual
// filter, no tail join between them), the block has no GROUP BY or HAVING,
// and every call is count(*). The folded node counts the join's bindings
// instead of materializing its tuples and returns the one aggregate row.
func foldsCount(s *SelectStmt, in *planNode, a *aggPlan) bool {
	if in.op != opMultiway || len(s.GroupBy) > 0 || s.Having != nil {
		return false
	}
	for _, k := range a.kinds {
		if k != ra.VecCountStar {
			return false
		}
	}
	return true
}

// foldsAggJoin returns the agg-join plan when the aggregate and the
// equi-join beneath it are together one MV-join (Eq. (4)) — a join plus a
// semiring group-by — that the fused kernel folds without materializing the
// join, or nil. The aggregate must read the join directly (no residual
// filter or product between them); the join must be a hash join on one key
// column whose build side is a catalog table with a cached access path,
// under a profile that hash-joins temp tables too (the Oracle- and DB2-like
// ones: the PostgreSQL-like profile keeps the join and group-by plans the
// paper measures for it, over base tables as well); the block must group by
// exactly one column of the build side other than its join key, have no
// HAVING, and compute exactly one aggregate ⊕(p ⊗ b) with p a probe-side
// column and b a build-side column, each resolving in its side alone, where
// the aggregate and the operator name a built-in semiring: min and +
// (min-plus), sum and * (plus-times), max and * (max-times), min and *
// (min-times). Planning reads only schemas and the build table's metadata
// (ChooseAggJoinSide).
func (x *Exec) foldsAggJoin(s *SelectStmt, in *planNode, a *aggPlan) *aggJoinPlan {
	if in.op != opEquiJoin || in.join.algo != ra.HashJoin || x.Eng.Prof.JoinAlgo(false) != ra.HashJoin ||
		in.join.path == engine.FreshBuild || len(in.join.lCols) != 1 ||
		len(s.GroupBy) != 1 || s.Having != nil || len(a.calls) != 1 || a.calls[0].Star {
		return nil
	}
	probe, build := in.kids[0].sch, in.kids[1].sch
	// side resolves a column reference in exactly one input: 0 probe, 1 build.
	side := func(e Expr) (int, int) {
		cr, ok := e.(*ColRef)
		if !ok {
			return -1, 0
		}
		p, perr := probe.Resolve(cr.Table, cr.Name)
		b, berr := build.Resolve(cr.Table, cr.Name)
		switch {
		case perr == nil && berr != nil:
			return 0, p
		case berr == nil && perr != nil:
			return 1, b
		}
		return -1, 0
	}
	f := &aggJoinPlan{probe: ra.VecCols{ID: in.join.lCols[0]}, build: ra.MatCols{F: in.join.rCols[0]}}
	gs, group := side(s.GroupBy[0])
	arg, ok := a.calls[0].Args[0].(*Binary)
	if gs != 1 || group == f.build.F || !ok {
		return nil
	}
	if f.sr, ok = aggSemiring(a.kinds[0], arg.Op); !ok {
		return nil
	}
	ls, lc := side(arg.L)
	rs, rc := side(arg.R)
	switch {
	case ls == 0 && rs == 1:
		f.probe.W, f.build.W = lc, rc
	case ls == 1 && rs == 0:
		f.probe.W, f.build.W = rc, lc
	default:
		return nil
	}
	f.build.T = group
	f.path = x.Eng.ChooseAggJoinSide(in.kids[1].tab, f.build.F, f.build.T, f.build.W)
	return f
}

// aggSemiring names the built-in semiring whose ⊕ is the aggregate and
// whose ⊙ is the operator.
func aggSemiring(kind ra.VecAggKind, op string) (semiring.Semiring, bool) {
	switch {
	case kind == ra.VecMin && op == "+":
		return semiring.MinPlus(), true
	case kind == ra.VecSum && op == "*":
		return semiring.PlusTimes(), true
	case kind == ra.VecMax && op == "*":
		return semiring.MaxTimes(), true
	case kind == ra.VecMin && op == "*":
		return semiring.MinTimes(), true
	}
	return semiring.Semiring{}, false
}

func aggName(i int) string { return fmt.Sprintf("__agg%d", i) }
func keyName(i int) string { return fmt.Sprintf("__key%d", i) }

// fromOrderPerm returns the column permutation that takes a relation
// joined in the given source order back to FROM order, or nil when the
// order already is FROM order (always, without a multiway core).
func fromOrderPerm(srcs []*planNode, order []int) []int {
	identity := true
	for i, s := range order {
		identity = identity && s == i
	}
	if identity {
		return nil
	}
	offs := make([]int, len(srcs))
	pos := 0
	for _, s := range order {
		offs[s] = pos
		pos += srcs[s].sch.Arity()
	}
	perm := make([]int, 0, pos)
	for s := range srcs {
		for c := 0; c < srcs[s].sch.Arity(); c++ {
			perm = append(perm, offs[s]+c)
		}
	}
	return perm
}

// label is the node's one line in both EXPLAIN and EXPLAIN ANALYZE. est
// adds the row-count estimate to scans — the plain EXPLAIN form; analyzed
// plans omit it because the plans of a WITH+ loop are merged structurally
// across iterations and the working table's size changes every iteration
// (actual rows live in the node's Rows field instead).
func (n *planNode) label(est bool) string {
	switch n.op {
	case opValues:
		return "values (one row)"
	case opScan:
		name := "scan " + n.ref.DisplayName()
		if l := n.lookup; l != nil {
			via := "csr"
			if l.path == engine.CachedHash {
				via = "hash index"
			}
			name = fmt.Sprintf("index lookup %s on %s via %s", n.ref.DisplayName(), ExprString(l.pred), via)
		}
		kind, stats := "working table", "no statistics"
		switch {
		case n.delta:
			kind = "Δ frontier"
		case n.tab != nil && n.tab.Temp:
			kind = "temp table"
		case n.tab != nil:
			kind = "base table"
		}
		if n.analyzed {
			stats = "analyzed"
		}
		if !est {
			return fmt.Sprintf("%s (%s, %s)", name, kind, stats)
		}
		rows := 0
		if n.tab != nil {
			rows = n.tab.Rows()
		} else {
			rows = n.over.Len()
		}
		return fmt.Sprintf("%s (%s, %d rows, %s)", name, kind, rows, stats)
	case opSubquery:
		return "subquery " + n.ref.DisplayName() + ":"
	case opOuterJoin:
		kind := "left outer"
		if n.ref.Kind == JoinFullOuter {
			kind = "full outer"
		}
		return fmt.Sprintf("%s join on %s", kind, ExprString(n.ref.On))
	case opEquiJoin:
		l := fmt.Sprintf("%s join on %s", n.join.algo, exprList(n.join.keys, " and "))
		if n.join.path == engine.CachedCSR {
			l += " via csr"
		}
		return l
	case opProduct:
		return "nested-loop product"
	case opMultiway:
		l := fmt.Sprintf("multiway generic join on %s via wcoj", exprList(n.join.keys, " and "))
		if n.agg != nil {
			l += " (count(*) folded)"
		}
		return l
	case opFilter:
		return "filter " + ExprString(n.pred)
	case opAggregate:
		l := "hash aggregate (single group)"
		if len(n.stmt.GroupBy) > 0 {
			l = "hash aggregate on (" + exprList(n.stmt.GroupBy, ", ") + ")"
		}
		if n.stmt.Having != nil {
			l += " having " + ExprString(n.stmt.Having)
		}
		return l
	case opAggJoin:
		via := "csr"
		if n.fold.path == engine.CachedHash {
			via = "hash index"
		}
		f := n.agg.calls[0]
		return fmt.Sprintf("agg-join on %s group by %s %s%s via %s", exprList(n.join.keys, " and "),
			ExprString(n.stmt.GroupBy[0]), strings.ToLower(f.Name), ExprString(f.Args[0]), via)
	case opDistinct:
		return "distinct"
	case opSort:
		parts := make([]string, len(n.stmt.OrderBy))
		for i, o := range n.stmt.OrderBy {
			parts[i] = ExprString(o.Expr)
			if o.Desc {
				parts[i] += " desc"
			}
		}
		return "sort by " + strings.Join(parts, ", ")
	case opLimit:
		return fmt.Sprintf("limit %d", n.stmt.Limit)
	case opSetOp:
		return n.stmt.SetOp
	}
	return fmt.Sprintf("planOp(%d)", n.op)
}

package ra

import (
	"fmt"

	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/value"
)

// This file implements the worst-case-optimal multiway join (generic join):
// instead of folding a cyclic pattern through binary joins — whose
// intermediates can exceed the final result by the AGM gap (the 2-path
// blowup of triangle counting) — the operator fixes a variable elimination
// order and extends one variable at a time, intersecting the candidate sets
// of every atom that constrains the variable. Each level iterates the
// smallest candidate set and probes the rest, which is exactly the
// leapfrog/generic-join intersection and achieves the AGM worst-case bound.
//
// The per-atom candidate sets reuse the engine's existing dict-encoded
// access paths: a binary atom whose two join variables line up with a cached
// relation.CSR walks the CSR's ColumnDict codes and per-source edge blocks
// directly (no per-query build at all); every other atom gets a view-private
// hash trie built once per execution, keyed level by level in elimination
// order. Match semantics are the engine's equi-join keys' — a NULL binding
// matches nothing (SQL's =), every other value matches by value.Equal
// (numerics compare across int/float) — identical to the hash joins,
// so the operator is a drop-in replacement for a binary join tree over the
// same atoms: it emits, for every full variable binding, the cross product
// of each atom's matching rows, preserving exact bag multiplicities.

// WCOJVarCol binds one atom column to a join variable. A variable may appear
// on several columns of the same atom (transitively-implied same-relation
// equalities); such rows match only when all its columns agree.
type WCOJVarCol struct {
	Var int // variable id, in [0, WCOJSpec.NumVars)
	Col int // column index into the atom's relation
}

// WCOJAtom is one relation of the cyclic join core with its variable
// bindings. CSR optionally carries a cached adjacency index whose
// (SrcCol, DstCol) matches the atom's two variables in elimination order;
// when it covers the relation it replaces the trie build entirely.
type WCOJAtom struct {
	Rel     *relation.Relation
	VarCols []WCOJVarCol
	CSR     *relation.CSR
}

// WCOJSpec is a full multiway-join instance: the atoms, the number of
// variables, and the elimination order (a permutation of [0, NumVars)).
// Every variable must be bound by at least one atom. Count asks for the
// size of the join instead of its tuples: each full binding adds the
// product of its atoms' match-list lengths, and nothing is emitted.
type WCOJSpec struct {
	Atoms   []WCOJAtom
	NumVars int
	Order   []int
	Gov     *govern.Governor
	Count   bool
}

// WCOJStats reports the work done by one execution: Builds counts hash
// tries constructed (CSR-backed atoms contribute zero — their sorted backing
// is the cached CSR, charged through the engine's CSR counters), Probes
// counts candidate-value intersection probes across all levels. Tuples is
// the size of the join — the emitted relation's length, or in count mode
// the whole answer.
type WCOJStats struct {
	Builds int64
	Probes int64
	Tuples int64
}

// wcojLevel is one trie level of an atom: the columns carrying the level's
// variable (usually one).
type wcojLevel struct {
	vr   int
	cols []int
}

// trieNode is one node of an atom's hash trie. keys holds the distinct
// child values in first-seen row order (the deterministic iteration order);
// bucket maps a value hash to candidate key positions; kids parallels keys
// on interior levels; leafRows parallels keys on the last level, holding the
// matching relation rows per key.
type trieNode struct {
	keys     []value.Value
	bucket   map[uint64][]int32
	kids     []*trieNode
	leafRows [][]int32
}

func newTrieNode() *trieNode {
	return &trieNode{bucket: make(map[uint64][]int32)}
}

// child returns the position of v among the node's keys, or -1.
func (n *trieNode) child(v value.Value) int32 {
	h := value.HashCombine(0, v)
	for _, cand := range n.bucket[h] {
		if n.keys[cand].Equal(v) {
			return cand
		}
	}
	return -1
}

// put returns the position of v, inserting it if absent.
func (n *trieNode) put(v value.Value) int32 {
	if pos := n.child(v); pos >= 0 {
		return pos
	}
	pos := int32(len(n.keys))
	n.keys = append(n.keys, v)
	h := value.HashCombine(0, v)
	n.bucket[h] = append(n.bucket[h], pos)
	return pos
}

// atomState is the per-atom execution state: its levels in elimination
// order, and either a trie with a descent path or a CSR with the bound
// source ordinal's grouped edge block.
type atomState struct {
	rel    *relation.Relation
	levels []wcojLevel

	// trie path: path[d] is the node after binding d levels (path[0] = root).
	root *trieNode
	path []*trieNode

	// CSR fast path (binary atoms only).
	csr    *relation.CSR
	block  *csrBlock  // the bound source ordinal's block after level 0
	blocks []csrBlock // memoized per source ordinal
	// seen and the edge buffers are blockFor's scratch: seen[dst] is the
	// target ordinal's position+1 in the block being grouped (0 = unseen).
	seen           []int32
	bufDst, bufRow []int32
	// index resolves a target ordinal to its position in the bound block,
	// so a depth-1 probe is one array load: index[dst] is stamp<<32 |
	// position for the block indexed under the current stamp, and any other
	// stamp reads as absent. The first probe after a bind indexes the block
	// under a fresh stamp, which retires the previous block's entries
	// without clearing them.
	index   []uint64
	stamp   uint32
	indexed bool

	pos int32 // bound key position at the last level: block.dsts or leaf keys
}

// csrBlock is one source ordinal's edges grouped by target ordinal: dsts in
// first-seen edge order, the rows of dsts[k] at rows[starts[k]:starts[k+1]].
// A block with no tail and no repeated target aliases the CSR's own arrays
// and leaves starts nil: dsts[k]'s one row is rows[k].
type csrBlock struct {
	dsts, starts, rows []int32
	done               bool
}

// runLen returns the number of rows of target position k.
func (b *csrBlock) runLen(k int32) int64 {
	if b.starts == nil {
		return 1
	}
	return int64(b.starts[k+1] - b.starts[k])
}

// run returns the rows of target position k.
func (b *csrBlock) run(k int32) []int32 {
	if b.starts == nil {
		return b.rows[k : k+1]
	}
	return b.rows[b.starts[k]:b.starts[k+1]]
}

// levelsFor groups an atom's VarCols into per-variable levels ordered by the
// variables' positions in the elimination order.
func levelsFor(a WCOJAtom, pos []int) []wcojLevel {
	byVar := make(map[int][]int)
	var vars []int
	for _, vc := range a.VarCols {
		if _, seen := byVar[vc.Var]; !seen {
			vars = append(vars, vc.Var)
		}
		byVar[vc.Var] = append(byVar[vc.Var], vc.Col)
	}
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && pos[vars[j]] < pos[vars[j-1]]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	levels := make([]wcojLevel, len(vars))
	for i, vr := range vars {
		levels[i] = wcojLevel{vr: vr, cols: byVar[vr]}
	}
	return levels
}

// usableCSR reports whether the atom's CSR can serve as its sorted backing:
// a two-level single-column-per-level atom whose (SrcCol, DstCol) are the
// level columns in elimination order, covering the relation, with the
// target dictionary present.
func usableCSR(a WCOJAtom, levels []wcojLevel) bool {
	return a.CSR != nil && len(levels) == 2 &&
		len(levels[0].cols) == 1 && len(levels[1].cols) == 1 &&
		a.CSR.SrcCol == levels[0].cols[0] && a.CSR.DstCol == levels[1].cols[0] &&
		a.CSR.Dst != nil && a.CSR.Covers(a.Rel)
}

// buildTrie constructs the atom's hash trie. Rows whose columns disagree
// within a level (a variable on two columns with different values) can never
// match and are dropped at build time.
func buildTrie(rel *relation.Relation, levels []wcojLevel) *trieNode {
	root := newTrieNode()
rows:
	for row, tu := range rel.Tuples {
		n := root
		for d, lv := range levels {
			v := tu[lv.cols[0]]
			for _, c := range lv.cols[1:] {
				if !tu[c].Equal(v) {
					continue rows
				}
			}
			pos := n.put(v)
			if d == len(levels)-1 {
				for int(pos) >= len(n.leafRows) {
					n.leafRows = append(n.leafRows, nil)
				}
				n.leafRows[pos] = append(n.leafRows[pos], int32(row))
				break
			}
			for int(pos) >= len(n.kids) {
				n.kids = append(n.kids, nil)
			}
			if n.kids[pos] == nil {
				n.kids[pos] = newTrieNode()
			}
			n = n.kids[pos]
		}
	}
	return root
}

// blockFor lazily groups one source ordinal's edges by target ordinal,
// walking the CSR main block then the tail chain (ascending row order, the
// same order a trie build over the rows would see them).
func (a *atomState) blockFor(ord int32) *csrBlock {
	b := &a.blocks[ord]
	if b.done {
		return b
	}
	b.done = true
	c := a.csr
	var lo, hi int32
	if int(ord)+1 < len(c.Offsets) {
		lo, hi = c.Offsets[ord], c.Offsets[ord+1]
	}
	if int(ord) >= len(c.TailHead) || c.TailHead[ord] < 0 {
		repeated := false
		for _, d := range c.Targets[lo:hi] {
			if a.seen[d] != 0 {
				repeated = true
				break
			}
			a.seen[d] = 1
		}
		for _, d := range c.Targets[lo:hi] {
			a.seen[d] = 0
		}
		if !repeated {
			b.dsts, b.rows = c.Targets[lo:hi], c.Rows[lo:hi]
			return b
		}
	}
	dst := append(a.bufDst[:0], c.Targets[lo:hi]...)
	rows := append(a.bufRow[:0], c.Rows[lo:hi]...)
	if int(ord) < len(c.TailHead) {
		for e := c.TailHead[ord]; e >= 0; e = c.TailNext[e] {
			dst, rows = append(dst, c.TailTargets[e]), append(rows, c.TailRows[e])
		}
	}
	// Number the targets in first-seen order, counting each one's edges
	// into starts[k+1]; the prefix sum then places every row.
	b.starts = []int32{0}
	for _, d := range dst {
		k := a.seen[d] - 1
		if k < 0 {
			k = int32(len(b.dsts))
			a.seen[d] = k + 1
			b.dsts = append(b.dsts, d)
			b.starts = append(b.starts, 0)
		}
		b.starts[k+1]++
	}
	for k := range b.dsts {
		b.starts[k+1] += b.starts[k]
	}
	b.rows = make([]int32, len(rows))
	for k, d := range b.dsts {
		a.seen[d] = b.starts[k] + 1 // reused as the placement cursor
	}
	for e, d := range dst {
		b.rows[a.seen[d]-1] = rows[e]
		a.seen[d]++
	}
	for _, d := range b.dsts {
		a.seen[d] = 0
	}
	a.bufDst, a.bufRow = dst, rows
	return b
}

// dict returns the CSR dictionary of the atom's depth-th level.
func (a *atomState) dict(depth int) *relation.ColumnDict {
	if depth == 0 {
		return a.csr.Src
	}
	return a.csr.Dst
}

// count returns the number of distinct candidate values the atom offers at
// its depth-th level (all earlier levels bound).
func (a *atomState) count(depth int) int {
	if a.csr != nil {
		if depth == 0 {
			return a.csr.NumSrc()
		}
		return len(a.block.dsts)
	}
	return len(a.path[depth].keys)
}

// ord returns the dictionary ordinal of the CSR candidate at position pos of
// the atom's depth-th level: a source ordinal is its own position, a target
// ordinal is read from the bound block.
func (a *atomState) ord(depth int, pos int32) int32 {
	if depth == 0 {
		return pos
	}
	return a.block.dsts[pos]
}

// key returns the candidate value at position pos of the atom's depth-th
// level; positions run over [0, count(depth)) in deterministic first-seen
// order.
func (a *atomState) key(depth int, pos int32) value.Value {
	if a.csr != nil {
		return a.dict(depth).Keys[a.ord(depth, pos)]
	}
	return a.path[depth].keys[pos]
}

// find resolves v to its candidate position at the atom's depth-th level,
// or -1 when no row offers it — the Value probe, for a level some trie atom
// takes part in.
func (a *atomState) find(depth int, v value.Value) int32 {
	if a.csr == nil {
		return a.path[depth].child(v)
	}
	ord, ok := a.dict(depth).Lookup(v)
	if !ok {
		return -1
	}
	return a.findOrd(depth, ord)
}

// findOrd resolves a CSR atom's dictionary ordinal (-1 for none) to its
// candidate position at the depth-th level, or -1: a source ordinal is its
// position, a target ordinal's position in the bound block is one load from
// index, which the first such probe per bound block fills.
func (a *atomState) findOrd(depth int, ord int32) int32 {
	if ord < 0 || depth == 0 {
		return ord
	}
	if !a.indexed {
		a.indexBlock()
	}
	if e := a.index[ord]; uint32(e>>32) == a.stamp {
		return int32(uint32(e))
	}
	return -1
}

// indexBlock enters the bound block's targets in index under a fresh stamp.
func (a *atomState) indexBlock() {
	if a.stamp++; a.stamp == 0 { // wrapped: retire every entry for good
		clear(a.index)
		a.stamp = 1
	}
	tag := uint64(a.stamp) << 32
	for k, d := range a.block.dsts {
		a.index[d] = tag | uint64(k)
	}
	a.indexed = true
}

// bind binds the atom's depth-th level to candidate position pos, reporting
// whether any row matches. A successful bind must be undone with ascend.
func (a *atomState) bind(depth int, pos int32) bool {
	if a.csr != nil {
		if depth == 0 {
			a.block, a.indexed = a.blockFor(pos), false
			return len(a.block.dsts) > 0
		}
		a.pos = pos
		return true
	}
	n := a.path[depth]
	if depth == len(a.levels)-1 {
		a.path = append(a.path, n) // leaf: stay, matchRows reads n.leafRows[pos]
		a.pos = pos
		return true
	}
	a.path = append(a.path, n.kids[pos])
	return true
}

// ascend undoes the most recent successful bind.
func (a *atomState) ascend(depth int) {
	if a.csr != nil {
		if depth == 0 {
			a.block = nil
		}
		return
	}
	a.path = a.path[:len(a.path)-1]
}

// matchRows returns the atom's matching relation rows once all its levels
// are bound.
func (a *atomState) matchRows() []int32 {
	if a.csr != nil {
		return a.block.run(a.pos)
	}
	return a.path[len(a.path)-1].leafRows[a.pos]
}

// lvlRef names the level of an atom that binds a variable.
type lvlRef struct {
	atom  int
	level int
}

// wcojVar is the driver's state for one variable: the atom levels that bind
// it and, between CSR-backed levels, the ordinal translations that let a
// probe skip the candidate's Value.
type wcojVar struct {
	refs []lvlRef
	// mixed reports that some level is trie-backed: the loop then also
	// reads the candidate's Value for the trie probes.
	mixed bool
	// null[i] is the ordinal of NULL in refs[i]'s dictionary; -1 when it has
	// none or refs[i] is trie-backed.
	null []int32
	// trans[i*len(refs)+j] maps refs[i]'s dictionary ordinals to refs[j]'s,
	// built the first time refs[i] iterates; nil where either is
	// trie-backed.
	trans [][]int32
}

// tablesFrom returns the translations out of refs[it]'s dictionary, indexed
// by probed ref, building the missing ones.
func (v *wcojVar) tablesFrom(it int, atoms []*atomState) [][]int32 {
	n := len(v.refs)
	row := v.trans[it*n : (it+1)*n]
	from := atoms[v.refs[it].atom]
	if from.csr == nil {
		return row
	}
	for j, r := range v.refs {
		if to := atoms[r.atom]; j != it && to.csr != nil && row[j] == nil {
			row[j] = translate(from.dict(v.refs[it].level), to.dict(r.level))
		}
	}
	return row
}

// translate maps every ordinal of from to the ordinal of the equal key in
// to, or -1 when to has none. It resolves through to.Lookup, so it keeps the
// equality of the Value probe (numerics across int and float, NaN equal to
// nothing); a NULL key maps to -1, since a NULL binding matches nothing.
func translate(from, to *relation.ColumnDict) []int32 {
	t := make([]int32, len(from.Keys))
	for o, k := range from.Keys {
		t[o] = -1
		if k.IsNull() {
			continue
		}
		if ord, ok := to.Lookup(k); ok {
			t[o] = ord
		}
	}
	return t
}

// foldRuns is count mode's last level when every atom binding the variable
// is CSR-backed, each at its depth-1 level: a candidate found in every bound
// block adds the product of its runs' lengths there, and nothing is bound or
// ascended. It returns that sum and counts the probes the generic loop
// would have.
func (v *wcojVar) foldRuns(atoms []*atomState, it int, best int32, tabs [][]int32, probes *int64) int64 {
	ib, null := atoms[v.refs[it].atom].block, v.null[it]
	var sum, n int64
	for p := int32(0); p < best; p++ {
		ord := ib.dsts[p]
		if ord == null {
			continue // every variable is an equi-join key
		}
		m := ib.runLen(p)
		for j, r := range v.refs {
			n++
			if j == it {
				continue
			}
			a := atoms[r.atom]
			pos := a.findOrd(1, tabs[j][ord])
			if pos < 0 {
				m = 0
				break
			}
			m *= a.block.runLen(pos)
		}
		sum += m
	}
	*probes += n
	return sum
}

// WCOJ executes the generic-join multiway intersection and returns the
// joined relation — schema and bag contents identical to the equivalent
// binary join tree over the same atoms — plus the work counters; in count
// mode the relation is nil and stats.Tuples is the answer. Both modes walk
// the same search tree and charge the governor alike: one row per candidate
// (charged once before each level's loop) and one per joined tuple (once
// per full binding when emitting, once per last-level loop when counting).
// The spec must be well-formed (every variable bound by an atom, Order a
// permutation of the variables); malformed specs panic, as they indicate a
// planner bug.
func WCOJ(spec WCOJSpec) (*relation.Relation, WCOJStats) {
	var stats WCOJStats
	if len(spec.Atoms) == 0 {
		panic("ra: WCOJ with no atoms")
	}
	pos := make([]int, spec.NumVars)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range spec.Order {
		if v < 0 || v >= spec.NumVars || pos[v] >= 0 {
			panic(fmt.Sprintf("ra: WCOJ order is not a permutation: %v", spec.Order))
		}
		pos[v] = i
	}
	if len(spec.Order) != spec.NumVars {
		panic(fmt.Sprintf("ra: WCOJ order %v does not cover %d vars", spec.Order, spec.NumVars))
	}

	sch := spec.Atoms[0].Rel.Sch
	for _, a := range spec.Atoms[1:] {
		sch = sch.Concat(a.Rel.Sch)
	}
	out := relation.New(sch)

	atoms := make([]*atomState, len(spec.Atoms))
	// vars[v].refs lists the (atom, level) pairs whose level binds variable
	// v; by ordering each atom's levels along the elimination order, every
	// earlier level of the atom is already bound when the driver reaches v.
	vars := make([]wcojVar, spec.NumVars)
	for i, a := range spec.Atoms {
		st := &atomState{rel: a.Rel, levels: levelsFor(a, pos)}
		if usableCSR(a, st.levels) {
			st.csr = a.CSR
			st.blocks = make([]csrBlock, a.CSR.NumSrc())
			st.seen = make([]int32, len(a.CSR.Dst.Keys))
			st.index = make([]uint64, len(a.CSR.Dst.Keys))
		} else {
			st.root = buildTrie(a.Rel, st.levels)
			st.path = []*trieNode{st.root}
			stats.Builds++
		}
		atoms[i] = st
		for d, lv := range st.levels {
			vr := &vars[lv.vr]
			vr.refs = append(vr.refs, lvlRef{atom: i, level: d})
			null := int32(-1)
			if st.csr == nil {
				vr.mixed = true
			} else if ord, ok := st.dict(d).Lookup(value.Null); ok {
				null = ord
			}
			vr.null = append(vr.null, null)
		}
	}
	for v := range vars {
		if len(vars[v].refs) == 0 {
			panic(fmt.Sprintf("ra: WCOJ variable %d bound by no atom", v))
		}
		vars[v].trans = make([][]int32, len(vars[v].refs)*len(vars[v].refs))
	}

	arity := sch.Arity()
	scratch := make(relation.Tuple, arity)
	starts := make([]int, len(spec.Atoms)+1)
	for i, a := range spec.Atoms {
		starts[i+1] = starts[i] + a.Rel.Sch.Arity()
	}

	// emit walks the per-atom match lists, appending the cross product.
	var emit func(atom int)
	emit = func(atom int) {
		if atom == len(atoms) {
			out.Tuples = append(out.Tuples, append(relation.Tuple(nil), scratch...))
			return
		}
		a := atoms[atom]
		seg := scratch[starts[atom]:starts[atom+1]]
		for _, row := range a.matchRows() {
			copy(seg, a.rel.Tuples[row])
			emit(atom + 1)
		}
	}

	// In count mode solve returns the number of joined tuples under its
	// binding, and the last level charges them to the governor once per
	// loop. A last level whose atoms are all CSR-backed folds their run
	// lengths (foldRuns) times the match-list lengths of the atoms that do
	// not bind the last variable (rest), which are fixed for the loop.
	last := len(spec.Order) - 1
	var rest []int
	if spec.Count && last >= 0 {
		binds := make([]bool, len(atoms))
		for _, r := range vars[spec.Order[last]].refs {
			binds[r.atom] = true
		}
		for i, b := range binds {
			if !b {
				rest = append(rest, i)
			}
		}
	}

	var solve func(depth int) int64
	solve = func(depth int) int64 {
		if depth == len(spec.Order) {
			m := 1
			for _, a := range atoms {
				m *= len(a.matchRows())
			}
			if spec.Count {
				return int64(m)
			}
			spec.Gov.MustStep(m)
			emit(0)
			return 0
		}
		lv := &vars[spec.Order[depth]]
		refs := lv.refs
		// Generic join: iterate the smallest candidate set, probe the rest.
		it := 0
		best := atoms[refs[0].atom].count(refs[0].level)
		for i, r := range refs[1:] {
			if c := atoms[r.atom].count(r.level); c < best {
				best, it = c, i+1
			}
		}
		spec.Gov.MustStep(best)
		tabs := lv.tablesFrom(it, atoms)
		fold := spec.Count && depth == last
		if fold && !lv.mixed {
			sum := lv.foldRuns(atoms, it, int32(best), tabs, &stats.Probes)
			for _, k := range rest {
				sum *= int64(len(atoms[k].matchRows()))
			}
			spec.Gov.MustStep(int(sum))
			return sum
		}
		ia, il, null := atoms[refs[it].atom], refs[it].level, lv.null[it]
		var sum int64
		for p := int32(0); p < int32(best); p++ {
			var ord int32
			var cand value.Value
			if ia.csr != nil {
				if ord = ia.ord(il, p); ord == null {
					continue // every variable is an equi-join key
				}
			}
			if lv.mixed {
				if cand = ia.key(il, p); cand.IsNull() {
					continue
				}
			}
			bound := 0
			for j, r := range refs {
				stats.Probes++
				a := atoms[r.atom]
				// The iterating atom offers the candidate at p by construction.
				pos := p
				if j != it {
					if t := tabs[j]; t != nil {
						pos = a.findOrd(r.level, t[ord])
					} else {
						pos = a.find(r.level, cand)
					}
				}
				if pos < 0 || !a.bind(r.level, pos) {
					break
				}
				bound++
			}
			if bound == len(refs) {
				sum += solve(depth + 1)
			}
			for k := 0; k < bound; k++ {
				atoms[refs[k].atom].ascend(refs[k].level)
			}
		}
		if fold {
			spec.Gov.MustStep(int(sum))
		}
		return sum
	}
	if spec.Count {
		stats.Tuples = solve(0)
		return nil, stats
	}
	solve(0)
	stats.Tuples = int64(out.Len())
	return out, stats
}

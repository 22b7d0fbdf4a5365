package ra

import (
	"fmt"
	"math/bits"

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
	block  *csrBlock   // the bound source ordinal's block after level 0
	blocks []*csrBlock // memoized per source ordinal
	// seen and the edge buffers are blockFor's scratch: seen[dst] is the
	// target ordinal's position+1 in the block being grouped (0 = unseen).
	seen           []int32
	bufDst, bufRow []int32

	pos int32 // bound key position at the last level: block.dsts or leaf keys
}

// csrBlock is one source ordinal's edges grouped by target ordinal: dsts in
// first-seen edge order, the rows of dsts[k] at rows[starts[k]:starts[k+1]].
// slots is an open-addressing index over dsts (position+1, 0 = empty; a
// power-of-two length at most half full) that a probe hashes into, so dsts
// keeps the first-seen order emission follows.
type csrBlock struct {
	dsts   []int32
	starts []int32
	rows   []int32
	slots  []int32
	shift  uint8
}

// slot is the home slot of target ordinal dst (Fibonacci hashing).
func (b *csrBlock) slot(dst int32) uint32 {
	return uint32(dst) * 0x9E3779B1 >> b.shift
}

// find returns the position of target ordinal dst in dsts, or -1.
func (b *csrBlock) find(dst int32) int32 {
	mask := uint32(len(b.slots) - 1)
	for i := b.slot(dst); ; i = (i + 1) & mask {
		k := b.slots[i] - 1
		if k < 0 || b.dsts[k] == dst {
			return k
		}
	}
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
	if b := a.blocks[ord]; b != nil {
		return b
	}
	c := a.csr
	dst, rows := a.bufDst[:0], a.bufRow[:0]
	if int(ord)+1 < len(c.Offsets) {
		lo, hi := c.Offsets[ord], c.Offsets[ord+1]
		dst, rows = append(dst, c.Targets[lo:hi]...), append(rows, c.Rows[lo:hi]...)
	}
	if int(ord) < len(c.TailHead) {
		for e := c.TailHead[ord]; e >= 0; e = c.TailNext[e] {
			dst, rows = append(dst, c.TailTargets[e]), append(rows, c.TailRows[e])
		}
	}
	// Number the targets in first-seen order, counting each one's edges
	// into starts[k+1]; the prefix sum then places every row.
	b := &csrBlock{starts: []int32{0}}
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
	lg := uint8(bits.Len(uint(2 * len(b.dsts))))
	b.slots, b.shift = make([]int32, 1<<lg), 32-lg
	mask := uint32(len(b.slots) - 1)
	for k, d := range b.dsts {
		a.seen[d] = b.starts[k] + 1 // reused as the placement cursor
		i := b.slot(d)
		for b.slots[i] != 0 {
			i = (i + 1) & mask
		}
		b.slots[i] = int32(k) + 1
	}
	for e, d := range dst {
		b.rows[a.seen[d]-1] = rows[e]
		a.seen[d]++
	}
	for _, d := range b.dsts {
		a.seen[d] = 0
	}
	a.bufDst, a.bufRow = dst, rows
	a.blocks[ord] = b
	return b
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

// key returns the candidate value at position pos of the atom's depth-th
// level; positions run over [0, count(depth)) in deterministic first-seen
// order.
func (a *atomState) key(depth int, pos int32) value.Value {
	if a.csr != nil {
		if depth == 0 {
			return a.csr.Src.Keys[pos]
		}
		return a.csr.Dst.Keys[a.block.dsts[pos]]
	}
	return a.path[depth].keys[pos]
}

// find resolves v to its candidate position at the atom's depth-th level,
// or -1 when no row offers it. On the CSR path both levels resolve through
// the dictionaries' dense-id maps.
func (a *atomState) find(depth int, v value.Value) int32 {
	if a.csr == nil {
		return a.path[depth].child(v)
	}
	if depth == 0 {
		ord, ok := a.csr.Src.Lookup(v)
		if !ok {
			return -1
		}
		return ord
	}
	dst, ok := a.csr.Dst.Lookup(v)
	if !ok {
		return -1
	}
	return a.block.find(dst)
}

// bind binds the atom's depth-th level to candidate position pos, reporting
// whether any row matches. A successful bind must be undone with ascend.
func (a *atomState) bind(depth int, pos int32) bool {
	if a.csr != nil {
		if depth == 0 {
			a.block = a.blockFor(pos)
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
		b := a.block
		return b.rows[b.starts[a.pos]:b.starts[a.pos+1]]
	}
	return a.path[len(a.path)-1].leafRows[a.pos]
}

// WCOJ executes the generic-join multiway intersection and returns the
// joined relation — schema and bag contents identical to the equivalent
// binary join tree over the same atoms — plus the work counters; in count
// mode the relation is nil and stats.Tuples is the answer. Both modes walk
// the same search tree and charge the governor alike: one step per
// candidate and one per joined tuple. The spec must be well-formed (every
// variable bound by an atom, Order a permutation of the variables);
// malformed specs panic, as they indicate a planner bug.
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
	// atomsAt[v] lists (atom, level) pairs whose level binds variable v; by
	// ordering each atom's levels along the elimination order, every earlier
	// level of the atom is already bound when the driver reaches v.
	type lvlRef struct {
		atom  int
		level int
	}
	atomsAt := make([][]lvlRef, spec.NumVars)
	for i, a := range spec.Atoms {
		st := &atomState{rel: a.Rel, levels: levelsFor(a, pos)}
		if usableCSR(a, st.levels) {
			st.csr = a.CSR
			st.blocks = make([]*csrBlock, a.CSR.NumSrc())
			st.seen = make([]int32, len(a.CSR.Dst.Keys))
		} else {
			st.root = buildTrie(a.Rel, st.levels)
			st.path = []*trieNode{st.root}
			stats.Builds++
		}
		atoms[i] = st
		for d, lv := range st.levels {
			atomsAt[lv.vr] = append(atomsAt[lv.vr], lvlRef{atom: i, level: d})
		}
	}
	for v := 0; v < spec.NumVars; v++ {
		if len(atomsAt[v]) == 0 {
			panic(fmt.Sprintf("ra: WCOJ variable %d bound by no atom", v))
		}
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
			spec.Gov.MustStep(1)
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

	var solve func(depth int)
	solve = func(depth int) {
		if depth == len(spec.Order) {
			if !spec.Count {
				emit(0)
				return
			}
			m := 1
			for _, a := range atoms {
				m *= len(a.matchRows())
			}
			spec.Gov.MustStep(m)
			stats.Tuples += int64(m)
			return
		}
		v := spec.Order[depth]
		refs := atomsAt[v]
		// Generic join: iterate the smallest candidate set, probe the rest.
		it := refs[0]
		best := atoms[it.atom].count(it.level)
		for _, r := range refs[1:] {
			if c := atoms[r.atom].count(r.level); c < best {
				best, it = c, r
			}
		}
		for p := int32(0); p < int32(best); p++ {
			spec.Gov.MustStep(1)
			cand := atoms[it.atom].key(it.level, p)
			if cand.IsNull() {
				continue // every variable is an equi-join key
			}
			bound := 0
			for _, r := range refs {
				stats.Probes++
				a := atoms[r.atom]
				// The iterating atom offers cand at p by construction.
				pos := p
				if r != it {
					pos = a.find(r.level, cand)
				}
				if pos < 0 || !a.bind(r.level, pos) {
					break
				}
				bound++
			}
			if bound == len(refs) {
				solve(depth + 1)
			}
			for k := 0; k < bound; k++ {
				atoms[refs[k].atom].ascend(refs[k].level)
			}
		}
	}
	solve(0)
	if spec.Count {
		return nil, stats
	}
	stats.Tuples = int64(out.Len())
	return out, stats
}

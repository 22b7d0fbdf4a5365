package ra

import (
	"time"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/value"
)

// This file implements the fused aggregate-join kernels: MV-join (Eq. (4))
// and MM-join (Eq. (3)) computed without materializing the equi-join
// intermediate. The classic plan — EquiJoin followed by GroupBy — allocates
// one output tuple per matching edge only to feed it straight into the
// group hash table; the fused kernels probe a (typically cached) build-side
// hash index and fold the ⊙-products directly into the groups under ⊕.
// The output is bag-equal to the EquiJoin+GroupBy plan: identical for the
// discrete semirings (min, max, or), and equal up to float-summation
// reordering for (+, *).
//
// Every kernel probes serially on the statement goroutine: the governor
// aborts a statement by panicking (govern.MustStep), and only that
// goroutine recovers the panic into the statement's error.

// probeMorsel is the number of probe-side tuples folded between governor
// checkpoints.
const probeMorsel = 256

// groupTable accumulates ⊕-folds keyed by 1- or 2-column group keys, in
// first-seen order, mirroring GroupBy+SemiringAgg semantics exactly: a
// group is created for every matching join tuple (even if its product is
// NULL), NULL products are skipped (SQL aggregate semantics), and a group
// that never saw a non-NULL product yields the semiring's Zero.
//
// The table is open-addressed (linear probing over a power-of-two slot
// array) rather than a Go map: the fold runs once per matching edge, and at
// that rate the runtime map's hashing and bucket indirection dominate the
// probe loop.
type groupTable struct {
	sr      semiring.Semiring
	mask    uint64
	table   []int32 // slot -> group ordinal, -1 = empty
	hashes  []uint64
	keys    []relation.Tuple
	vals    []value.Value
	started []bool
	// arena is the current backing chunk for group-key tuples: keys are
	// carved out of it with full slice expressions instead of one
	// relation.Tuple allocation per new group. Chunks are abandoned (still
	// referenced by their keys) when full.
	arena []value.Value
	// scratch is the ordinal buffer the CSR kernels batch-encode a morsel's
	// source IDs into, reused across morsels.
	scratch []int32
}

// keyArenaChunk is the group-key arena's chunk capacity in values.
const keyArenaChunk = 2048

// internKey copies a 1- or 2-column group key into the arena and returns the
// tuple view over it.
func (g *groupTable) internKey(k0, k1 value.Value, wide bool) relation.Tuple {
	n := 1
	if wide {
		n = 2
	}
	if cap(g.arena)-len(g.arena) < n {
		g.arena = make([]value.Value, 0, keyArenaChunk)
	}
	at := len(g.arena)
	g.arena = append(g.arena, k0)
	if wide {
		g.arena = append(g.arena, k1)
	}
	return relation.Tuple(g.arena[at : at+n : at+n])
}

// scratchOrds returns the ordinal scratch buffer, sized to n.
func (g *groupTable) scratchOrds(n int) []int32 {
	if cap(g.scratch) < n {
		g.scratch = make([]int32, n)
	}
	return g.scratch[:n]
}

func newGroupTable(sr semiring.Semiring, capHint int) *groupTable {
	size := uint64(16)
	for int(size)/2 < capHint {
		size <<= 1
	}
	g := &groupTable{sr: sr, mask: size - 1, table: make([]int32, size)}
	for i := range g.table {
		g.table[i] = -1
	}
	return g
}

// slot returns the group ordinal for the key (k0) or (k0, k1), creating the
// group (at the semiring's Zero, not started) when absent.
func (g *groupTable) slot(k0, k1 value.Value, wide bool) int32 {
	h := value.HashCombine(0, k0)
	if wide {
		h = value.HashCombine(h, k1)
	}
	for i := h & g.mask; ; i = (i + 1) & g.mask {
		s := g.table[i]
		if s < 0 {
			s = int32(len(g.keys))
			g.keys = append(g.keys, g.internKey(k0, k1, wide))
			g.hashes = append(g.hashes, h)
			g.vals = append(g.vals, g.sr.Zero)
			g.started = append(g.started, false)
			g.table[i] = s
			if uint64(len(g.keys))*2 > uint64(len(g.table)) {
				g.grow()
			}
			return s
		}
		if g.hashes[s] == h {
			k := g.keys[s]
			if k[0].Equal(k0) && (!wide || k[1].Equal(k1)) {
				return s
			}
		}
	}
}

// grow doubles the slot array and re-places every group by its stored hash.
func (g *groupTable) grow() {
	size := uint64(len(g.table)) * 2
	g.mask = size - 1
	g.table = make([]int32, size)
	for i := range g.table {
		g.table[i] = -1
	}
	for s, h := range g.hashes {
		i := h & g.mask
		for g.table[i] >= 0 {
			i = (i + 1) & g.mask
		}
		g.table[i] = int32(s)
	}
}

// fold adds one ⊙-product under the group key (k0) or (k0, k1); wide
// selects the key arity.
func (g *groupTable) fold(k0, k1 value.Value, wide bool, v value.Value) {
	slot := g.slot(k0, k1, wide)
	if v.IsNull() {
		return
	}
	if !g.started[slot] {
		g.vals[slot] = v
		g.started[slot] = true
		return
	}
	g.vals[slot] = g.sr.Plus(g.vals[slot], v)
}

// relation emits the groups in first-seen order under the given schema.
func (g *groupTable) relation(sch schema.Schema) *relation.Relation {
	out := relation.NewWithCap(sch, len(g.keys))
	for i, k := range g.keys {
		t := make(relation.Tuple, 0, len(k)+1)
		t = append(t, k...)
		t = append(t, g.vals[i])
		out.Tuples = append(out.Tuples, t)
	}
	return out
}

// denseGroups is the groupTable specialized for a dictionary-encoded group
// key: group ordinals come from a ColumnDict on the build side, so a fold is
// an array access instead of a hash-and-compare. Groups exist only once
// touched by a matching join tuple (live), preserving GroupBy's semantics —
// a build-side row that never joins contributes no group.
type denseGroups struct {
	sr      semiring.Semiring
	vals    []value.Value
	started []bool
	live    []bool
	order   []int32 // live ordinals in first-touch order
}

func newDenseGroups(sr semiring.Semiring, groups int) *denseGroups {
	return &denseGroups{
		sr:      sr,
		vals:    make([]value.Value, groups),
		started: make([]bool, groups),
		live:    make([]bool, groups),
	}
}

// fold adds one ⊙-product under the group ordinal, with the same NULL
// semantics as groupTable.fold.
func (d *denseGroups) fold(g int32, v value.Value) {
	if !d.live[g] {
		d.live[g] = true
		d.vals[g] = d.sr.Zero
		d.order = append(d.order, g)
	}
	if v.IsNull() {
		return
	}
	if !d.started[g] {
		d.vals[g] = v
		d.started[g] = true
		return
	}
	d.vals[g] = d.sr.Plus(d.vals[g], v)
}

// relation emits the live groups in first-touch order, resolving ordinals
// back to key values through the dictionary.
func (d *denseGroups) relation(keys []value.Value, sch schema.Schema) *relation.Relation {
	out := relation.NewWithCap(sch, len(d.order))
	for _, g := range d.order {
		out.Tuples = append(out.Tuples, relation.Tuple{keys[g], d.vals[g]})
	}
	return out
}

// floatGroups is denseGroups' unboxed lane: the fold state of an MV-join
// whose every ⊙-product is a float64 under a semiring with a float form.
// Such a product is never NULL, so a group starts on its first touch and
// the first value is assigned rather than ⊕-ed with Zero — the same rule
// denseGroups.fold applies, with the same first-touch order.
type floatGroups struct {
	plus  semiring.Op
	vals  []float64
	live  []bool
	order []int32 // live ordinals in first-touch order
}

func newFloatGroups(plus semiring.Op, groups int) *floatGroups {
	return &floatGroups{plus: plus, vals: make([]float64, groups), live: make([]bool, groups)}
}

// fold adds one ⊙-product under the group ordinal. The fused kernels call
// it once per edge; it is written to stay within the compiler's inlining
// budget together with semiring.Op.Apply.
func (f *floatGroups) fold(g int32, v float64) {
	if f.live[g] {
		v = f.plus.Apply(f.vals[g], v)
	} else {
		f.live[g] = true
		f.order = append(f.order, g)
	}
	f.vals[g] = v
}

// relation emits the live groups in first-touch order as value.Float cells,
// exactly the tuples denseGroups.relation emits for the same folds.
func (f *floatGroups) relation(keys []value.Value, sch schema.Schema) *relation.Relation {
	out := relation.NewWithCap(sch, len(f.order))
	cells := make([]value.Value, 2*len(f.order))
	for i, g := range f.order {
		t := cells[2*i : 2*i+2 : 2*i+2]
		t[0], t[1] = keys[g], value.Float(f.vals[g])
		out.Tuples = append(out.Tuples, t)
	}
	return out
}

// runMorsels folds probe-side rows [0, n) into p in probeMorsel-row
// morsels and returns p. Each morsel is charged to the governor before probe
// folds it; a governor stop aborts the statement (recovered at the engine
// boundary).
func runMorsels[P any](n int, p P, gov *govern.Governor, probe func(p P, lo, hi int)) P {
	for lo := 0; lo < n; lo += probeMorsel {
		hi := min(lo+probeMorsel, n)
		gov.MustStep(hi - lo)
		probe(p, lo, hi)
	}
	return p
}

// FusedMVJoin computes the MV-join aggregate (Eq. (4)) by probing idx — a
// hash index on a's aJoin column, normally served from the catalog's
// version-keyed cache — with every c tuple, folding a.W ⊙ c.W into the
// group on a.aKeep. Because the index lives on the matrix side, an
// immutable edge table is built once and probed by each iteration's fresh
// vector, inverting the build/probe roles of the EquiJoin+GroupBy plan
// (which rebuilt on the vector every iteration). idx must index a on
// exactly {aJoin}. A NULL probe key matches nothing, as in EquiJoin.
//
// dict optionally dictionary-encodes a's aKeep column (cached alongside the
// index); when present and covering a, the fold becomes a dense-array
// accumulate — no group hashing or key comparison per matched edge. A nil
// or mismatched dict falls back to the hashed group table.
//
// sp, when non-nil, receives the kernel's probe wall time; nil skips every
// clock read.
func FusedMVJoin(a, c *relation.Relation, idx *relation.HashIndex, dict *relation.ColumnDict, ac MatCols, cc VecCols, aKeep int, sr semiring.Semiring, gov *govern.Governor, sp *obs.Span) *relation.Relation {
	if sp != nil {
		defer observeFused(sp)(time.Now())
	}
	probeCols := []int{cc.ID}
	sch := schema.Schema{
		{Name: "ID", Type: a.Sch[aKeep].Type},
		{Name: "vw", Type: value.KindFloat},
	}
	if dict != nil && dict.Col == aKeep && len(dict.Ords) == a.Len() {
		ords := dict.Ords
		dg := runMorsels(c.Len(), newDenseGroups(sr, len(dict.Keys)), gov, func(dg *denseGroups, lo, hi int) {
			for _, ct := range c.Tuples[lo:hi] {
				if ct[cc.ID].IsNull() {
					continue
				}
				idx.ProbeEach(ct, probeCols, func(row int) bool {
					at := a.Tuples[row]
					dg.fold(ords[row], sr.Times(at[ac.W], ct[cc.W]))
					return true
				})
			}
		})
		return dg.relation(dict.Keys, sch)
	}
	gt := runMorsels(c.Len(), newGroupTable(sr, c.Len()), gov, func(gt *groupTable, lo, hi int) {
		for _, ct := range c.Tuples[lo:hi] {
			if ct[cc.ID].IsNull() {
				continue
			}
			idx.ProbeEach(ct, probeCols, func(row int) bool {
				at := a.Tuples[row]
				gt.fold(at[aKeep], value.Value{}, false, sr.Times(at[ac.W], ct[cc.W]))
				return true
			})
		}
	})
	return gt.relation(sch)
}

// FusedMMJoin computes the MM-join aggregate (Eq. (3)) with the same
// fusion. idx is a hash index on the build side's join column: with
// idxOnLeft false it indexes b on {bJoin} and the probe scans a (the
// EquiJoin build/probe orientation); with idxOnLeft true it indexes a on
// {aJoin} and the probe scans b — the engine picks the side whose index
// survives across iterations (the analyzed base table). The ⊙-product
// argument order is a.W ⊙ b.W either way, so non-commutative ⊙ is safe.
// sp is as in FusedMVJoin.
func FusedMMJoin(a, b *relation.Relation, idx *relation.HashIndex, idxOnLeft bool, ac, bc MatCols, aJoin, aKeep, bJoin, bKeep int, sr semiring.Semiring, gov *govern.Governor, sp *obs.Span) *relation.Relation {
	if sp != nil {
		defer observeFused(sp)(time.Now())
	}
	var gt *groupTable
	if idxOnLeft {
		probeCols := []int{bJoin}
		gt = runMorsels(b.Len(), newGroupTable(sr, b.Len()), gov, func(gt *groupTable, lo, hi int) {
			for _, bt := range b.Tuples[lo:hi] {
				if bt[bJoin].IsNull() {
					continue
				}
				idx.ProbeEach(bt, probeCols, func(row int) bool {
					at := a.Tuples[row]
					gt.fold(at[aKeep], bt[bKeep], true, sr.Times(at[ac.W], bt[bc.W]))
					return true
				})
			}
		})
	} else {
		probeCols := []int{aJoin}
		gt = runMorsels(a.Len(), newGroupTable(sr, a.Len()), gov, func(gt *groupTable, lo, hi int) {
			for _, at := range a.Tuples[lo:hi] {
				if at[aJoin].IsNull() {
					continue
				}
				idx.ProbeEach(at, probeCols, func(row int) bool {
					bt := b.Tuples[row]
					gt.fold(at[aKeep], bt[bKeep], true, sr.Times(at[ac.W], bt[bc.W]))
					return true
				})
			}
		})
	}
	return gt.relation(schema.Schema{
		{Name: "F", Type: a.Sch[aKeep].Type},
		{Name: "T", Type: b.Sch[bKeep].Type},
		{Name: "ew", Type: value.KindFloat},
	})
}

// observeFused records a fused kernel's probe wall time into sp. It is
// called only on the observed path (sp != nil): the returned closure is
// deferred with time.Now() captured at kernel entry, so the unobserved path
// pays a single nil check and no clock read.
func observeFused(sp *obs.Span) func(time.Time) {
	return func(t0 time.Time) { sp.ProbeDur = time.Since(t0) }
}

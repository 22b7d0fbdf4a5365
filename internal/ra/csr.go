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

// This file implements the CSR variants of the fused aggregate-join kernels:
// the same MV-join (Eq. (4)) and MM-join (Eq. (3)) folds, but driven by a
// relation.CSR adjacency index instead of a hash index. A resolve pass
// batch-encodes the frontier's source IDs into ordinals (one dense-array
// load per tuple on integer node IDs) — once per call for the MV kernel, per
// morsel for the MM kernel — then an extend pass folds each tuple's
// contiguous Offsets[s]:Offsets[s+1] block: sequential int32/Value (or
// float64) array reads, no per-match hashing, key comparison, or bucket
// indirection.
//
// The morsel batches are deliberately NOT sorted by source ordinal: fold
// order must stay probe-row order so group first-touch order — and therefore
// the output bytes — match the hash-probe kernels exactly. A CSR block
// enumerates matches in ascending row order, which is precisely the order
// HashIndex.ProbeEach yields them in, so swapping the access path never
// reorders the output.

// FusedMVJoinCSR computes the MV-join aggregate of FusedMVJoin with csr as
// the access path over matrix a. csr must index a on {aJoin} with
// DstCol = aKeep and WCol = a's weight column, so the fold reads target
// ordinals and weights straight from the CSR arrays and never touches
// a.Tuples. The group dictionary is the CSR's own Dst dict — identical
// ordinal assignment to the catalog's cached ColumnDict on aKeep (both
// first-seen row order), so the output is byte-identical to FusedMVJoin's
// dense path. sp is as in FusedMVJoin; its Algo names the lane that ran.
//
// The fold runs in one of two lanes, chosen once per call. The float lane
// folds unboxed float64 through the semiring's float form; it runs when
// the semiring has one, the CSR carries float weights, and every probe-side
// weight is a number (checked by the resolve pass) — an integer widened to
// its float64, exactly as value.Add and value.Mul widen it against a float
// weight. Otherwise the boxed lane folds value.Value through Plus and
// Times. Both fold in the same
// order — probe-row order, then each source's main block, then its tail
// chain — so for float operands their outputs agree bit for bit.
func FusedMVJoinCSR(a, c *relation.Relation, csr *relation.CSR, cc VecCols, sr semiring.Semiring, gov *govern.Governor, sp *obs.Span) *relation.Relation {
	if sp != nil {
		defer observeFused(sp)(time.Now())
	}
	sch := schema.Schema{
		{Name: "ID", Type: a.Sch[csr.DstCol].Type},
		{Name: "vw", Type: value.KindFloat},
	}
	// Resolve pass: every probe row's source ordinal (-1 when absent or
	// NULL — an equi-join key, see EquiJoin), and whether every probe weight
	// is a number.
	ords := make([]int32, c.Len())
	floatProbe := true
	for i, ct := range c.Tuples {
		if ord, ok := csr.SrcOrd(ct[cc.ID]); ok && !ct[cc.ID].IsNull() {
			ords[i] = ord
		} else {
			ords[i] = -1
		}
		if !ct[cc.W].IsNumeric() {
			floatProbe = false
		}
	}
	offsets, targets := csr.Offsets, csr.Targets
	tailHead, tailNext, tailTargets := csr.TailHead, csr.TailNext, csr.TailTargets
	if fw := csr.FloatWeights; floatProbe && fw != nil && sr.Float.Ok() {
		if sp != nil {
			sp.Algo = "fused-csr f64"
		}
		tfw, times := csr.TailFloatWeights, sr.Float.Times
		fg := runMorsels(c.Len(), newFloatGroups(sr.Float.Plus, len(csr.Dst.Keys)), gov, func(fg *floatGroups, lo, hi int) {
			for i := lo; i < hi; i++ {
				s := ords[i]
				if s < 0 {
					continue
				}
				cw := c.Tuples[i][cc.W].AsFloat()
				if int(s)+1 < len(offsets) {
					for e := offsets[s]; e < offsets[s+1]; e++ {
						fg.fold(targets[e], times.Apply(fw[e], cw))
					}
				}
				if int(s) < len(tailHead) {
					for e := tailHead[s]; e >= 0; e = tailNext[e] {
						fg.fold(tailTargets[e], times.Apply(tfw[e], cw))
					}
				}
			}
		})
		return fg.relation(csr.Dst.Keys, sch)
	}
	if sp != nil {
		sp.Algo = "fused-csr"
	}
	weights, tailWeights := csr.Weights, csr.TailWeights
	dg := runMorsels(c.Len(), newDenseGroups(sr, len(csr.Dst.Keys)), gov, func(dg *denseGroups, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := ords[i]
			if s < 0 {
				continue
			}
			cw := c.Tuples[i][cc.W]
			if int(s)+1 < len(offsets) {
				for e := offsets[s]; e < offsets[s+1]; e++ {
					dg.fold(targets[e], sr.Times(weights[e], cw))
				}
			}
			if int(s) < len(tailHead) {
				for e := tailHead[s]; e >= 0; e = tailNext[e] {
					dg.fold(tailTargets[e], sr.Times(tailWeights[e], cw))
				}
			}
		}
	})
	return dg.relation(csr.Dst.Keys, sch)
}

// FusedMMJoinCSR computes the MM-join aggregate of FusedMMJoin with csr as
// the access path over the build side: with csrOnLeft false, csr indexes b
// on {bJoin} and the probe scans a; with csrOnLeft true, csr indexes a on
// {aJoin} and the probe scans b. The ⊙-product argument order is a.W ⊙ b.W
// either way. Group keys read the build side's tuples through csr.Rows — not
// the dict-encoded Targets — so key representations (and the output bytes)
// match the hash kernel exactly even when a key column mixes Int and Float
// spellings of the same value; weights come from the CSR's sequential
// Weights array, which copies the column verbatim. sp is as in FusedMVJoin.
func FusedMMJoinCSR(a, b *relation.Relation, csr *relation.CSR, csrOnLeft bool, ac, bc MatCols, aJoin, aKeep, bJoin, bKeep int, sr semiring.Semiring, gov *govern.Governor, sp *obs.Span) *relation.Relation {
	if sp != nil {
		defer observeFused(sp)(time.Now())
	}
	offsets, rows, weights := csr.Offsets, csr.Rows, csr.Weights
	var gt *groupTable
	if csrOnLeft {
		gt = runMorsels(b.Len(), newGroupTable(sr, b.Len()), gov, func(gt *groupTable, lo, hi int) {
			ords := gt.scratchOrds(hi - lo)
			for i, bt := range b.Tuples[lo:hi] {
				if ord, ok := csr.SrcOrd(bt[bJoin]); ok && !bt[bJoin].IsNull() {
					ords[i] = ord
				} else {
					ords[i] = -1
				}
			}
			for i, bt := range b.Tuples[lo:hi] {
				s := ords[i]
				if s < 0 {
					continue
				}
				bw := bt[bc.W]
				bk := bt[bKeep]
				if int(s)+1 < len(offsets) {
					for e := offsets[s]; e < offsets[s+1]; e++ {
						gt.fold(a.Tuples[rows[e]][aKeep], bk, true, sr.Times(weights[e], bw))
					}
				}
				if int(s) < len(csr.TailHead) {
					for e := csr.TailHead[s]; e >= 0; e = csr.TailNext[e] {
						gt.fold(a.Tuples[csr.TailRows[e]][aKeep], bk, true, sr.Times(csr.TailWeights[e], bw))
					}
				}
			}
		})
	} else {
		gt = runMorsels(a.Len(), newGroupTable(sr, a.Len()), gov, func(gt *groupTable, lo, hi int) {
			ords := gt.scratchOrds(hi - lo)
			for i, at := range a.Tuples[lo:hi] {
				if ord, ok := csr.SrcOrd(at[aJoin]); ok && !at[aJoin].IsNull() {
					ords[i] = ord
				} else {
					ords[i] = -1
				}
			}
			for i, at := range a.Tuples[lo:hi] {
				s := ords[i]
				if s < 0 {
					continue
				}
				aw := at[ac.W]
				ak := at[aKeep]
				if int(s)+1 < len(offsets) {
					for e := offsets[s]; e < offsets[s+1]; e++ {
						gt.fold(ak, b.Tuples[rows[e]][bKeep], true, sr.Times(aw, weights[e]))
					}
				}
				if int(s) < len(csr.TailHead) {
					for e := csr.TailHead[s]; e >= 0; e = csr.TailNext[e] {
						gt.fold(ak, b.Tuples[csr.TailRows[e]][bKeep], true, sr.Times(aw, csr.TailWeights[e]))
					}
				}
			}
		})
	}
	return gt.relation(schema.Schema{
		{Name: "F", Type: a.Sch[aKeep].Type},
		{Name: "T", Type: b.Sch[bKeep].Type},
		{Name: "ew", Type: value.KindFloat},
	})
}

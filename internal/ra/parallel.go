package ra

import (
	"runtime"
	"sync"

	"repro/internal/relation"
)

// EquiJoinParallel is the paper's future-work direction ("efficient join
// processing in parallel", citing EmptyHeaded): a hash join whose probe
// phase is partitioned across workers over a shared read-only build-side
// index. workers <= 0 uses GOMAXPROCS. The output is the same bag as
// EquiJoin (order may differ).
func EquiJoinParallel(r, s *relation.Relation, spec EquiJoinSpec, workers int) *relation.Relation {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || r.Len() < 2*workers {
		spec.Algo = HashJoin
		return EquiJoin(r, s, spec)
	}
	// The shared read-only build side honors a prebuilt (cached) structure
	// the same way the serial hash join does: a covering CSR replaces the
	// index entirely, else the prebuilt (or fresh) hash index probes.
	var csr *relation.CSR
	var idx *relation.HashIndex
	if c := spec.RightCSR; c != nil && len(spec.RightCols) == 1 &&
		c.SrcCol == spec.RightCols[0] && c.Covers(s) {
		csr = c
		if spec.Span != nil {
			spec.Span.Algo = "csr"
		}
	} else {
		idx = buildSide(s, spec)
	}
	chunks := make([][]relation.Tuple, workers)
	var wg sync.WaitGroup
	per := (r.Len() + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > r.Len() {
			hi = r.Len()
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []relation.Tuple
			emit := func(rt, st relation.Tuple) { out = append(out, joinTuple(rt, st, spec.Keep)) }
			for _, rt := range r.Tuples[lo:hi] {
				// Workers never panic: on a governor stop (cancel,
				// deadline, budget) they drain and exit; the statement
				// goroutine re-raises after Wait.
				if spec.Gov.Step(1) != nil {
					break
				}
				if rt.NullOn(spec.LeftCols) {
					continue
				}
				if csr != nil {
					ord, ok := csr.SrcOrd(rt[spec.LeftCols[0]])
					if !ok {
						continue
					}
					if int(ord)+1 < len(csr.Offsets) {
						for e := csr.Offsets[ord]; e < csr.Offsets[ord+1]; e++ {
							emit(rt, s.Tuples[csr.Rows[e]])
						}
					}
					if int(ord) < len(csr.TailHead) {
						for e := csr.TailHead[ord]; e >= 0; e = csr.TailNext[e] {
							emit(rt, s.Tuples[csr.TailRows[e]])
						}
					}
					continue
				}
				idx.ProbeEach(rt, spec.LeftCols, func(row int) bool {
					emit(rt, s.Tuples[row])
					return true
				})
			}
			chunks[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	spec.Gov.MustOK()
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := relation.NewWithCap(joinSchema(r, s, spec.Keep), total)
	for _, c := range chunks {
		out.Tuples = append(out.Tuples, c...)
	}
	return out
}

// SemiringGroupByParallel computes the group-by & ⊕-aggregation of the
// MM-/MV-join pattern in parallel: workers fold partitions into local hash
// tables, then the partials merge under ⊕ (valid because ⊕ is commutative
// and associative). Output groups appear in first-seen order of the merge.
func SemiringGroupByParallel(r *relation.Relation, groupCols []int, agg AggSpec, plus func(a, b relation.Tuple) error, workers int) (*relation.Relation, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || r.Len() < 2*workers {
		return GroupBy(r, groupCols, []AggSpec{agg})
	}
	partials := make([]*relation.Relation, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	per := (r.Len() + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > r.Len() {
			hi = r.Len()
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			part := &relation.Relation{Sch: r.Sch, Tuples: r.Tuples[lo:hi]}
			partials[w], errs[w] = GroupBy(part, groupCols, []AggSpec{agg})
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	acc, err := mergeGroupPartials(partials, len(groupCols), plus)
	if err != nil {
		return nil, err
	}
	if acc == nil {
		return GroupBy(r, groupCols, []AggSpec{agg})
	}
	return acc, nil
}

// mergeGroupPartials folds per-worker partial group-by results into one
// relation under plus, in partial order. Returns nil when every partial is
// nil (empty input).
//
// Aliasing audit: the accumulator must own every tuple it indexes, because
// plus mutates the aggregate column in place. Partial tuples are therefore
// cloned both when seeding the accumulator and when appending unseen
// groups; the hash index holds the accumulator *Relation (not a snapshot of
// its tuple slice), so rows added after the index was built — and slice
// regrowth on append — stay visible to later probes, and the in-place plus
// never touches a key column, so bucket hashes stay valid as acc grows.
func mergeGroupPartials(partials []*relation.Relation, nKeys int, plus func(a, b relation.Tuple) error) (*relation.Relation, error) {
	keyIdx := make([]int, nKeys)
	for i := range keyIdx {
		keyIdx[i] = i
	}
	var acc *relation.Relation
	var idx *relation.HashIndex
	for _, part := range partials {
		if part == nil {
			continue
		}
		if acc == nil {
			acc = part.Clone()
			idx = relation.BuildHashIndex(acc, keyIdx)
			continue
		}
		for _, t := range part.Tuples {
			slot := -1
			idx.ProbeEach(t, keyIdx, func(row int) bool {
				slot = row
				return false
			})
			if slot < 0 {
				acc.Append(t.Clone())
				idx.Add(acc.Len() - 1)
				continue
			}
			if err := plus(acc.Tuples[slot], t); err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

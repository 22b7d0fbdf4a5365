package ra

import (
	"fmt"
	"time"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// JoinAlgo selects the physical algorithm for an equi-join. The engine
// profiles map onto these: Oracle- and DB2-like profiles pick HashJoin for
// temp tables; the PostgreSQL-like profile picks SortMergeJoin (its
// optimizer lacks temp-table statistics, per Section 7 and Exp-A) and
// upgrades to IndexMergeJoin when a sorted index exists.
type JoinAlgo int

// The physical join algorithms.
const (
	HashJoin JoinAlgo = iota
	SortMergeJoin
	IndexMergeJoin
	NestedLoopJoin
)

// String names the algorithm.
func (a JoinAlgo) String() string {
	switch a {
	case HashJoin:
		return "hash"
	case SortMergeJoin:
		return "sort-merge"
	case IndexMergeJoin:
		return "index-merge"
	case NestedLoopJoin:
		return "nested-loop"
	}
	return fmt.Sprintf("JoinAlgo(%d)", int(a))
}

// EquiJoinSpec carries everything an equi-join needs: the key columns on
// each side, the algorithm, and optional pre-built indexes — sorted indexes
// standing in for B+-tree indexes on the temp tables (IndexMergeJoin), and
// a build-side hash index (HashJoin) served from the catalog's
// version-keyed cache so the build phase runs once per table version
// instead of once per join.
type EquiJoinSpec struct {
	LeftCols  []int
	RightCols []int
	Algo      JoinAlgo
	LeftIdx   *relation.SortedIndex // optional, used by IndexMergeJoin
	RightIdx  *relation.SortedIndex // optional, used by IndexMergeJoin
	RightHash *relation.HashIndex   // optional, used by HashJoin as the build side
	// RightCSR, when set and covering the right side on a single-column key,
	// replaces the hash build entirely: each left tuple resolves its key to a
	// source ordinal (one dense-array load for integer node IDs) and emits
	// the contiguous Rows block — the adjacency-extend access path. Match set
	// and order are identical to a hash probe, so the output bytes do not
	// change. Ignored when it does not cover the right side.
	RightCSR *relation.CSR

	// Gov, when set, makes the probe loops cooperative: each probe-side
	// tuple ticks the governor, so cancellation, deadlines, and row budgets
	// surface mid-join instead of only between operators. The loops abort
	// via govern.Abort, recovered at the engine boundary.
	Gov *govern.Governor

	// Keep, when non-nil, narrows the output to these columns of
	// r.Sch ++ s.Sch, in this order: the join emits only what its consumer
	// reads, byte-identical to ProjectCols over the full join but without
	// materializing the dropped columns. Nil keeps every column.
	Keep []int

	// Span, when set, receives the join's phase breakdown: BuildDur and
	// ProbeDur (for hash joins, the build-side index construction vs. the
	// probe sweep; for merge joins, the sorting vs. the merge), and whether
	// the build side was a fresh index build or served from the spec's
	// cached index. Nil skips every clock read — the observability
	// overhead contract.
	Span *obs.Span
}

// EquiJoin computes r ⋈ s on the key columns using the requested algorithm.
// The output schema is r.Sch ++ s.Sch, narrowed to spec.Keep when set. A
// key is matched under SQL's =: a probe row with a NULL in a key column
// matches nothing (a NULL-keyed build row is then never reached either),
// every other key by value.Equal. Each algorithm still charges the governor
// for every probe row it reads, NULL-keyed or not.
func EquiJoin(r, s *relation.Relation, spec EquiJoinSpec) *relation.Relation {
	switch spec.Algo {
	case SortMergeJoin, IndexMergeJoin:
		return mergeJoin(r, s, spec)
	case NestedLoopJoin:
		out := relation.New(joinSchema(r, s, spec.Keep))
		for _, rt := range r.Tuples {
			spec.Gov.MustStep(1)
			if rt.NullOn(spec.LeftCols) {
				continue
			}
			for _, st := range s.Tuples {
				if rt.EqualOn(spec.LeftCols, st, spec.RightCols) {
					out.Tuples = append(out.Tuples, joinTuple(rt, st, spec.Keep))
				}
			}
		}
		return out
	default:
		return hashJoin(r, s, spec)
	}
}

func hashJoin(r, s *relation.Relation, spec EquiJoinSpec) *relation.Relation {
	if csr := spec.RightCSR; csr != nil && len(spec.RightCols) == 1 &&
		csr.SrcCol == spec.RightCols[0] && csr.Covers(s) {
		return csrJoin(r, s, csr, spec)
	}
	out := relation.New(joinSchema(r, s, spec.Keep))
	// Build on the right side, probe from the left.
	var t0 time.Time
	if spec.Span != nil {
		t0 = time.Now()
	}
	idx := buildSide(s, spec)
	if spec.Span != nil {
		spec.Span.BuildDur = time.Since(t0)
		t0 = time.Now()
	}
	for _, rt := range r.Tuples {
		spec.Gov.MustStep(1)
		if rt.NullOn(spec.LeftCols) {
			continue
		}
		idx.ProbeEach(rt, spec.LeftCols, func(row int) bool {
			out.Tuples = append(out.Tuples, joinTuple(rt, s.Tuples[row], spec.Keep))
			return true
		})
	}
	if spec.Span != nil {
		spec.Span.ProbeDur = time.Since(t0)
	}
	return out
}

// csrJoin is the equi-join over a CSR adjacency index on the right side: no
// build phase at all (the CSR is served from the catalog cache), and each
// probe reads a contiguous row block instead of scanning a hash bucket. The
// emitted tuples are byte-identical to hashJoin's — ascending right-row
// order per probe, left-to-right probe order — because a CSR block is the
// stable counting-sort image of the same match set a hash probe filters.
//
// The whole frontier is extended in two batched passes: a resolve pass maps
// every probe key to its source ordinal and sums the exact output
// cardinality from the offset deltas, then the extend pass copies the
// matched tuples (their kept columns) into a single pre-sized value arena —
// two allocations for the entire join output instead of one per output
// tuple.
func csrJoin(r, s *relation.Relation, csr *relation.CSR, spec EquiJoinSpec) *relation.Relation {
	out := relation.New(joinSchema(r, s, spec.Keep))
	var t0 time.Time
	if spec.Span != nil {
		spec.Span.Algo = "csr"
		t0 = time.Now()
	}
	lc := spec.LeftCols[0]
	offsets, rows := csr.Offsets, csr.Rows
	ords := make([]int32, r.Len())
	total := 0
	for i, rt := range r.Tuples {
		ord, ok := csr.SrcOrd(rt[lc])
		if !ok || rt[lc].IsNull() {
			ords[i] = -1
			continue
		}
		ords[i] = ord
		total += csr.Degree(ord)
	}
	arena := make([]value.Value, 0, total*out.Sch.Arity())
	out.Tuples = make([]relation.Tuple, 0, total)
	emit := func(rt, st relation.Tuple) {
		if w := joinWidth(rt, st, spec.Keep); cap(arena)-len(arena) < w {
			// Only reachable when tuple arity exceeds the schema arity the
			// pre-size assumed; start a fresh chunk rather than regrow.
			arena = make([]value.Value, 0, w*(total+1))
		}
		at := len(arena)
		arena = appendJoined(arena, rt, st, spec.Keep)
		out.Tuples = append(out.Tuples, relation.Tuple(arena[at:len(arena):len(arena)]))
	}
	for i, rt := range r.Tuples {
		spec.Gov.MustStep(1)
		ord := ords[i]
		if ord < 0 {
			continue
		}
		if int(ord)+1 < len(offsets) {
			for e := offsets[ord]; e < offsets[ord+1]; e++ {
				emit(rt, s.Tuples[rows[e]])
			}
		}
		if int(ord) < len(csr.TailHead) {
			for e := csr.TailHead[ord]; e >= 0; e = csr.TailNext[e] {
				emit(rt, s.Tuples[csr.TailRows[e]])
			}
		}
	}
	if spec.Span != nil {
		spec.Span.ProbeDur = time.Since(t0)
	}
	return out
}

// buildSide returns the hash join's build-side index: the spec's prebuilt
// (cached) index when it covers s on the right key columns, else a fresh
// build. Coverage is identity of the rows, not of the header: the SQL
// resolver re-wraps materializations in re-qualified headers, so the cached
// index is also valid when s shares the indexed relation's backing rows
// (relation.SameRows — equal length over the same array).
func buildSide(s *relation.Relation, spec EquiJoinSpec) *relation.HashIndex {
	if idx := spec.RightHash; idx != nil && (idx.Rel() == s || relation.SameRows(idx.Rel(), s)) && equalCols(idx.Cols(), spec.RightCols) {
		// The engine already recorded whether this cached index was built
		// fresh this statement; only mark a hit when it did not.
		if spec.Span != nil && !spec.Span.IndexBuilt {
			spec.Span.IndexCacheHit = true
		}
		return idx
	}
	if spec.Span != nil {
		spec.Span.IndexBuilt = true
	}
	return relation.BuildHashIndex(s, spec.RightCols)
}

func equalCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeJoin performs a sort-merge join. With IndexMergeJoin and a supplied
// SortedIndex for a side, that side is read in index order (no sort); other
// sides are sorted fresh each call — the repeated per-iteration sorting is
// precisely the PostgreSQL behaviour the paper's indexing experiment
// measures.
func mergeJoin(r, s *relation.Relation, spec EquiJoinSpec) *relation.Relation {
	var t0 time.Time
	if spec.Span != nil {
		t0 = time.Now()
	}
	lIdx := spec.LeftIdx
	if spec.Algo != IndexMergeJoin || lIdx == nil || lIdx.Len() != r.Len() {
		lIdx = relation.BuildSortedIndex(r, spec.LeftCols)
		if spec.Span != nil {
			spec.Span.IndexBuilt = true
		}
	} else if spec.Span != nil {
		spec.Span.IndexCacheHit = true
	}
	rIdx := spec.RightIdx
	if spec.Algo != IndexMergeJoin || rIdx == nil || rIdx.Len() != s.Len() {
		rIdx = relation.BuildSortedIndex(s, spec.RightCols)
	}
	if spec.Span != nil {
		spec.Span.BuildDur = time.Since(t0)
		t0 = time.Now()
	}
	out := relation.New(joinSchema(r, s, spec.Keep))
	i, j := 0, 0
	for i < lIdx.Len() && j < rIdx.Len() {
		spec.Gov.MustStep(1)
		lt := lIdx.Tuple(i)
		rt := rIdx.Tuple(j)
		c := lt.CompareOn(spec.LeftCols, rt, spec.RightCols)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		case !lt.EqualOn(spec.LeftCols, rt, spec.RightCols) || lt.NullOn(spec.LeftCols):
			// A NaN key sorts equal to NaN and a NULL key to NULL, but, as
			// in the hash join, neither matches anything.
			i++
		default:
			// Expand the equal-key block on the right.
			jEnd := j
			for jEnd < rIdx.Len() && lt.CompareOn(spec.LeftCols, rIdx.Tuple(jEnd), spec.RightCols) == 0 {
				jEnd++
			}
			for ; i < lIdx.Len() && lIdx.Tuple(i).CompareOn(spec.LeftCols, rt, spec.RightCols) == 0; i++ {
				for k := j; k < jEnd; k++ {
					out.Tuples = append(out.Tuples, joinTuple(lIdx.Tuple(i), rIdx.Tuple(k), spec.Keep))
				}
			}
			j = jEnd
		}
	}
	if spec.Span != nil {
		spec.Span.ProbeDur = time.Since(t0)
	}
	return out
}

// ThetaJoin computes r ⋈_θ s with an arbitrary predicate over the
// concatenated tuple (nested-loop evaluation).
func ThetaJoin(r, s *relation.Relation, pred Pred) (*relation.Relation, error) {
	out := relation.New(r.Sch.Concat(s.Sch))
	for _, rt := range r.Tuples {
		for _, st := range s.Tuples {
			t := joinTuple(rt, st, nil)
			ok, err := pred(t)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Tuples = append(out.Tuples, t)
			}
		}
	}
	return out, nil
}

// LeftOuterJoin computes r ⟕ s on key columns: unmatched r tuples — a
// NULL-keyed one among them, as in EquiJoin — are padded with NULLs on the s
// side. gov, when non-nil, makes the probe loop a
// cooperative checkpoint (see EquiJoinSpec.Gov).
func LeftOuterJoin(r, s *relation.Relation, lCols, rCols []int, gov *govern.Governor) *relation.Relation {
	out := relation.New(r.Sch.Concat(s.Sch))
	idx := relation.BuildHashIndex(s, rCols)
	pad := make(relation.Tuple, s.Sch.Arity())
	for i := range pad {
		pad[i] = value.Null
	}
	for _, rt := range r.Tuples {
		gov.MustStep(1)
		matchedAny := false
		if !rt.NullOn(lCols) {
			idx.ProbeEach(rt, lCols, func(row int) bool {
				matchedAny = true
				out.Tuples = append(out.Tuples, joinTuple(rt, s.Tuples[row], nil))
				return true
			})
		}
		if !matchedAny {
			out.Tuples = append(out.Tuples, joinTuple(rt, pad, nil))
		}
	}
	return out
}

// FullOuterJoin computes r ⟗ s on key columns: unmatched tuples from either
// side — NULL-keyed ones among them, as in EquiJoin — are padded with NULLs
// on the other side. This is the implementation
// vehicle for union-by-update that the paper finds fastest (Tables 4 and 5).
// gov, when non-nil, checkpoints both probe sweeps.
func FullOuterJoin(r, s *relation.Relation, lCols, rCols []int, gov *govern.Governor) *relation.Relation {
	out := relation.New(r.Sch.Concat(s.Sch))
	idx := relation.BuildHashIndex(s, rCols)
	lPad := make(relation.Tuple, r.Sch.Arity())
	for i := range lPad {
		lPad[i] = value.Null
	}
	rPad := make(relation.Tuple, s.Sch.Arity())
	for i := range rPad {
		rPad[i] = value.Null
	}
	matched := make([]bool, s.Len())
	for _, rt := range r.Tuples {
		gov.MustStep(1)
		matchedAny := false
		if !rt.NullOn(lCols) {
			idx.ProbeEach(rt, lCols, func(row int) bool {
				matchedAny = true
				matched[row] = true
				out.Tuples = append(out.Tuples, joinTuple(rt, s.Tuples[row], nil))
				return true
			})
		}
		if !matchedAny {
			out.Tuples = append(out.Tuples, joinTuple(rt, rPad, nil))
		}
	}
	for i, st := range s.Tuples {
		gov.MustStep(1)
		if !matched[i] {
			out.Tuples = append(out.Tuples, joinTuple(lPad, st, nil))
		}
	}
	return out
}

// SemiJoin computes r ⋉ s: the r tuples that join with at least one s tuple
// under SQL's =, so a NULL-keyed r tuple joins with none.
func SemiJoin(r, s *relation.Relation, lCols, rCols []int, gov *govern.Governor) *relation.Relation {
	out := relation.New(r.Sch)
	idx := relation.BuildHashIndex(s, rCols)
	for _, rt := range r.Tuples {
		gov.MustStep(1)
		if !rt.NullOn(lCols) && idx.Contains(rt, lCols) {
			out.Append(rt.Clone())
		}
	}
	return out
}

// joinSchema is the output schema of r ⋈ s: r.Sch ++ s.Sch, or only its
// keep columns.
func joinSchema(r, s *relation.Relation, keep []int) schema.Schema {
	sch := r.Sch.Concat(s.Sch)
	if keep != nil {
		sch = sch.Project(keep)
	}
	return sch
}

// joinWidth is the width of the tuple appendJoined emits for a and b.
func joinWidth(a, b relation.Tuple, keep []int) int {
	if keep != nil {
		return len(keep)
	}
	return len(a) + len(b)
}

// appendJoined is the one emit step of every join kernel: it appends
// a ++ b — or, with keep, only those columns of a ++ b, in keep's order —
// to dst.
func appendJoined(dst []value.Value, a, b relation.Tuple, keep []int) []value.Value {
	if keep == nil {
		return append(append(dst, a...), b...)
	}
	for _, c := range keep {
		if c < len(a) {
			dst = append(dst, a[c])
		} else {
			dst = append(dst, b[c-len(a)])
		}
	}
	return dst
}

// joinTuple is appendJoined into a fresh tuple.
func joinTuple(a, b relation.Tuple, keep []int) relation.Tuple {
	return appendJoined(make(relation.Tuple, 0, joinWidth(a, b, keep)), a, b, keep)
}

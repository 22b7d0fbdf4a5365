package ra

import (
	"math"
	"sort"

	"repro/internal/relation"
	"repro/internal/value"
)

// This file is the keyed merge: one union-by-update step of the shape
//
//	R ⊎_key π(R ⋈_{R.key = s.k} s)
//
// whose projection passes R's key through, run without the join, the
// projected relation or the rewritten image of R. Each s row finds its R row
// through a key→position map kept across iterations, the projection is
// evaluated on the (R row, s row) pair, and the result is coalesced into the
// R row column by column as ubuFullOuter does. Only the R rows whose values
// change are produced, in R order — the changed-row delta of
// UnionByUpdateDelta — together with their positions, so the caller writes
// just those rows.

// KeyIndex maps the values of one key column of a relation to row positions.
// It is the keyed merge's state across iterations: built once over R's
// materialization and valid for as long as R's rows are updated in place
// (Covers), so a merge step costs O(|s|), not O(|R|). Rows are found through
// a relation.HashIndex on the column, so keys compare by value.Equal, as a
// union-by-update's do, and node IDs take its dense layout.
type KeyIndex struct {
	idx    *relation.HashIndex
	col    []int
	unique bool
	// stamp[p] == gen marks R row p as hit by this merge's s rows, so a
	// second hit is found in O(1) without clearing an |R| array per step;
	// slot[p] is then where the merge keeps the row's new value.
	stamp []uint32
	slot  []int32
	gen   uint32
}

// NewKeyIndex indexes r's column col.
func NewKeyIndex(r *relation.Relation, col int) *KeyIndex {
	k := &KeyIndex{idx: relation.BuildHashIndex(r, []int{col}), col: []int{col}, unique: true, stamp: make([]uint32, r.Len()), slot: make([]int32, r.Len())}
	// Unique: every row is the first of its key (NULL included: two
	// NULL-keyed rows share one; a NaN key matches no row, itself neither).
	for row, t := range r.Tuples {
		if first, ok := k.lookup(t, k.col); ok && first != int32(row) {
			k.unique = false
			break
		}
	}
	return k
}

// lookup returns the first row whose key equals t's column cols[0].
func (k *KeyIndex) lookup(t relation.Tuple, cols []int) (row int32, found bool) {
	k.idx.ProbeEach(t, cols, func(r int) bool {
		row, found = int32(r), true
		return false
	})
	return row, found
}

// Covers reports whether the index was built over r's rows: the same
// backing rows, which an in-place update keeps and any rewrite replaces.
func (k *KeyIndex) Covers(r *relation.Relation, col int) bool {
	return k.col[0] == col && relation.SameRows(k.idx.Rel(), r)
}

// Unique reports whether no two rows share a key under value.Equal (NULL
// included: two NULL-keyed rows share one).
func (k *KeyIndex) Unique() bool { return k.unique }

// MergeSpec is what one keyed merge step needs besides R, s and the index:
// the join's right key column, the columns of R ++ s the join keeps (nil:
// all), and the step's projection over that joined row, one expression per
// column of R. The caller checks that the projection passes R's key column
// through at its own position.
type MergeSpec struct {
	RightKey int
	Keep     []int
	Outs     []Expr
}

// MergeResult is one keyed merge step's outcome.
type MergeResult struct {
	// Pos and Rows are the R rows the step rewrites, ascending by position,
	// with their new values: every row whose coalesced value is not bit for
	// bit the old one, as the rewritten image of ubuFullOuter holds it.
	Pos  []int
	Rows []relation.Tuple
	// Delta is the changed-row delta of UnionByUpdateDelta, in R order: the
	// rewritten rows that are not SameRow as before (a row respelled, Int 3
	// as Float 3, is rewritten but unchanged).
	Delta []relation.Tuple
	// Pairs is |R ⋈ s|: the rows the join the merge replaces would have
	// emitted, and so the rows its projection would have produced.
	Pairs int
}

// mergeTestMode is set only by tests (SetMergeTestMode).
var mergeTestMode string

// The keyed merge's test modes.
const (
	// MergeOff makes every Merge decline, so the caller runs the join,
	// the projection and the union-by-update the merge replaces.
	MergeOff = "off"
	// MutateMergeNullOverwrite plants a fault the bounded-exhaustive check
	// must catch: a NULL projected value overwrites the R column instead of
	// coalescing to it.
	MutateMergeNullOverwrite = "merge skips coalesce for a NULL projected value"
)

// SetMergeTestMode switches the keyed merge to mode ("" is the real merge)
// until the returned func restores the previous mode. It exists for the
// differential and bounded-exhaustive tests — it is no engine knob — and
// tests that use it must not run in parallel.
func SetMergeTestMode(mode string) (restore func()) {
	prev := mergeTestMode
	mergeTestMode = mode
	return func() { mergeTestMode = prev }
}

// Merge runs one keyed merge step of s into r, which the index covers. It
// charges no governor: the caller charges what the replaced operators
// would have. ok is
// false — and nothing was evaluated — when r's key is not unique; it is also
// false when two s rows reach one R row, where the union-by-update would emit
// that row twice. The caller then runs the unfused step. An s row whose key
// is NULL or in no R row matches nothing, as in EquiJoin.
func (k *KeyIndex) Merge(r, s *relation.Relation, spec MergeSpec) (res MergeResult, ok bool, err error) {
	if mergeTestMode == MergeOff || !k.unique {
		return res, false, nil
	}
	k.gen++
	if k.gen == 0 { // wrapped: every old stamp could collide
		clear(k.stamp)
		k.gen = 1
	}
	// Match pass: each s row's R row, before anything is evaluated, so a
	// second hit declines with no work wasted.
	hits := make([]int32, s.Len())
	right := []int{spec.RightKey}
	for i, st := range s.Tuples {
		row, found := int32(0), false
		if !st[spec.RightKey].IsNull() {
			row, found = k.lookup(st, right)
		}
		if !found {
			hits[i] = -1
			continue
		}
		if k.stamp[row] == k.gen {
			return res, false, nil
		}
		k.stamp[row] = k.gen
		hits[i] = row
		res.Pairs++
	}
	arity := r.Sch.Arity()
	var joined relation.Tuple
	var cells []value.Value
	nt := make(relation.Tuple, arity)
	// The rewritten rows in s order; slot[p] is R row p's among them, -1
	// when its new value is identical to the old.
	var rows []relation.Tuple
	var changed []bool
	all, left := true, res.Pairs
	for i, st := range s.Tuples {
		p := hits[i]
		if p < 0 {
			continue
		}
		left--
		rt := r.Tuples[p]
		joined = appendJoined(joined[:0], rt, st, spec.Keep)
		for c, ex := range spec.Outs {
			v, err := ex(joined)
			if err != nil {
				return res, false, err
			}
			if v.IsNull() && mergeTestMode != MutateMergeNullOverwrite {
				v = rt[c]
			}
			nt[c] = v
		}
		if identical(nt, rt) {
			k.slot[p] = -1
			continue
		}
		// Rewritten rows are carved out of chunks; most steps rewrite few
		// of the rows they reach.
		if len(cells) < arity {
			cells = make([]value.Value, arity*min(left+1, 64))
		}
		row := relation.Tuple(cells[:arity:arity])
		cells = cells[arity:]
		copy(row, nt)
		k.slot[p] = int32(len(rows))
		rows = append(rows, row)
		changed = append(changed, !SameRow(row, rt))
		all = all && changed[len(changed)-1]
	}
	// Into R order: a walk over the stamps when many rows were rewritten,
	// else a sort of their positions.
	res.Pos = make([]int, 0, len(rows))
	if len(rows)*8 >= r.Len() {
		for p, g := range k.stamp {
			if g == k.gen && k.slot[p] >= 0 {
				res.Pos = append(res.Pos, p)
			}
		}
	} else {
		for _, p := range hits {
			if p >= 0 && k.slot[p] >= 0 {
				res.Pos = append(res.Pos, int(p))
			}
		}
		sort.Ints(res.Pos)
	}
	res.Rows = make([]relation.Tuple, len(res.Pos))
	for i, p := range res.Pos {
		res.Rows[i] = rows[k.slot[p]]
	}
	if all {
		res.Delta = res.Rows
		return res, true, nil
	}
	for i, p := range res.Pos {
		if changed[k.slot[p]] {
			res.Delta = append(res.Delta, res.Rows[i])
		}
	}
	return res, true, nil
}

// identical reports that two rows hold the same values spelled the same:
// kind by kind, floats by their bits.
func identical(a, b relation.Tuple) bool {
	for i := range a {
		x, y := a[i], b[i]
		if x.K != y.K || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

// SameRow reports that a union-by-update left row a as b: equal arity and
// every column equal under value.Compare, whose NaN equals NaN (the order
// ORDER BY uses). value.Equal keeps NaN unequal to itself, so a row holding
// a NaN would count as changed in every step and a fixpoint loop over it
// would never converge.
func SameRow(a, b relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// SameBag reports that a and b hold the same bag of rows under SameRow —
// the attribute-less union-by-update's change test. Rows in the same order
// compare in one pass; otherwise rows are counted by a hash that, like
// SameRow, treats every NaN alike.
func SameBag(a, b *relation.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	i := 0
	for i < a.Len() && SameRow(a.Tuples[i], b.Tuples[i]) {
		i++
	}
	if i == a.Len() {
		return true
	}
	type counted struct {
		t relation.Tuple
		n int
	}
	counts := make(map[uint64][]counted, a.Len()-i)
	for _, t := range a.Tuples[i:] {
		h := sameHash(t)
		bucket := counts[h]
		found := false
		for j := range bucket {
			if SameRow(bucket[j].t, t) {
				bucket[j].n++
				found = true
				break
			}
		}
		if !found {
			counts[h] = append(bucket, counted{t, 1})
		}
	}
	for _, t := range b.Tuples[i:] {
		bucket := counts[sameHash(t)]
		found := false
		for j := range bucket {
			if bucket[j].n > 0 && SameRow(bucket[j].t, t) {
				bucket[j].n--
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sameHash hashes a row consistently with SameRow: as Tuple.Hash, but with
// every NaN hashed alike.
func sameHash(t relation.Tuple) uint64 {
	var h uint64
	for _, v := range t {
		if v.K == value.KindFloat && math.IsNaN(v.F) {
			v = value.Float(math.NaN())
		}
		h = value.HashCombine(h, v)
	}
	return h
}

package ra

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/value"
)

// nullKeyRel returns rows (k, v) with k over {0, 1, 2, NULL} and v the row
// number, as floats so the fused kernels can fold v as a weight.
func nullKeyRel(rng *rand.Rand, rows int) *relation.Relation {
	r := relation.New(schema.Schema{{Name: "k", Type: value.KindInt}, {Name: "v", Type: value.KindFloat}})
	for i := 0; i < rows; i++ {
		k := value.Int(int64(rng.Intn(3)))
		if rng.Intn(3) == 0 {
			k = value.Null
		}
		r.Append(relation.Tuple{k, value.Float(float64(i))})
	}
	return r
}

// joinRef is the nested-loop equi-join under SQL's =: NULL matches nothing.
func joinRef(r, s *relation.Relation) *relation.Relation {
	out := relation.New(r.Sch.Concat(s.Sch))
	for _, rt := range r.Tuples {
		for _, st := range s.Tuples {
			if !rt[0].IsNull() && rt[0].Equal(st[0]) {
				out.Append(joinTuple(rt, st, nil))
			}
		}
	}
	return out
}

// TestNullKeyMatchesNothing: every equi-join algorithm — hash (fresh, over
// a cached index, over a CSR), sort-merge, index-merge and nested loop —
// pairs a NULL key with nothing, a NULL key included; the outer joins
// keep NULL-keyed rows unmatched; the fused MV-join kernels fold no
// NULL-keyed probe row.
func TestNullKeyMatchesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	keys := []int{0}
	for trial := 0; trial < 40; trial++ {
		r, s := nullKeyRel(rng, rng.Intn(12)), nullKeyRel(rng, rng.Intn(12))
		want := joinRef(r, s)
		csr := relation.BuildCSR(s, 0, -1, -1)
		specs := map[string]EquiJoinSpec{
			"hash":        {Algo: HashJoin},
			"hash cached": {Algo: HashJoin, RightHash: relation.BuildHashIndex(s, keys)},
			"csr":         {Algo: HashJoin, RightCSR: csr},
			"sort-merge":  {Algo: SortMergeJoin},
			"index-merge": {Algo: IndexMergeJoin, LeftIdx: relation.BuildSortedIndex(r, keys), RightIdx: relation.BuildSortedIndex(s, keys)},
			"nested-loop": {Algo: NestedLoopJoin},
		}
		for name, spec := range specs {
			spec.LeftCols, spec.RightCols = keys, keys
			got := EquiJoin(r, s, spec)
			if name == "sort-merge" || name == "index-merge" {
				got, want = sortedRel(got), sortedRel(want)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d %s: got\n%swant\n%s", trial, name, got, want)
			}
			want = joinRef(r, s)
		}
		unmatched := func(x, y *relation.Relation) (n int) {
			for _, xt := range x.Tuples {
				one := relation.New(x.Sch)
				one.Append(xt)
				if joinRef(one, y).Len() == 0 {
					n++
				}
			}
			return n
		}
		unmatchedR, unmatchedS := unmatched(r, s), unmatched(s, r)
		if got := LeftOuterJoin(r, s, keys, keys, nil).Len(); got != want.Len()+unmatchedR {
			t.Fatalf("trial %d left outer join: %d rows, want %d", trial, got, want.Len()+unmatchedR)
		}
		if got := FullOuterJoin(r, s, keys, keys, nil).Len(); got != want.Len()+unmatchedR+unmatchedS {
			t.Fatalf("trial %d full outer join: %d rows, want %d", trial, got, want.Len()+unmatchedR+unmatchedS)
		}
		// The fused kernels fold the same pairs: a = s as the matrix (k, 0,
		// v), c = r as the vector (k, v).
		a := relation.New(schema.Schema{{Name: "F"}, {Name: "T"}, {Name: "ew", Type: value.KindFloat}})
		for _, st := range s.Tuples {
			a.Append(relation.Tuple{st[0], value.Int(0), st[1]})
		}
		sr := semiring.PlusTimes()
		var sum float64
		for _, p := range want.Tuples {
			sum += p[1].F * p[3].F
		}
		hash := FusedMVJoin(a, r, relation.BuildHashIndex(a, keys), relation.BuildColumnDict(a, 1), EdgeMat(), NodeVec(), 1, sr, nil, nil)
		fcsr := FusedMVJoinCSR(a, r, relation.BuildCSR(a, 0, 1, 2), NodeVec(), sr, nil, nil)
		for name, got := range map[string]*relation.Relation{"fused hash": hash, "fused csr": fcsr} {
			if want.Len() == 0 && got.Len() != 0 || want.Len() > 0 && (got.Len() != 1 || got.Tuples[0][1].AsFloat() != sum) {
				t.Fatalf("trial %d %s: got\n%swant one group of %v over %d pairs", trial, name, got, sum, want.Len())
			}
		}
	}
}

// sortedRel orders a relation's rows (merge joins emit in key order).
func sortedRel(r *relation.Relation) *relation.Relation {
	return OrderBy(r, allCols(r), nil)
}

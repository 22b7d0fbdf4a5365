package ra

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// keepRel is a random R(F, T, w) with a small key domain: duplicate keys,
// NULL keys, and NaN and NULL weights.
func keepRel(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New(schema.Schema{{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt}, {Name: "w", Type: value.KindFloat}})
	key := func() value.Value {
		if rng.Intn(8) == 0 {
			return value.Null
		}
		return value.Int(rng.Int63n(6))
	}
	for i := 0; i < n; i++ {
		w := value.Float(float64(rng.Intn(9)) / 4)
		switch rng.Intn(10) {
		case 0:
			w = value.Float(math.NaN())
		case 1:
			w = value.Null
		}
		r.Append(relation.Tuple{key(), key(), w})
	}
	return r
}

// cellsOf renders tuples cell by cell (floats by their bits), in order
// unless sorted.
func cellsOf(r *relation.Relation, sorted bool) string {
	lines := make([]string, r.Len())
	for i, tu := range r.Tuples {
		parts := make([]string, len(tu))
		for j, v := range tu {
			parts[j] = v.String()
			if v.K == value.KindFloat {
				parts[j] = fmt.Sprintf("f%x", math.Float64bits(v.F))
			}
		}
		lines[i] = strings.Join(parts, ",")
	}
	if sorted {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// TestJoinKeepMatchesProjectCols: every join kernel — nested loop, hash
// (fresh and over a cached index), the CSR join, sort-merge and index-merge
// — emits with Keep exactly ProjectCols of its full output: the same schema
// and the same tuples in the same order, cell for cell.
func TestJoinKeepMatchesProjectCols(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	keeps := [][]int{{}, {0}, {5}, {1, 4}, {3, 2}, {0, 2, 3, 5}, {0, 1, 2, 3, 4, 5}}
	for trial := 0; trial < 20; trial++ {
		r, s := keepRel(rng, rng.Intn(30)), keepRel(rng, rng.Intn(30))
		lc, rc := []int{1}, []int{0}
		specs := map[string]EquiJoinSpec{
			"nested-loop": {Algo: NestedLoopJoin},
			"hash":        {Algo: HashJoin},
			"hash cached": {Algo: HashJoin, RightHash: relation.BuildHashIndex(s, rc)},
			"csr":         {Algo: HashJoin, RightCSR: relation.BuildCSR(s, 0, -1, -1)},
			"sort-merge":  {Algo: SortMergeJoin},
			"index-merge": {Algo: IndexMergeJoin, LeftIdx: relation.BuildSortedIndex(r, lc), RightIdx: relation.BuildSortedIndex(s, rc)},
		}
		for name, spec := range specs {
			spec.LeftCols, spec.RightCols = lc, rc
			full := EquiJoin(r, s, spec)
			for _, keep := range keeps {
				spec.Keep = keep
				got, want := EquiJoin(r, s, spec), ProjectCols(full, keep)
				label := fmt.Sprintf("trial %d %s keep %v", trial, name, keep)
				if !got.Sch.Equal(want.Sch) || fmt.Sprint(got.Sch) != fmt.Sprint(want.Sch) {
					t.Fatalf("%s: schema %v, want %v", label, got.Sch, want.Sch)
				}
				if g, w := cellsOf(got, false), cellsOf(want, false); g != w {
					t.Fatalf("%s:\n%s\nwant\n%s", label, g, w)
				}
			}
		}
	}
}

// TestMergeJoinMatchesHashOnNaNKeys: NaN sorts equal to NaN, but a NaN key
// matches nothing in the hash join (value.Equal), and the merge joins agree.
func TestMergeJoinMatchesHashOnNaNKeys(t *testing.T) {
	nan := value.Float(math.NaN())
	mk := func(keys ...value.Value) *relation.Relation {
		r := relation.New(schema.Schema{{Name: "k", Type: value.KindFloat}, {Name: "i", Type: value.KindInt}})
		for i, k := range keys {
			r.Append(relation.Tuple{k, value.Int(int64(i))})
		}
		return r
	}
	r := mk(nan, value.Float(1), nan, value.Null, value.Float(2))
	s := mk(value.Float(2), nan, value.Float(1), nan, value.Null)
	spec := EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin}
	want := cellsOf(EquiJoin(r, s, spec), true)
	for _, algo := range []JoinAlgo{SortMergeJoin, IndexMergeJoin, NestedLoopJoin} {
		spec.Algo = algo
		if got := cellsOf(EquiJoin(r, s, spec), true); got != want {
			t.Errorf("%s:\n%s\nwant (hash)\n%s", algo, got, want)
		}
	}
}

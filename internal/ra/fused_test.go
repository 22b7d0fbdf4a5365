package ra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/value"
)

// randMatrix returns a random edge relation E(F,T,ew) over [0, nodes) with
// small-integer float weights — integer-valued so that (+, *) sums are exact
// in float64 regardless of fold order — and an occasional NULL weight to
// exercise the SQL skip-NULL aggregate path.
func randMatrix(rng *rand.Rand, nodes, edges int) *relation.Relation {
	e := relation.New(schema.Schema{
		{Name: "F", Type: value.KindInt},
		{Name: "T", Type: value.KindInt},
		{Name: "ew", Type: value.KindFloat},
	})
	for i := 0; i < edges; i++ {
		w := value.Float(float64(1 + rng.Intn(5)))
		if rng.Intn(12) == 0 {
			w = value.Null
		}
		e.Append(relation.Tuple{
			value.Int(rng.Int63n(int64(nodes))),
			value.Int(rng.Int63n(int64(nodes))),
			w,
		})
	}
	return e
}

// randVector returns a random node relation V(ID,vw) covering most — not all —
// of [0, nodes), so some probes miss.
func randVector(rng *rand.Rand, nodes int) *relation.Relation {
	v := relation.New(schema.Schema{
		{Name: "ID", Type: value.KindInt},
		{Name: "vw", Type: value.KindFloat},
	})
	for n := 0; n < nodes; n++ {
		if rng.Intn(5) == 0 {
			continue
		}
		v.Append(relation.Tuple{value.Int(int64(n)), value.Float(float64(rng.Intn(5)))})
	}
	return v
}

// groupsByKey flattens a group-by result (key columns then one aggregate)
// into a map for order-insensitive comparison.
func groupsByKey(r *relation.Relation, nKeys int) map[string]value.Value {
	m := make(map[string]value.Value, r.Len())
	for _, t := range r.Tuples {
		key := ""
		for i := 0; i < nKeys; i++ {
			key += t[i].String() + "|"
		}
		m[key] = t[nKeys]
	}
	return m
}

func aggEqual(a, b value.Value) bool {
	if a.Equal(b) {
		return true
	}
	if a.IsNumeric() && b.IsNumeric() {
		return math.Abs(a.AsFloat()-b.AsFloat()) <= 1e-9
	}
	return false
}

func wantSameGroups(t *testing.T, label string, got, want *relation.Relation, nKeys int) {
	t.Helper()
	gm, wm := groupsByKey(got, nKeys), groupsByKey(want, nKeys)
	if len(gm) != len(wm) {
		t.Fatalf("%s: %d groups, want %d", label, len(gm), len(wm))
	}
	for k, wv := range wm {
		gv, ok := gm[k]
		if !ok {
			t.Fatalf("%s: missing group %q", label, k)
		}
		if !aggEqual(gv, wv) {
			t.Fatalf("%s: group %q = %v, want %v", label, k, gv, wv)
		}
	}
}

// TestFusedMVJoinEquivalence is the fused-kernel property test: for random
// graphs, every built-in semiring, both join directions (A·C and Aᵀ·C),
// and both fold paths (hashed group table and dictionary-encoded dense
// fold), the fused MV-join must agree with the materializing
// EquiJoin+GroupBy plan.
func TestFusedMVJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, sr := range semiring.All() {
		for _, withDict := range []bool{false, true} {
			for _, dir := range []struct{ aJoin, aKeep int }{{1, 0}, {0, 1}} {
				for trial := 0; trial < 4; trial++ {
					a := randMatrix(rng, 30, 150)
					c := randVector(rng, 30)
					want, err := MVJoin(a, c, EdgeMat(), NodeVec(), dir.aJoin, dir.aKeep, sr, HashJoin)
					if err != nil {
						t.Fatal(err)
					}
					idx := relation.BuildHashIndex(a, []int{dir.aJoin})
					var dict *relation.ColumnDict
					if withDict {
						dict = relation.BuildColumnDict(a, dir.aKeep)
					}
					got := FusedMVJoin(a, c, idx, dict, EdgeMat(), NodeVec(), dir.aKeep, sr, nil, nil)
					label := fmt.Sprintf("mv %s dict=%v aJoin=%d trial=%d", sr.Name, withDict, dir.aJoin, trial)
					wantSameGroups(t, label, got, want, 1)
				}
			}
		}
	}
}

// TestFusedMMJoinEquivalence mirrors the MV property test for the MM-join
// kernel, covering both build-side orientations the engine may pick.
func TestFusedMMJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, sr := range semiring.All() {
		for _, idxOnLeft := range []bool{false, true} {
			for trial := 0; trial < 4; trial++ {
				a := randMatrix(rng, 25, 120)
				b := randMatrix(rng, 25, 120)
				// Textbook A·B: join a.T = b.F, keep (a.F, b.T).
				want, err := MMJoin(a, b, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, HashJoin)
				if err != nil {
					t.Fatal(err)
				}
				var idx *relation.HashIndex
				if idxOnLeft {
					idx = relation.BuildHashIndex(a, []int{1})
				} else {
					idx = relation.BuildHashIndex(b, []int{0})
				}
				got := FusedMMJoin(a, b, idx, idxOnLeft, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, nil, nil)
				label := fmt.Sprintf("mm %s idxOnLeft=%v trial=%d", sr.Name, idxOnLeft, trial)
				wantSameGroups(t, label, got, want, 2)
			}
		}
	}
}

// TestFusedNullProductStillCreatesGroup pins the subtle GroupBy semantics the
// fused kernels must mirror: a join match whose ⊙-product is NULL still
// creates its group, and a group that only ever saw NULL products yields the
// semiring's Zero (SQL aggregates skip NULLs; SemiringAgg starts from Zero).
func TestFusedNullProductStillCreatesGroup(t *testing.T) {
	sr := semiring.PlusTimes()
	a := relation.New(schema.Schema{
		{Name: "F", Type: value.KindInt},
		{Name: "T", Type: value.KindInt},
		{Name: "ew", Type: value.KindFloat},
	})
	a.Append(relation.Tuple{value.Int(1), value.Int(9), value.Null})
	a.Append(relation.Tuple{value.Int(2), value.Int(9), value.Float(3)})
	c := relation.New(schema.Schema{
		{Name: "ID", Type: value.KindInt},
		{Name: "vw", Type: value.KindFloat},
	})
	c.Append(relation.Tuple{value.Int(9), value.Float(2)})
	idx := relation.BuildHashIndex(a, []int{1})
	want, err := MVJoin(a, c, EdgeMat(), NodeVec(), 1, 0, sr, HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	for _, dict := range []*relation.ColumnDict{nil, relation.BuildColumnDict(a, 0)} {
		got := FusedMVJoin(a, c, idx, dict, EdgeMat(), NodeVec(), 0, sr, nil, nil)
		wantSameGroups(t, fmt.Sprintf("null-product dict=%v", dict != nil), got, want, 1)
		m := groupsByKey(got, 1)
		if v, ok := m["1|"]; !ok || !v.Equal(sr.Zero) {
			t.Fatalf("NULL-only group = %v (present=%v), want semiring Zero", v, ok)
		}
	}
}

// TestFusedMVJoinHonorsCachedIndexOnly asserts the kernel probes exactly the
// supplied index — rows appended to the relation after the index build must
// not appear (the engine guarantees freshness via the catalog's version-keyed
// cache, not the kernel).
func TestFusedMVJoinHonorsCachedIndexOnly(t *testing.T) {
	sr := semiring.PlusTimes()
	a := randMatrix(rand.New(rand.NewSource(83)), 10, 40)
	c := randVector(rand.New(rand.NewSource(84)), 10)
	idx := relation.BuildHashIndex(a, []int{1})
	before := FusedMVJoin(a, c, idx, nil, EdgeMat(), NodeVec(), 0, sr, nil, nil)
	a.Append(relation.Tuple{value.Int(0), value.Int(0), value.Float(100)})
	after := FusedMVJoin(a, c, idx, nil, EdgeMat(), NodeVec(), 0, sr, nil, nil)
	wantSameGroups(t, "stale-index probe", after, before, 1)
}

package ra

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/value"
)

// wantSameBytes asserts two relations are byte-identical: same tuples, same
// order, same value representations. This is the CSR contract — swapping the
// access path must not even reorder the output, let alone change it.
func wantSameBytes(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if !reflect.DeepEqual(got.Tuples[i], want.Tuples[i]) {
			t.Fatalf("%s: tuple %d = %v, want %v", label, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// TestFusedMVJoinCSRBytesMatchHash asserts the CSR MV-kernel output is
// byte-identical to the hash kernel's dense-dict path for every semiring
// and both join directions.
func TestFusedMVJoinCSRBytesMatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, sr := range semiring.All() {
		for _, dir := range []struct{ aJoin, aKeep int }{{1, 0}, {0, 1}} {
			for trial := 0; trial < 4; trial++ {
				a := randMatrix(rng, 30, 150)
				c := randVector(rng, 30)
				idx := relation.BuildHashIndex(a, []int{dir.aJoin})
				dict := relation.BuildColumnDict(a, dir.aKeep)
				want := FusedMVJoin(a, c, idx, dict, EdgeMat(), NodeVec(), dir.aKeep, sr, nil, nil)
				csr := relation.BuildCSR(a, dir.aJoin, dir.aKeep, 2)
				got := FusedMVJoinCSR(a, c, csr, NodeVec(), sr, nil, nil)
				label := fmt.Sprintf("mv-csr %s aJoin=%d trial=%d", sr.Name, dir.aJoin, trial)
				wantSameBytes(t, label, got, want)
			}
		}
	}
}

// TestFusedMMJoinCSRBytesMatchHash mirrors the MV byte-identity test for the
// MM kernel, covering both build-side orientations.
func TestFusedMMJoinCSRBytesMatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, sr := range semiring.All() {
		for _, csrOnLeft := range []bool{false, true} {
			for trial := 0; trial < 4; trial++ {
				a := randMatrix(rng, 25, 120)
				b := randMatrix(rng, 25, 120)
				var idx *relation.HashIndex
				var csr *relation.CSR
				if csrOnLeft {
					idx = relation.BuildHashIndex(a, []int{1})
					csr = relation.BuildCSR(a, 1, -1, 2)
				} else {
					idx = relation.BuildHashIndex(b, []int{0})
					csr = relation.BuildCSR(b, 0, -1, 2)
				}
				want := FusedMMJoin(a, b, idx, csrOnLeft, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, nil, nil)
				got := FusedMMJoinCSR(a, b, csr, csrOnLeft, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, nil, nil)
				label := fmt.Sprintf("mm-csr %s csrOnLeft=%v trial=%d", sr.Name, csrOnLeft, trial)
				wantSameBytes(t, label, got, want)
			}
		}
	}
}

// TestEquiJoinCSRBytesMatchHash asserts the equi-join CSR access path emits
// exactly the bytes of the hash path, including after in-place appends that
// land in the CSR's tail chains.
func TestEquiJoinCSRBytesMatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 6; trial++ {
		r := randVector(rng, 40)
		s := randMatrix(rng, 40, 200)
		csr := relation.BuildCSR(s, 0, 1, 2)
		for round := 0; round < 2; round++ {
			want := EquiJoin(r, s, EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin})
			got := EquiJoin(r, s, EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin, RightCSR: csr})
			wantSameBytes(t, fmt.Sprintf("equi-csr trial=%d round=%d", trial, round), got, want)
			// Append a few edges and extend the CSR in place (tail-chain path).
			for i := 0; i < 15; i++ {
				s.Append(relation.Tuple{
					value.Int(rng.Int63n(40)), value.Int(rng.Int63n(40)), value.Float(float64(rng.Intn(5))),
				})
			}
			csr.Extend(s)
		}
	}
}

// TestEquiJoinCSRStaleFallsBack asserts a CSR that does not cover the right
// side (stale length, wrong key column) is ignored in favor of a hash build.
func TestEquiJoinCSRStaleFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	r := randVector(rng, 20)
	s := randMatrix(rng, 20, 80)
	want := EquiJoin(r, s, EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin})

	stale := relation.BuildCSR(s, 0, 1, 2)
	s.Append(relation.Tuple{value.Int(3), value.Int(4), value.Float(1)}) // not extended
	fresh := EquiJoin(r, s, EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin})
	got := EquiJoin(r, s, EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin, RightCSR: stale})
	wantSameBytes(t, "stale csr ignored", got, fresh)
	if got.Len() == want.Len() {
		t.Fatal("append should have changed the join output; test is vacuous")
	}

	wrongCol := relation.BuildCSR(s, 1, 0, 2)
	got = EquiJoin(r, s, EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin, RightCSR: wrongCol})
	wantSameBytes(t, "wrong-column csr ignored", got, fresh)
}

// TestFusedCSRAfterExtend asserts both fused kernels see rows appended after
// the CSR build (tail chains) identically to fresh hash structures.
func TestFusedCSRAfterExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	sr := semiring.PlusTimes()
	a := randMatrix(rng, 20, 80)
	csrMV := relation.BuildCSR(a, 1, 0, 2)
	csrMM := relation.BuildCSR(a, 1, -1, 2)
	for i := 0; i < 30; i++ {
		a.Append(relation.Tuple{
			value.Int(rng.Int63n(25)), value.Int(rng.Int63n(25)), value.Float(float64(rng.Intn(5))),
		})
	}
	csrMV.Extend(a)
	csrMM.Extend(a)
	c := randVector(rng, 25)
	idx := relation.BuildHashIndex(a, []int{1})
	dict := relation.BuildColumnDict(a, 0)
	wantSameBytes(t, "mv after extend",
		FusedMVJoinCSR(a, c, csrMV, NodeVec(), sr, nil, nil),
		FusedMVJoin(a, c, idx, dict, EdgeMat(), NodeVec(), 0, sr, nil, nil))
	b := randMatrix(rng, 25, 100)
	wantSameBytes(t, "mm after extend",
		FusedMMJoinCSR(b, a, csrMM, false, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, nil, nil),
		FusedMMJoin(b, a, idx, false, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, nil, nil))
}

// benchGraph builds a dense-ID random graph big enough that probe cost
// dominates setup.
func benchGraph(nodes, edges int) (*relation.Relation, *relation.Relation) {
	rng := rand.New(rand.NewSource(7))
	a := randMatrix(rng, nodes, edges)
	c := randVector(rng, nodes)
	return a, c
}

func BenchmarkFusedMVJoinHash(b *testing.B) {
	a, c := benchGraph(4096, 32768)
	idx := relation.BuildHashIndex(a, []int{0})
	dict := relation.BuildColumnDict(a, 1)
	sr := semiring.PlusTimes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FusedMVJoin(a, c, idx, dict, EdgeMat(), NodeVec(), 1, sr, nil, nil)
	}
}

func BenchmarkFusedMVJoinCSR(b *testing.B) {
	a, c := benchGraph(4096, 32768)
	csr := relation.BuildCSR(a, 0, 1, 2)
	sr := semiring.PlusTimes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FusedMVJoinCSR(a, c, csr, NodeVec(), sr, nil, nil)
	}
}

func BenchmarkFusedMMJoinHash(b *testing.B) {
	a, _ := benchGraph(512, 4096)
	bb, _ := benchGraph(512, 4096)
	idx := relation.BuildHashIndex(bb, []int{0})
	sr := semiring.MinPlus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FusedMMJoin(a, bb, idx, false, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, nil, nil)
	}
}

func BenchmarkFusedMMJoinCSR(b *testing.B) {
	a, _ := benchGraph(512, 4096)
	bb, _ := benchGraph(512, 4096)
	csr := relation.BuildCSR(bb, 0, -1, 2)
	sr := semiring.MinPlus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FusedMMJoinCSR(a, bb, csr, false, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, nil, nil)
	}
}

func BenchmarkEquiJoinHashCached(b *testing.B) {
	_, r := benchGraph(4096, 1)
	s, _ := benchGraph(4096, 32768)
	idx := relation.BuildHashIndex(s, []int{0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EquiJoin(r, s, EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin, RightHash: idx})
	}
}

func BenchmarkEquiJoinCSR(b *testing.B) {
	_, r := benchGraph(4096, 1)
	s, _ := benchGraph(4096, 32768)
	csr := relation.BuildCSR(s, 0, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EquiJoin(r, s, EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin, RightCSR: csr})
	}
}

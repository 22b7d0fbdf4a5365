package ra

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func pairRel(pairs ...[2]int64) *relation.Relation {
	r := relation.New(schema.Cols(value.KindInt, "a", "b"))
	for _, p := range pairs {
		r.AppendVals(value.Int(p[0]), value.Int(p[1]))
	}
	return r
}

func TestTupleSetDiffAdd(t *testing.T) {
	s := NewTupleSet(pairRel([2]int64{1, 1}, [2]int64{2, 2}, [2]int64{1, 1}))
	if s.Len() != 2 {
		t.Fatalf("seed should dedup: len = %d, want 2", s.Len())
	}
	if !s.Contains(relation.Tuple{value.Int(1), value.Int(1)}) {
		t.Error("seeded tuple missing")
	}
	// One old row, one new row appearing twice: the delta is the new row
	// once (Difference-after-Distinct semantics).
	d, old := s.DiffAdd(pairRel([2]int64{2, 2}, [2]int64{3, 3}, [2]int64{3, 3}))
	if d.Len() != 1 || d.Tuples[0][0].AsInt() != 3 {
		t.Fatalf("DiffAdd delta = %v, want just (3,3)", d.Tuples)
	}
	if !old {
		t.Error("(2,2) was in the set before the call: old must be true")
	}
	if s.Len() != 3 {
		t.Fatalf("set should have absorbed the delta: len = %d, want 3", s.Len())
	}
	// A second pass with the same rows is empty: the set persists.
	if d2, _ := s.DiffAdd(pairRel([2]int64{3, 3})); d2.Len() != 0 {
		t.Fatalf("re-adding known rows produced %d rows", d2.Len())
	}
}

// TestTupleSetDiffAddOldIsNotDuplicate: a batch that repeats a new row and
// re-derives nothing already in the set reports no re-derivation — an
// in-batch duplicate is not a cycle.
func TestTupleSetDiffAddOldIsNotDuplicate(t *testing.T) {
	s := NewTupleSet(pairRel([2]int64{1, 1}))
	d, old := s.DiffAdd(pairRel([2]int64{4, 4}, [2]int64{5, 5}, [2]int64{4, 4}))
	if d.Len() != 2 || old {
		t.Fatalf("DiffAdd = %v, old %v; want (4,4), (5,5) and old false", d.Tuples, old)
	}
	if _, old := s.DiffAdd(pairRel([2]int64{6, 6}, [2]int64{5, 5})); !old {
		t.Error("(5,5) was added by the previous call: old must be true")
	}
}

func TestTupleSetArityMismatch(t *testing.T) {
	s := NewTupleSet(pairRel([2]int64{1, 1}))
	if s.Contains(relation.Tuple{value.Int(1)}) {
		t.Error("shorter tuple must not be a member")
	}
	narrow := relation.New(schema.Cols(value.KindInt, "x"))
	narrow.AppendVals(value.Int(9))
	// Mismatched arity degrades to a plain Difference without touching
	// (or crashing) the set.
	if d, _ := s.DiffAdd(narrow); d.Len() != 1 {
		t.Fatalf("mismatched DiffAdd returned %d rows, want 1", d.Len())
	}
	if s.Len() != 1 {
		t.Fatalf("mismatched DiffAdd mutated the set: len = %d", s.Len())
	}
}

// The satellite's proof obligation: with a seeded set, each iteration of a
// growing accumulation costs O(|Δ|); with plain Difference it costs O(|R|)
// because the membership hash is rebuilt from the full accumulated relation
// every time. The two benchmarks run the same iteration schedule — |R| grows
// by a constant-size delta per round — so their ns/op gap is the rebuild.
const (
	diffBenchRounds = 200
	diffBenchDelta  = 32
)

func benchDeltas() []*relation.Relation {
	ds := make([]*relation.Relation, diffBenchRounds)
	for i := range ds {
		d := relation.NewWithCap(schema.Cols(value.KindInt, "a", "b"), diffBenchDelta)
		for j := 0; j < diffBenchDelta; j++ {
			v := int64(i*diffBenchDelta + j)
			d.AppendVals(value.Int(v), value.Int(v))
		}
		ds[i] = d
	}
	return ds
}

func BenchmarkSeededDiff(b *testing.B) {
	deltas := benchDeltas()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewTupleSet(deltas[0])
		for _, d := range deltas[1:] {
			if out, _ := s.DiffAdd(d); out.Len() != diffBenchDelta {
				b.Fatalf("delta len = %d", out.Len())
			}
		}
	}
}

func BenchmarkFullDiff(b *testing.B) {
	deltas := benchDeltas()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc := deltas[0].Clone()
		for _, d := range deltas[1:] {
			out := Difference(d, acc)
			if out.Len() != diffBenchDelta {
				b.Fatalf("delta len = %d", out.Len())
			}
			for _, t := range out.Tuples {
				acc.Append(t)
			}
		}
	}
}

// TestSeededDiffMatchesFullDiff ties the benchmarks together: both
// strategies yield identical per-round deltas.
func TestSeededDiffMatchesFullDiff(t *testing.T) {
	deltas := benchDeltas()[:8]
	s := NewTupleSet(deltas[0])
	acc := deltas[0].Clone()
	for round, d := range deltas[1:] {
		// Mix in some already-seen rows to exercise the dedup path.
		probe := d.Clone()
		for _, old := range acc.Tuples[:4] {
			probe.Append(old.Clone())
		}
		want := Difference(probe, acc)
		got, _ := s.DiffAdd(probe)
		if fmt.Sprint(multisetInts(got)) != fmt.Sprint(multisetInts(want)) {
			t.Fatalf("round %d: seeded %v != full %v", round, got.Tuples, want.Tuples)
		}
		for _, tu := range want.Tuples {
			acc.Append(tu)
		}
	}
}

func multisetInts(r *relation.Relation) map[int64]int {
	m := map[int64]int{}
	for _, tu := range r.Tuples {
		m[tu[0].AsInt()]++
	}
	return m
}

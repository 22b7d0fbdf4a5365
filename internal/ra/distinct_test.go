package ra

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// distinctRef is the per-hash bucket-list Distinct: keep a tuple unless an
// earlier kept tuple is value.Equal to it.
func distinctRef(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Sch)
	seen := map[uint64][]relation.Tuple{}
	for _, t := range r.Tuples {
		dup := false
		for _, prev := range seen[t.Hash()] {
			dup = dup || prev.Equal(t)
		}
		if !dup {
			seen[t.Hash()] = append(seen[t.Hash()], t)
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// TestDistinctMatchesReference: the chained hash table keeps the same tuples
// in the same order as the bucket-list reference — over NULL, NaN (never
// equal to itself, so every NaN row is kept), -0 beside +0 and Int beside an
// equal Float (equal values with distinct spellings: the first one seen is
// kept) — and shares them with its input.
func TestDistinctMatchesReference(t *testing.T) {
	dom := []value.Value{value.Int(0), value.Int(1), value.Float(1), value.Float(0.5),
		value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Null}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		r := relation.New(schema.Schema{{Name: "a"}, {Name: "b"}})
		for i := rng.Intn(60); i > 0; i-- {
			r.Append(relation.Tuple{dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))]})
		}
		got, want := Distinct(r), distinctRef(r)
		if got.Len() != want.Len() {
			t.Fatalf("trial %d: %d rows, reference %d", trial, got.Len(), want.Len())
		}
		for i := range want.Tuples {
			if &got.Tuples[i][0] != &want.Tuples[i][0] {
				t.Fatalf("trial %d row %d: kept %v, reference %v", trial, i, got.Tuples[i], want.Tuples[i])
			}
		}
	}
}

// reachStep is a recursive reachability step's Distinct input: every
// frontier node's successors over a random graph, so most rows repeat.
func reachStep() *relation.Relation {
	rng := rand.New(rand.NewSource(1))
	const nodes, edges = 1000, 29000
	r := relation.NewWithCap(schema.Cols(value.KindInt, "T"), edges)
	for i := 0; i < edges; i++ {
		r.Append(relation.Tuple{value.Int(int64(rng.Intn(nodes)))})
	}
	return r
}

// BenchmarkDistinctReachStep reports the allocations of one reach-shaped
// Distinct: 29 000 input rows that keep ~1 000.
func BenchmarkDistinctReachStep(b *testing.B) {
	r := reachStep()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distinct(r)
	}
}

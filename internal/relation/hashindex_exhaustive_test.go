package relation

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// hashIndexRows bounds the bounded-exhaustive HashIndex check: every
// relation of at most this many rows is enumerated. scripts/check.sh
// raises it.
var hashIndexRows = flag.Int("hashindex.rows", 3, "largest relation the bounded-exhaustive HashIndex check enumerates")

// hashIndexKeys is the key universe: dense keys, NULL, the spellings
// value.Equal identifies with them (Float 1.0, -0.0), and keys that keep an
// index out of the dense layout or map to no slot: NaN, a fraction, a
// negative, a string and a key beyond the dense bound.
var hashIndexKeys = []value.Value{
	value.Int(0), value.Int(1), value.Int(2), value.Null,
	value.Float(1), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
	value.Float(0.5), value.Int(-1), value.Str("a"), value.Int(1 << 20),
}

// probeRef is the reference probe: a linear scan for the rows whose key
// equals k under value.Equal, in row order.
func probeRef(r *Relation, k value.Value) []int {
	var out []int
	for i, t := range r.Tuples {
		if t[0].Equal(k) {
			out = append(out, i)
		}
	}
	return out
}

// checkIndex probes idx, which indexes r's column 0, with every universe
// key from column 1 of the probe tuple and returns the first disagreement
// with the reference.
func checkIndex(idx *HashIndex, r *Relation, how string) string {
	for _, k := range hashIndexKeys {
		got := idx.Probe(Tuple{value.Str("x"), k}, []int{1})
		want := probeRef(r, k)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Sprintf("%s over keys %v: probe %v = rows %v, want %v", how, keysOf(r), k, got, want)
		}
	}
	return ""
}

func keysOf(r *Relation) []value.Value {
	out := make([]value.Value, r.Len())
	for i, t := range r.Tuples {
		out[i] = t[0]
	}
	return out
}

// hashIndexMismatch enumerates every relation of at most maxRows keys and
// checks, against the reference, the index built over it, that index after
// one Add of each universe key, and an index built empty and fed the rows
// one Add at a time. It returns the first disagreement, or "".
func hashIndexMismatch(maxRows int) string {
	sch := schema.Schema{{Name: "k"}}
	var walk func(keys []value.Value) string
	walk = func(keys []value.Value) string {
		r := New(sch)
		for _, k := range keys {
			r.Append(Tuple{k})
		}
		if bad := checkIndex(BuildHashIndex(r, []int{0}), r, "build"); bad != "" {
			return bad
		}
		for _, k := range hashIndexKeys {
			grown := &Relation{Sch: sch, Tuples: append([]Tuple(nil), r.Tuples...)}
			idx := BuildHashIndex(grown, []int{0})
			grown.Append(Tuple{k})
			idx.Add(r.Len())
			if bad := checkIndex(idx, grown, "build, then Add"); bad != "" {
				return bad
			}
		}
		inc := New(sch)
		idx := BuildHashIndex(inc, []int{0})
		for _, t := range r.Tuples {
			inc.Append(t)
			idx.Add(inc.Len() - 1)
		}
		if bad := checkIndex(idx, inc, "Add row by row"); bad != "" {
			return bad
		}
		if len(keys) == maxRows {
			return ""
		}
		for _, k := range hashIndexKeys {
			if bad := walk(append(keys[:len(keys):len(keys)], k)); bad != "" {
				return bad
			}
		}
		return ""
	}
	return walk(nil)
}

// TestHashIndexExhaustive checks both layouts of HashIndex — the dense row
// chains and the buckets — against a linear value.Equal scan on every
// relation up to the bound. hashindex_faults_test.go checks that it catches
// each planted fault of the dense layout.
func TestHashIndexExhaustive(t *testing.T) {
	if bad := hashIndexMismatch(*hashIndexRows); bad != "" {
		t.Fatal(bad)
	}
}

// TestHashIndexDenseLayout pins which key sets take the dense layout: one
// column of NULL and small non-negative integral keys, and nothing else.
func TestHashIndexDenseLayout(t *testing.T) {
	sch := schema.Schema{{Name: "k"}, {Name: "v"}}
	rel := func(keys ...value.Value) *Relation {
		r := New(sch)
		for _, k := range keys {
			r.Append(Tuple{k, value.Int(0)})
		}
		return r
	}
	for _, c := range []struct {
		name  string
		r     *Relation
		cols  []int
		dense bool
	}{
		{"node IDs", rel(value.Int(3), value.Float(0), value.Null), []int{0}, true},
		{"empty", rel(), []int{0}, true},
		{"two columns", rel(value.Int(3)), []int{0, 1}, false},
		{"no column", rel(value.Int(3)), nil, false},
		{"fraction", rel(value.Float(0.5)), []int{0}, false},
		{"negative", rel(value.Int(-1)), []int{0}, false},
		{"string", rel(value.Str("a")), []int{0}, false},
		{"beyond the bound", rel(value.Int(denseBound(1, indexFloor))), []int{0}, false},
		{"at the bound's edge", rel(value.Int(denseBound(1, indexFloor) - 1)), []int{0}, true},
		{"one row keyed 1000", rel(value.Int(1000)), []int{0}, false},
		{"300 rows up to 1000", rel(append(make([]value.Value, 299), value.Int(1000))...), []int{0}, true},
	} {
		if got := BuildHashIndex(c.r, c.cols).buckets == nil; got != c.dense {
			t.Errorf("%s: dense = %v, want %v", c.name, got, c.dense)
		}
	}
}

// BenchmarkHashIndexBuildProbe builds an index on 1 000 node IDs and probes
// it with 29 000 edge sources, then the reverse — the two shapes of a hash
// join between a vertex and an edge table of a graph with average degree 29
// — and builds one on three node IDs up to 999 (a small Δ or semi-join build
// side, which stays in buckets) probed with the 1 000 nodes.
func BenchmarkHashIndexBuildProbe(b *testing.B) {
	const nodes, edges = 1000, 29000
	sch := schema.Schema{{Name: "k"}, {Name: "v"}}
	v, e := NewWithCap(sch, nodes), NewWithCap(sch, edges)
	for i := 0; i < nodes; i++ {
		v.Append(Tuple{value.Int(int64(i)), value.Float(1)})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < edges; i++ {
		e.Append(Tuple{value.Int(rng.Int63n(nodes)), value.Float(1)})
	}
	tiny := NewWithCap(sch, 3)
	for _, id := range []int64{0, 500, 999} {
		tiny.Append(Tuple{value.Int(id), value.Float(1)})
	}
	for _, c := range []struct {
		name         string
		build, probe *Relation
		matches      int
	}{{"nodes", v, e, edges}, {"edges", e, v, edges}, {"tiny", tiny, v, 3}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx := BuildHashIndex(c.build, []int{0})
				n := 0
				for _, t := range c.probe.Tuples {
					idx.ProbeEach(t, []int{0}, func(int) bool {
						n++
						return true
					})
				}
				if n != c.matches {
					b.Fatalf("%d matches, want %d", n, c.matches)
				}
			}
		})
	}
}

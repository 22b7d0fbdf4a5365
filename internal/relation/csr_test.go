package relation

import (
	"math/rand"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func edgeRel(edges [][3]int64) *Relation {
	r := New(schema.Schema{
		{Name: "F", Type: value.KindInt},
		{Name: "T", Type: value.KindInt},
		{Name: "ew", Type: value.KindFloat},
	})
	for _, e := range edges {
		r.Append(Tuple{value.Int(e[0]), value.Int(e[1]), value.Float(float64(e[2]))})
	}
	return r
}

func randomEdges(rng *rand.Rand, n, maxID int) [][3]int64 {
	out := make([][3]int64, n)
	for i := range out {
		out[i] = [3]int64{int64(rng.Intn(maxID)), int64(rng.Intn(maxID)), int64(rng.Intn(10))}
	}
	return out
}

// probeRows is the hash-path reference: the row numbers matching a probe
// value through a HashIndex on {col}.
func probeRows(idx *HashIndex, v value.Value) []int {
	var rows []int
	idx.ProbeEach(Tuple{v}, []int{0}, func(row int) bool {
		rows = append(rows, row)
		return true
	})
	return rows
}

// assertCSRMatchesHash checks, for every probe value, that the CSR yields
// the same rows in the same order as a hash-index probe.
func assertCSRMatchesHash(t *testing.T, rel *Relation, c *CSR, probes []value.Value) {
	t.Helper()
	idx := BuildHashIndex(rel, []int{c.SrcCol})
	for _, p := range probes {
		want := probeRows(idx, p)
		var got []int32
		if ord, ok := c.SrcOrd(p); ok {
			got = c.EdgeRows(ord, nil)
		}
		if len(got) != len(want) {
			t.Fatalf("probe %v: csr %d rows, hash %d rows", p, len(got), len(want))
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("probe %v: row %d: csr %d, hash %d", p, i, got[i], want[i])
			}
		}
	}
}

func intProbes(maxID int) []value.Value {
	out := make([]value.Value, 0, maxID+3)
	for i := -1; i <= maxID+1; i++ {
		out = append(out, value.Int(int64(i)))
	}
	return out
}

func TestCSRMatchesHashProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := edgeRel(randomEdges(rng, 500, 60))
	c := BuildCSR(rel, 0, 1, 2)
	if c.Len() != rel.Len() {
		t.Fatalf("Len = %d, want %d", c.Len(), rel.Len())
	}
	if !c.Covers(rel) {
		t.Fatal("CSR does not cover its own relation")
	}
	assertCSRMatchesHash(t, rel, c, intProbes(60))
}

func TestCSRTargetsAndWeights(t *testing.T) {
	rel := edgeRel([][3]int64{{0, 1, 5}, {0, 2, 7}, {1, 2, 9}, {0, 1, 3}})
	c := BuildCSR(rel, 0, 1, 2)
	ord, ok := c.SrcOrd(value.Int(0))
	if !ok {
		t.Fatal("source 0 not found")
	}
	if got := c.Degree(ord); got != 3 {
		t.Fatalf("degree(0) = %d, want 3", got)
	}
	for e := c.Offsets[ord]; e < c.Offsets[ord+1]; e++ {
		row := c.Rows[e]
		if !c.Dst.Keys[c.Targets[e]].Equal(rel.Tuples[row][1]) {
			t.Fatalf("edge %d: target mismatch", e)
		}
		if !c.Weights[e].Equal(rel.Tuples[row][2]) {
			t.Fatalf("edge %d: weight mismatch", e)
		}
	}
}

func TestCSRCrossKindNumericEquality(t *testing.T) {
	// Int(1) and Float(1.0) are the same key under value.Equal; the CSR must
	// match them interchangeably, exactly like a hash probe.
	r := New(schema.Schema{{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt}})
	r.Append(Tuple{value.Int(1), value.Int(10)})
	r.Append(Tuple{value.Float(1.0), value.Int(11)})
	r.Append(Tuple{value.Float(2.5), value.Int(12)})
	c := BuildCSR(r, 0, 1, -1)
	probes := []value.Value{
		value.Int(1), value.Float(1.0), value.Float(2.5), value.Int(2),
		value.Float(1.5), value.Null, value.Str("1"),
	}
	assertCSRMatchesHash(t, r, c, probes)
}

func TestCSRNullAndStringKeys(t *testing.T) {
	r := New(schema.Schema{{Name: "F"}, {Name: "T", Type: value.KindInt}})
	r.Append(Tuple{value.Null, value.Int(1)})
	r.Append(Tuple{value.Str("a"), value.Int(2)})
	r.Append(Tuple{value.Null, value.Int(3)})
	r.Append(Tuple{value.Str("b"), value.Int(4)})
	c := BuildCSR(r, 0, 1, -1)
	probes := []value.Value{value.Null, value.Str("a"), value.Str("b"), value.Str("c"), value.Int(0)}
	assertCSRMatchesHash(t, r, c, probes)
}

func TestCSRExtendMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	all := randomEdges(rng, 400, 80)
	rel := edgeRel(all[:250])
	c := BuildCSR(rel, 0, 1, 2)
	// Append in two batches, extending after each (the noteAppend shape).
	for _, cut := range []int{320, 400} {
		for _, e := range all[rel.Len():cut] {
			rel.Append(Tuple{value.Int(e[0]), value.Int(e[1]), value.Float(float64(e[2]))})
		}
		c.Extend(rel)
	}
	if c.Len() != rel.Len() {
		t.Fatalf("Len = %d after extend, want %d", c.Len(), rel.Len())
	}
	assertCSRMatchesHash(t, rel, c, intProbes(80))
	// And the target/weight streams must agree with a fresh build, edge for
	// edge (same rows in the same order means same ordinal resolution).
	fresh := BuildCSR(rel, 0, 1, 2)
	for s := 0; s < fresh.NumSrc(); s++ {
		key := fresh.Src.Keys[s]
		ord, ok := c.SrcOrd(key)
		if !ok {
			t.Fatalf("key %v missing after extend", key)
		}
		a, b := c.EdgeRows(ord, nil), fresh.EdgeRows(int32(s), nil)
		if len(a) != len(b) {
			t.Fatalf("key %v: %d rows extended, %d fresh", key, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("key %v: row order diverged at %d: %d vs %d", key, i, a[i], b[i])
			}
		}
	}
}

func TestCSRExtendNewSourceKeys(t *testing.T) {
	rel := edgeRel([][3]int64{{0, 1, 1}, {1, 2, 1}})
	c := BuildCSR(rel, 0, 1, 2)
	rel.Append(Tuple{value.Int(5), value.Int(0), value.Float(1)})
	rel.Append(Tuple{value.Int(5), value.Int(1), value.Float(2)})
	c.Extend(rel)
	ord, ok := c.SrcOrd(value.Int(5))
	if !ok {
		t.Fatal("new source key 5 not found after extend")
	}
	rows := c.EdgeRows(ord, nil)
	if len(rows) != 2 || rows[0] != 2 || rows[1] != 3 {
		t.Fatalf("rows for new key = %v, want [2 3]", rows)
	}
	assertCSRMatchesHash(t, rel, c, intProbes(6))
}

func TestCSRDenseFallback(t *testing.T) {
	// A huge sparse ID disables the dense map; probes must still resolve
	// through the dictionary buckets.
	rel := edgeRel([][3]int64{{0, 1, 1}, {1 << 40, 2, 1}, {3, 4, 1}})
	c := BuildCSR(rel, 0, 1, 2)
	if !c.Src.sparse {
		t.Fatal("dense map should be disabled for sparse IDs")
	}
	assertCSRMatchesHash(t, rel, c, []value.Value{
		value.Int(0), value.Int(3), value.Int(1 << 40), value.Int(7),
	})
	// Extending with a sparse ID after a dense build also falls back.
	rel2 := edgeRel([][3]int64{{0, 1, 1}, {1, 2, 1}})
	c2 := BuildCSR(rel2, 0, 1, 2)
	if c2.Src.sparse {
		t.Fatal("dense map should be enabled for small IDs")
	}
	rel2.Append(Tuple{value.Int(1 << 40), value.Int(0), value.Float(1)})
	c2.Extend(rel2)
	assertCSRMatchesHash(t, rel2, c2, []value.Value{
		value.Int(0), value.Int(1), value.Int(1 << 40), value.Int(9),
	})
}

func TestCSREmptyRelation(t *testing.T) {
	r := New(schema.Schema{{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt}})
	c := BuildCSR(r, 0, 1, -1)
	if c.Len() != 0 || c.NumSrc() != 0 {
		t.Fatalf("empty CSR: Len=%d NumSrc=%d", c.Len(), c.NumSrc())
	}
	if _, ok := c.SrcOrd(value.Int(0)); ok {
		t.Fatal("probe of empty CSR matched")
	}
	r.Append(Tuple{value.Int(1), value.Int(2)})
	c.Extend(r)
	assertCSRMatchesHash(t, r, c, intProbes(3))
}

func TestColumnDictLookup(t *testing.T) {
	r := New(schema.Schema{{Name: "X"}})
	vals := []value.Value{value.Int(3), value.Str("x"), value.Null, value.Float(3.0), value.Int(3)}
	for _, v := range vals {
		r.Append(Tuple{v})
	}
	d := BuildColumnDict(r, 0)
	for row, v := range vals {
		ord, ok := d.Lookup(v)
		if !ok || ord != d.Ords[row] {
			t.Fatalf("Lookup(%v) = (%d,%v), want (%d,true)", v, ord, ok, d.Ords[row])
		}
	}
	if _, ok := d.Lookup(value.Str("missing")); ok {
		t.Fatal("Lookup of absent value matched")
	}
}

// dictProbes is the probe set of the dense-map tests: cross-kind numerics,
// negatives, NULL, a string, out-of-range and non-integral values.
var dictProbes = []value.Value{
	value.Int(0), value.Int(3), value.Float(3.0), value.Float(3.5), value.Float(-0.0),
	value.Int(-1), value.Int(-5), value.Float(-1.0), value.Null, value.Str("3"),
	value.Int(1 << 40), value.Float(1e300), value.Int(2047), value.Int(9),
}

// assertDenseMatchesBuckets checks that Lookup agrees with the bucket path
// of the same dictionary on every key and every probe.
func assertDenseMatchesBuckets(t *testing.T, d *ColumnDict) {
	t.Helper()
	buckets := *d
	buckets.dense, buckets.sparse = nil, true
	for _, v := range append(append([]value.Value(nil), d.Keys...), dictProbes...) {
		ord, ok := d.Lookup(v)
		wantOrd, wantOK := buckets.Lookup(v)
		if ok != wantOK || ok && ord != wantOrd {
			t.Fatalf("Lookup(%v) = (%d,%v), bucket path (%d,%v)", v, ord, ok, wantOrd, wantOK)
		}
	}
}

func dictOf(vals ...value.Value) *Relation {
	r := New(schema.Schema{{Name: "X"}})
	for _, v := range vals {
		r.Append(Tuple{v})
	}
	return r
}

func TestColumnDictDenseMatchesBuckets(t *testing.T) {
	cases := []struct {
		name   string
		vals   []value.Value
		sparse bool
	}{
		{"ints", []value.Value{value.Int(5), value.Int(3), value.Int(0), value.Int(3), value.Int(9)}, false},
		{"integral_floats", []value.Value{value.Float(3.0), value.Int(1), value.Float(7)}, false},
		{"negative_id", []value.Value{value.Int(2), value.Int(-1), value.Int(3)}, true},
		{"null_key", []value.Value{value.Int(2), value.Null, value.Int(3)}, true},
		{"fractional_key", []value.Value{value.Int(2), value.Float(3.5)}, true},
		{"string_key", []value.Value{value.Int(3), value.Str("3")}, true},
		{"sparse_ids", []value.Value{value.Int(0), value.Int(1 << 40), value.Int(3)}, true},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := BuildColumnDict(dictOf(tc.vals...), 0)
			if d.sparse != tc.sparse {
				t.Fatalf("sparse = %v, want %v", d.sparse, tc.sparse)
			}
			assertDenseMatchesBuckets(t, d)
		})
	}
	// Int(3) and Float(3.0) are one key: the dense map resolves either probe
	// to the ordinal of whichever kind was encoded.
	d := BuildColumnDict(dictOf(value.Int(1), value.Float(3.0)), 0)
	if ord, ok := d.Lookup(value.Int(3)); !ok || ord != 1 {
		t.Fatalf("Lookup(Int(3)) over Float(3.0) key = (%d,%v), want (1,true)", ord, ok)
	}
}

func TestColumnDictDenseExtend(t *testing.T) {
	r := dictOf(value.Int(0), value.Int(1), value.Int(2))
	d := BuildColumnDict(r, 0)
	// Appends that keep the keys dense grow the map in place.
	r.Append(Tuple{value.Int(40)})
	r.Append(Tuple{value.Float(41)})
	r.Append(Tuple{value.Int(1)})
	d.Extend(r)
	if d.sparse {
		t.Fatal("dense appends disabled the map")
	}
	assertDenseMatchesBuckets(t, d)
	// An appended key that breaks density falls back to the buckets for
	// good, and every earlier key still resolves.
	for _, v := range []value.Value{value.Int(1 << 40), value.Int(-3), value.Null} {
		rr := dictOf(r.Tuples[0][0], r.Tuples[3][0])
		dd := BuildColumnDict(rr, 0)
		rr.Append(Tuple{v})
		rr.Append(Tuple{value.Int(7)})
		dd.Extend(rr)
		if !dd.sparse {
			t.Fatalf("appending %v kept the dense map", v)
		}
		assertDenseMatchesBuckets(t, dd)
		for row := range rr.Tuples {
			if ord, ok := dd.Lookup(rr.Tuples[row][0]); !ok || ord != dd.Ords[row] {
				t.Fatalf("row %d key %v: Lookup = (%d,%v), want (%d,true)", row, rr.Tuples[row][0], ord, ok, dd.Ords[row])
			}
		}
	}
}

package ra

import (
	"math"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestKeyIndexLookup: the index finds a key's row under
// value.Equal — an integral float finds the integer — never find NULL or
// NaN, and report two rows sharing a key (two NULLs included) as not unique.
func TestKeyIndexLookup(t *testing.T) {
	rel := func(keys ...value.Value) *relation.Relation {
		r := relation.New(schema.Schema{{Name: "k"}})
		for _, k := range keys {
			r.Append(relation.Tuple{k})
		}
		return r
	}
	nan := value.Float(math.NaN())
	for _, c := range []struct {
		name   string
		keys   []value.Value
		unique bool
	}{
		{"dense ints", []value.Value{value.Int(3), value.Int(0), value.Float(7), value.Null}, true},
		{"floats and a NaN", []value.Value{value.Float(0.5), value.Int(2), nan, nan}, true},
		{"strings", []value.Value{value.Str("a"), value.Str("b")}, true},
		{"Int and Float alike", []value.Value{value.Int(2), value.Float(2)}, false},
		{"two NULLs", []value.Value{value.Int(1), value.Null, value.Null}, false},
	} {
		r := rel(c.keys...)
		k := NewKeyIndex(r, 0)
		if k.Unique() != c.unique || !k.Covers(r, 0) {
			t.Errorf("%s: unique %v covers %v", c.name, k.Unique(), k.Covers(r, 0))
		}
		if !c.unique {
			continue
		}
		for row, key := range c.keys {
			got, found := int32(0), false
			if !key.IsNull() {
				got, found = k.lookup(relation.Tuple{key}, []int{0})
			}
			nanKey := key.K == value.KindFloat && math.IsNaN(key.F)
			if found == (key.IsNull() || nanKey) || found && int(got) != row {
				t.Errorf("%s: lookup %v = %d %v, want row %d", c.name, key, got, found, row)
			}
		}
		if _, found := k.lookup(relation.Tuple{value.Int(99)}, []int{0}); found {
			t.Errorf("%s: found an absent key", c.name)
		}
	}
}

// TestSameBag: bags compare under SameRow — a NaN row equals a NaN row, in
// any order — and count multiplicities.
func TestSameBag(t *testing.T) {
	nan := value.Float(math.NaN())
	mk := func(rows ...relation.Tuple) *relation.Relation {
		return &relation.Relation{Sch: schema.Schema{{Name: "a"}, {Name: "b"}}, Tuples: rows}
	}
	a := mk(relation.Tuple{value.Int(1), nan}, relation.Tuple{value.Int(2), value.Null}, relation.Tuple{value.Int(1), nan})
	b := mk(relation.Tuple{value.Int(2), value.Null}, relation.Tuple{value.Float(1), value.Float(-math.NaN())}, relation.Tuple{value.Int(1), nan})
	if !SameBag(a, b) || !SameBag(a, a) {
		t.Error("equal bags compared unequal")
	}
	c := mk(relation.Tuple{value.Int(2), value.Null}, relation.Tuple{value.Int(2), value.Null}, relation.Tuple{value.Int(1), nan})
	if SameBag(a, c) || SameBag(a, mk(a.Tuples[:2]...)) {
		t.Error("unequal bags compared equal")
	}
}

// Package relation implements in-memory relations (bags of tuples with a
// schema), the working currency of the relational-algebra operators.
//
// A Relation is a bag: duplicates are allowed and meaningful (SQL UNION ALL
// keeps them; DISTINCT and set operations remove them explicitly).
package relation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
)

// Tuple is one row. Tuples are value slices; relations produced by the ra
// operators may share tuples with their (immutable-snapshot) inputs, but no
// operator mutates a tuple after handing it out, and the Tuples slice of
// every operator output is freshly allocated — see the aliasing contract in
// package ra.
type Tuple []value.Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports positional equality of two tuples under value.Equal.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Hash returns a hash of the whole tuple, consistent with Equal.
func (t Tuple) Hash() uint64 {
	var h uint64
	for _, v := range t {
		h = value.HashCombine(h, v)
	}
	return h
}

// HashOn returns a hash of the tuple restricted to the given columns.
func (t Tuple) HashOn(cols []int) uint64 {
	var h uint64
	for _, c := range cols {
		h = value.HashCombine(h, t[c])
	}
	return h
}

// EqualOn reports equality of two tuples on the given column subsets.
func (t Tuple) EqualOn(cols []int, o Tuple, ocols []int) bool {
	for i := range cols {
		if !t[cols[i]].Equal(o[ocols[i]]) {
			return false
		}
	}
	return true
}

// NullOn reports whether any of the given columns holds NULL: an equi-join
// key that does, matches nothing under SQL's =, NULL included.
func (t Tuple) NullOn(cols []int) bool {
	for _, c := range cols {
		if t[c].IsNull() {
			return true
		}
	}
	return false
}

// CompareOn orders tuples lexicographically on the given columns.
func (t Tuple) CompareOn(cols []int, o Tuple, ocols []int) int {
	for i := range cols {
		if c := t[cols[i]].Compare(o[ocols[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a schema plus a bag of tuples.
type Relation struct {
	Sch    schema.Schema
	Tuples []Tuple
}

// New returns an empty relation with the given schema.
func New(s schema.Schema) *Relation { return &Relation{Sch: s} }

// NewWithCap returns an empty relation with preallocated capacity.
func NewWithCap(s schema.Schema, n int) *Relation {
	return &Relation{Sch: s, Tuples: make([]Tuple, 0, n)}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Append adds a tuple; the relation takes ownership of t.
func (r *Relation) Append(t Tuple) {
	if len(t) != r.Sch.Arity() {
		panic(fmt.Sprintf("relation: tuple arity %d != schema arity %d", len(t), r.Sch.Arity()))
	}
	r.Tuples = append(r.Tuples, t)
}

// AppendVals adds a tuple built from the given values.
func (r *Relation) AppendVals(vs ...value.Value) {
	t := make(Tuple, len(vs))
	copy(t, vs)
	r.Append(t)
}

// At returns the i-th tuple.
func (r *Relation) At(i int) Tuple { return r.Tuples[i] }

// Clone returns a deep copy (schema shared, tuples copied).
func (r *Relation) Clone() *Relation {
	out := NewWithCap(r.Sch, r.Len())
	for _, t := range r.Tuples {
		out.Tuples = append(out.Tuples, t.Clone())
	}
	return out
}

// Truncate removes all tuples but keeps capacity (the SQL TRUNCATE TABLE
// used between PSM iterations).
func (r *Relation) Truncate() { r.Tuples = r.Tuples[:0] }

// SortBy sorts the relation in place lexicographically on cols.
func (r *Relation) SortBy(cols []int) {
	sort.SliceStable(r.Tuples, func(i, j int) bool {
		return r.Tuples[i].CompareOn(cols, r.Tuples[j], cols) < 0
	})
}

// IsSortedBy reports whether the relation is sorted on cols.
func (r *Relation) IsSortedBy(cols []int) bool {
	for i := 1; i < len(r.Tuples); i++ {
		if r.Tuples[i-1].CompareOn(cols, r.Tuples[i], cols) > 0 {
			return false
		}
	}
	return true
}

// SameRows reports whether a and b are views over the same tuple rows: equal
// length and a shared backing array. Executors use it to validate a cached
// index against a relation header that was re-wrapped (e.g. re-qualified by
// the SQL resolver) around the same materialization; the length check rejects
// stale shorter headers left behind by in-place appends.
func SameRows(a, b *Relation) bool {
	if a == nil || b == nil || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	return len(a.Tuples) == 0 || &a.Tuples[0] == &b.Tuples[0]
}

// Equal reports whether two relations contain the same bag of tuples
// (order-insensitive, multiplicity-sensitive). Schemas must be
// union-compatible. Intended for tests and fixpoint checks.
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() || !r.Sch.UnionCompatible(o.Sch) {
		return false
	}
	counts := make(map[uint64][]countedTuple, r.Len())
	for _, t := range r.Tuples {
		h := t.Hash()
		bucket := counts[h]
		found := false
		for i := range bucket {
			if bucket[i].t.Equal(t) {
				bucket[i].n++
				found = true
				break
			}
		}
		if !found {
			bucket = append(bucket, countedTuple{t: t, n: 1})
		}
		counts[h] = bucket
	}
	for _, t := range o.Tuples {
		h := t.Hash()
		bucket := counts[h]
		found := false
		for i := range bucket {
			if bucket[i].t.Equal(t) {
				if bucket[i].n == 0 {
					return false
				}
				bucket[i].n--
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

type countedTuple struct {
	t Tuple
	n int
}

// String renders the relation (schema plus tuples) for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Sch.String())
	b.WriteByte('\n')
	for _, t := range r.Tuples {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

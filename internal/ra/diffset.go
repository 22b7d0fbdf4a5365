package ra

import (
	"repro/internal/relation"
)

// TupleSet is a persistent membership set over the rows accumulated into a
// growing relation. Difference builds its hash set from the full right-hand
// side on every call — O(|R|) per iteration when R is the recursive relation
// of a WITH+ loop. A TupleSet is seeded once from the initial rows and then
// extended with each iteration's delta, so the semi-naive append path pays
// O(|Δ|) probes per iteration regardless of how large R has grown.
//
// acc, the set's distinct rows in insertion order, is its one membership
// truth. The hash index over it and the frontier kernel's visited
// structures (frontier.go) are derived from acc and each synced with it by
// position: a structure remembers how many rows of acc it has folded in and
// folds in the rest before it answers, so rows added through either path
// are seen by both.
//
// Added tuples are shared, not cloned: callers hand over ownership and must
// not mutate them afterwards (the same contract relation.Append documents).
type TupleSet struct {
	acc  *relation.Relation
	idx  *relation.HashIndex
	cols []int
	// indexed is the number of rows of acc that idx covers.
	indexed int
	// seeded is the number of rows NewTupleSet put in acc.
	seeded int
	// frontiers are the frontier kernel's visited structures, one per
	// step shape.
	frontiers []*visited
}

// NewTupleSet returns a set seeded with the distinct tuples of seed.
func NewTupleSet(seed *relation.Relation) *TupleSet {
	acc := relation.NewWithCap(seed.Sch, seed.Len())
	s := &TupleSet{acc: acc, cols: allCols(seed)}
	s.idx = relation.BuildHashIndex(acc, s.cols)
	for _, t := range seed.Tuples {
		if s.find(t) < 0 {
			s.push(t)
		}
	}
	s.seeded = acc.Len()
	return s
}

// sync indexes the rows appended to acc since the last call.
func (s *TupleSet) sync() {
	for ; s.indexed < s.acc.Len(); s.indexed++ {
		s.idx.Add(s.indexed)
	}
}

// find returns the position in acc of the row equal to t, or -1. The index
// must be synced.
func (s *TupleSet) find(t relation.Tuple) int {
	at := -1
	s.idx.ProbeEach(t, s.cols, func(row int) bool {
		at = row
		return false
	})
	return at
}

// push appends a row known to be absent, indexing it.
func (s *TupleSet) push(t relation.Tuple) {
	s.acc.Tuples = append(s.acc.Tuples, t)
	s.sync()
}

// Len returns the number of distinct tuples in the set.
func (s *TupleSet) Len() int { return s.acc.Len() }

// Arity returns the width of the set's rows.
func (s *TupleSet) Arity() int { return len(s.cols) }

// Contains reports membership; tuples of a different arity are never
// members.
func (s *TupleSet) Contains(t relation.Tuple) bool {
	if len(t) != len(s.cols) {
		return false
	}
	s.sync()
	return s.find(t) >= 0
}

// DiffAdd returns the tuples of r not already in the set, inserting them as
// it goes: Difference(r, accumulated) plus the accumulation step, in one
// O(|r|) pass. In-batch duplicates are collapsed (the first occurrence wins),
// matching Difference-after-Distinct semantics, so r needs no Distinct
// first. old reports that some row of r was already in the set before the
// call — a re-derivation, as opposed to a duplicate within r.
func (s *TupleSet) DiffAdd(r *relation.Relation) (delta *relation.Relation, old bool) {
	if r.Sch.Arity() != s.acc.Sch.Arity() {
		// Shape mismatch: the set cannot hold these rows. Fall back to a
		// plain Difference and let the caller's append raise the schema
		// error, matching the non-seeded path's behavior.
		return Difference(r, s.acc), false
	}
	s.sync()
	before := s.acc.Len()
	out := relation.New(r.Sch)
	for _, t := range r.Tuples {
		switch at := s.find(t); {
		case at < 0:
			s.push(t)
			out.Tuples = append(out.Tuples, t)
		case at < before:
			old = true
		}
	}
	return out, old
}

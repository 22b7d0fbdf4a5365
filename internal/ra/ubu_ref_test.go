package ra

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// ubuFullOuterRef is the two-pass union-by-update the streamed ubuFullOuter
// replaces, kept as its reference: materialize the full outer join of r and
// s on the keys, then coalesce(s.*, r.*) row by row into the output. With
// wantDelta it collects the coalesced rows that differ from their r side
// (SameRow: NaN equals NaN).
func ubuFullOuterRef(r, s *relation.Relation, keyCols []int, gov *govern.Governor, wantDelta bool) (out, delta *relation.Relation) {
	joined := fullOuterJoinEqual(r, s, keyCols, gov)
	arity := r.Sch.Arity()
	out = relation.NewWithCap(r.Sch, joined.Len())
	if wantDelta {
		delta = relation.New(r.Sch)
	}
	for _, t := range joined.Tuples {
		gov.MustStep(1)
		nt := make(relation.Tuple, arity)
		for i := 0; i < arity; i++ {
			nt[i] = value.Coalesce(t[arity+i], t[i])
		}
		out.Tuples = append(out.Tuples, nt)
		if wantDelta && !SameRow(nt, t[:arity]) {
			delta.Tuples = append(delta.Tuples, nt)
		}
	}
	return out, delta
}

// fullOuterJoinEqual is FullOuterJoin with union-by-update's key equality:
// value.Equal, under which a NULL key matches a NULL key (FullOuterJoin
// follows SQL's = and leaves NULL-keyed rows unmatched).
func fullOuterJoinEqual(r, s *relation.Relation, keyCols []int, gov *govern.Governor) *relation.Relation {
	out := relation.New(r.Sch.Concat(s.Sch))
	idx := relation.BuildHashIndex(s, keyCols)
	lPad, rPad := make(relation.Tuple, r.Sch.Arity()), make(relation.Tuple, s.Sch.Arity())
	matched := make([]bool, s.Len())
	for _, rt := range r.Tuples {
		gov.MustStep(1)
		matchedAny := false
		idx.ProbeEach(rt, keyCols, func(row int) bool {
			matchedAny, matched[row] = true, true
			out.Tuples = append(out.Tuples, joinTuple(rt, s.Tuples[row], nil))
			return true
		})
		if !matchedAny {
			out.Tuples = append(out.Tuples, joinTuple(rt, rPad, nil))
		}
	}
	for i, st := range s.Tuples {
		gov.MustStep(1)
		if !matched[i] {
			out.Tuples = append(out.Tuples, joinTuple(lPad, st, nil))
		}
	}
	return out
}

// ubuRandRel returns a relation (id INT, a FLOAT, b STRING) whose ids are
// drawn from [0, keys) — with repeats, so s may carry duplicate keys — and
// whose non-key columns are NULL about one time in four (NaN now and then
// in a, which never equals itself under value.Equal).
func ubuRandRel(rng *rand.Rand, rows, keys int) *relation.Relation {
	r := relation.New(schema.Schema{
		{Name: "id", Type: value.KindInt},
		{Name: "a", Type: value.KindFloat},
		{Name: "b", Type: value.KindString},
	})
	for i := 0; i < rows; i++ {
		a := value.Float(float64(rng.Intn(4)))
		switch rng.Intn(12) {
		case 0, 1, 2:
			a = value.Null
		case 3:
			a = value.Float(math.NaN())
		}
		b := value.Str(fmt.Sprint("s", rng.Intn(3)))
		if rng.Intn(4) == 0 {
			b = value.Null
		}
		r.Append(relation.Tuple{value.Int(int64(rng.Intn(keys))), a, b})
	}
	return r
}

// ubuRun runs f under a governor with the given row budget and returns the
// governor's charged rows and the abort error, if any.
func ubuRun(maxRows int64, f func(gov *govern.Governor) error) (rows int64, err error) {
	gov := govern.New(context.Background(), govern.Limits{MaxRows: maxRows})
	defer gov.Close()
	func() {
		defer govern.RecoverTo(&err)
		err = f(gov)
	}()
	return gov.Rows(), err
}

// TestUnionByUpdateMatchesReference compares the streamed full-outer
// union-by-update — UnionByUpdate and UnionByUpdateDelta — against the
// two-pass reference: same output rows in the same order, same delta, same
// governor rows, and the same BudgetError under a row budget that trips
// midway. The relations have duplicate keys in s, unmatched rows on both
// sides, and NULL non-key columns; keys are one and two columns wide.
func TestUnionByUpdateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	for trial := 0; trial < 60; trial++ {
		r := ubuRandRel(rng, rng.Intn(40), 30)
		s := ubuRandRel(rng, rng.Intn(40), 30)
		if trial%10 == 0 {
			r = ubuRandRel(rng, 0, 1)
		}
		for _, keyCols := range [][]int{{0}, {0, 2}} {
			label := fmt.Sprintf("trial %d keys %v", trial, keyCols)
			var want, wantDelta *relation.Relation
			wantRows, _ := ubuRun(0, func(gov *govern.Governor) error {
				want, wantDelta = ubuFullOuterRef(r, s, keyCols, gov, true)
				return nil
			})
			var got, gotPlain, gotDelta *relation.Relation
			rows, err := ubuRun(0, func(gov *govern.Governor) (err error) {
				got, gotDelta, err = UnionByUpdateDelta(r, s, keyCols, UBUFullOuter, gov)
				return err
			})
			plainRows, plainErr := ubuRun(0, func(gov *govern.Governor) (err error) {
				gotPlain, err = UnionByUpdate(r, s, keyCols, UBUFullOuter, gov)
				return err
			})
			if err != nil || plainErr != nil {
				t.Fatalf("%s: %v / %v", label, err, plainErr)
			}
			wantSameCells(t, label+" output", got, want)
			wantSameCells(t, label+" output (no delta)", gotPlain, want)
			wantSameCells(t, label+" delta", gotDelta, wantDelta)
			if rows != wantRows || plainRows != wantRows {
				t.Fatalf("%s: governor rows %d / %d, reference %d", label, rows, plainRows, wantRows)
			}
			if wantRows < 2 {
				continue
			}
			limit := wantRows / 2
			_, wantErr := ubuRun(limit, func(gov *govern.Governor) error {
				ubuFullOuterRef(r, s, keyCols, gov, true)
				return nil
			})
			_, err = ubuRun(limit, func(gov *govern.Governor) error {
				_, _, err := UnionByUpdateDelta(r, s, keyCols, UBUFullOuter, gov)
				return err
			})
			if wantErr == nil || !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("%s: budget %d failed with %v, reference with %v", label, limit, err, wantErr)
			}
		}
	}
}

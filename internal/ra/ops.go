package ra

import (
	"fmt"

	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/value"
)

// This file implements the paper's four operations (Section 4.1):
// MM-join, MV-join, anti-join, and union-by-update — including the
// alternative SQL-level implementations compared in Exp-1.

// MatCols locates the (F, T, ew) columns of a matrix relation.
type MatCols struct{ F, T, W int }

// VecCols locates the (ID, vw) columns of a vector relation.
type VecCols struct{ ID, W int }

// EdgeMat returns the standard column layout of an edge relation E(F,T,ew).
func EdgeMat() MatCols { return MatCols{F: 0, T: 1, W: 2} }

// NodeVec returns the standard column layout of a node relation V(ID,vw).
func NodeVec() VecCols { return VecCols{ID: 0, W: 1} }

// MMJoin computes the aggregate-join between two matrix relations
// (Eq. (3)): join a.aJoin = b.bJoin, then group by (a.aKeep, b.bKeep)
// aggregating ⊕ over a.W ⊙ b.W. For the textbook A·B, aJoin=A.T,
// aKeep=A.F, bJoin=B.F, bKeep=B.T.
func MMJoin(a, b *relation.Relation, ac, bc MatCols, aJoin, aKeep, bJoin, bKeep int, sr semiring.Semiring, algo JoinAlgo) (*relation.Relation, error) {
	joined := EquiJoin(a, b, EquiJoinSpec{
		LeftCols: []int{aJoin}, RightCols: []int{bJoin}, Algo: algo,
	})
	bOff := a.Sch.Arity()
	prodExpr := func(t relation.Tuple) (value.Value, error) {
		return sr.Times(t[ac.W], t[bOff+bc.W]), nil
	}
	out, err := GroupBy(joined, []int{aKeep, bOff + bKeep}, []AggSpec{
		SemiringAgg(schema.Column{Name: "ew", Type: value.KindFloat}, sr, prodExpr),
	})
	if err != nil {
		return nil, err
	}
	out.Sch = schema.Schema{
		{Name: "F", Type: a.Sch[aKeep].Type},
		{Name: "T", Type: b.Sch[bKeep].Type},
		{Name: "ew", Type: value.KindFloat},
	}
	return out, nil
}

// MVJoin computes the aggregate-join between a matrix relation and a vector
// relation (Eq. (4)): join a.aJoin = c.ID, group by a.aKeep aggregating
// ⊕ over a.W ⊙ c.W. With aJoin=A.T, aKeep=A.F this is A·C; with
// aJoin=A.F, aKeep=A.T it is Aᵀ·C (the direction BFS/PageRank use).
func MVJoin(a, c *relation.Relation, ac MatCols, cc VecCols, aJoin, aKeep int, sr semiring.Semiring, algo JoinAlgo) (*relation.Relation, error) {
	joined := EquiJoin(a, c, EquiJoinSpec{
		LeftCols: []int{aJoin}, RightCols: []int{cc.ID}, Algo: algo,
	})
	cOff := a.Sch.Arity()
	prodExpr := func(t relation.Tuple) (value.Value, error) {
		return sr.Times(t[ac.W], t[cOff+cc.W]), nil
	}
	out, err := GroupBy(joined, []int{aKeep}, []AggSpec{
		SemiringAgg(schema.Column{Name: "vw", Type: value.KindFloat}, sr, prodExpr),
	})
	if err != nil {
		return nil, err
	}
	out.Sch = schema.Schema{
		{Name: "ID", Type: a.Sch[aKeep].Type},
		{Name: "vw", Type: value.KindFloat},
	}
	return out, nil
}

// AntiJoinImpl selects among the three SQL formulations of anti-join the
// paper compares (Tables 6 and 7).
type AntiJoinImpl int

// The anti-join implementations. The zero value is the paper's choice
// after Exp-1 (left outer join).
const (
	// AntiLeftOuter is "left outer join ... where s.key is null".
	AntiLeftOuter AntiJoinImpl = iota
	// AntiNotExists is "where not exists (select ... )" — a hash anti-join.
	AntiNotExists
	// AntiNotIn is "where r.key not in (select s.key ...)", the
	// null-aware anti-join (NAAJ): a NULL on either side changes results.
	AntiNotIn
)

// String names the implementation.
func (i AntiJoinImpl) String() string {
	switch i {
	case AntiNotExists:
		return "not exists"
	case AntiLeftOuter:
		return "left outer join"
	case AntiNotIn:
		return "not in"
	}
	return fmt.Sprintf("AntiJoinImpl(%d)", int(i))
}

// AntiJoin computes r ▷ s on key columns with the chosen implementation.
// All three agree when no NULL keys are present. AntiLeftOuter and
// AntiNotExists match keys by SQL's = as every equi-join does (a NULL r-key
// matches nothing, so its tuple is returned); AntiNotIn follows SQL's
// three-valued logic (any NULL in s empties the result; NULL r-keys are
// never returned). gov, when non-nil,
// makes every per-tuple loop a cooperative checkpoint.
func AntiJoin(r, s *relation.Relation, rCols, sCols []int, impl AntiJoinImpl, gov *govern.Governor) *relation.Relation {
	switch impl {
	case AntiLeftOuter:
		joined := LeftOuterJoin(r, s, rCols, sCols, gov)
		out := relation.New(r.Sch)
		nullProbe := r.Sch.Arity() + sCols[0]
		for _, t := range joined.Tuples {
			gov.MustStep(1)
			if t[nullProbe].IsNull() {
				out.Append(t[:r.Sch.Arity()].Clone())
			}
		}
		return out
	case AntiNotIn:
		out := relation.New(r.Sch)
		// NAAJ: if any s key is NULL, "x NOT IN (...)" is never true.
		idx := relation.BuildHashIndex(s, sCols)
		for _, st := range s.Tuples {
			for _, c := range sCols {
				if st[c].IsNull() {
					return out
				}
			}
		}
		for _, rt := range r.Tuples {
			gov.MustStep(1)
			nullKey := false
			for _, c := range rCols {
				if rt[c].IsNull() {
					nullKey = true
					break
				}
			}
			if nullKey {
				continue
			}
			if !idx.Contains(rt, rCols) {
				out.Append(rt.Clone())
			}
		}
		return out
	default: // AntiNotExists
		out := relation.New(r.Sch)
		idx := relation.BuildHashIndex(s, sCols)
		for _, rt := range r.Tuples {
			gov.MustStep(1)
			if rt.NullOn(rCols) || !idx.Contains(rt, rCols) {
				out.Append(rt.Clone())
			}
		}
		return out
	}
}

// AntiJoinDef is the definitional form r − (r ⋉ s) built from the basic
// operations only; used to property-test the optimized implementations.
func AntiJoinDef(r, s *relation.Relation, rCols, sCols []int) *relation.Relation {
	return Difference(r, SemiJoin(r, s, rCols, sCols, nil))
}

// UBUImpl selects among the four implementations of union-by-update the
// paper compares (Tables 4 and 5).
type UBUImpl int

// The union-by-update implementations. The zero value is the paper's
// choice after Exp-1 (full outer join).
const (
	// UBUFullOuter is "full outer join + coalesce" (the winner in the
	// paper; used as the default in all later experiments).
	UBUFullOuter UBUImpl = iota
	// UBUMerge is the SQL MERGE statement: row-at-a-time matched
	// update / unmatched insert, with a duplicate check on the source.
	UBUMerge
	// UBUUpdateFrom is PostgreSQL's UPDATE ... FROM followed by an
	// insert of unmatched source rows; it skips the duplicate check.
	UBUUpdateFrom
	// UBUReplace implements the attribute-less form: drop the old
	// relation and rename the new one over it (DROP/ALTER TABLE).
	UBUReplace
)

// String names the implementation.
func (i UBUImpl) String() string {
	switch i {
	case UBUMerge:
		return "merge"
	case UBUFullOuter:
		return "full outer join"
	case UBUUpdateFrom:
		return "update from"
	case UBUReplace:
		return "drop/alter"
	}
	return fmt.Sprintf("UBUImpl(%d)", int(i))
}

// ErrDuplicateSource reports that two source tuples matched one target
// tuple — the case the paper disallows because the update would not be
// unique. Only UBUMerge checks for it, matching the engines' behaviour.
var ErrDuplicateSource = fmt.Errorf("ra: union-by-update source has duplicate keys")

// UnionByUpdate computes r ⊎_key s: tuples of r whose key matches a tuple of
// s take s's non-key values; unmatched tuples from both sides are kept.
// keyCols index both relations (schemas must be union-compatible).
// With impl == UBUReplace the key columns are ignored and the result is s
// (the paper's attribute-less form). gov, when non-nil, makes the join and
// coalesce/update loops cooperative checkpoints.
func UnionByUpdate(r, s *relation.Relation, keyCols []int, impl UBUImpl, gov *govern.Governor) (*relation.Relation, error) {
	out, _, err := unionByUpdate(r, s, keyCols, impl, gov, false)
	return out, err
}

// UnionByUpdateDelta computes r ⊎_key s like UnionByUpdate and additionally
// returns the changed-row delta: the result tuples that differ from their
// counterpart in r (updated in place) or have no counterpart (inserted). An
// empty delta means the operation was a no-op, so a fixpoint loop can use it
// for change detection without cloning r and bag-comparing the result — and
// the delta itself is the changed frontier a semi-naive iteration feeds
// forward.
func UnionByUpdateDelta(r, s *relation.Relation, keyCols []int, impl UBUImpl, gov *govern.Governor) (out, delta *relation.Relation, err error) {
	return unionByUpdate(r, s, keyCols, impl, gov, true)
}

func unionByUpdate(r, s *relation.Relation, keyCols []int, impl UBUImpl, gov *govern.Governor, wantDelta bool) (out, delta *relation.Relation, err error) {
	switch impl {
	case UBUReplace:
		out = s.Clone()
		if wantDelta {
			// The attribute-less form rewrites the whole relation; its delta
			// is everything when the content moved, nothing when it did not.
			if SameBag(r, s) {
				delta = relation.New(r.Sch)
			} else {
				delta = out
			}
		}
		return out, delta, nil
	case UBUFullOuter:
		out, delta = ubuFullOuter(r, s, keyCols, gov, wantDelta)
		return out, delta, nil
	case UBUUpdateFrom:
		return ubuUpdateFrom(r, s, keyCols, false, gov, wantDelta)
	default:
		return ubuUpdateFrom(r, s, keyCols, true, gov, wantDelta)
	}
}

// ubuFullOuter: full outer join on the keys, then coalesce(s.*, r.*),
// streamed in one pass. It indexes s, probes it with each r row and
// coalesces every joined pair straight into an output row, then emits the
// s rows no r row matched — the rows, and the row order, of FullOuterJoin
// followed by a coalescing scan, without materializing the joined relation.
// The governor is charged the same rows as that two-pass form: one step per
// r and s row plus one per output row, in chunks (govern.Batch).
//
// With wantDelta it also collects the rows the coalesce actually changed:
// matched rows whose coalesced values differ from the r side (SameRow: a NaN
// that stays NaN is no change), and unmatched s rows (whose r side is
// all-NULL padding). A row inserted from s with every column NULL is
// indistinguishable from its padding and escapes the delta — such a row has
// a NULL key, which the paper's union-by-update already disallows.
func ubuFullOuter(r, s *relation.Relation, keyCols []int, gov *govern.Governor, wantDelta bool) (out, delta *relation.Relation) {
	arity := r.Sch.Arity()
	idx := relation.BuildHashIndex(s, keyCols)
	matched := make([]bool, s.Len())
	rows := r.Len()
	if s.Len() > rows {
		rows = s.Len()
	}
	out = relation.NewWithCap(r.Sch, rows)
	if wantDelta {
		delta = relation.New(r.Sch)
	}
	// Output rows are carved out of chunks of rows*arity cells; every input
	// row yields at least one output row, so the first chunk fills.
	var cells []value.Value
	pad := make(relation.Tuple, arity)
	steps := gov.Batch()
	// emit appends coalesce(st, rt) — st or rt is nil for an unmatched row —
	// and records it in the delta when it differs from the r side (NULL
	// padding for an unmatched s row).
	emit := func(rt, st relation.Tuple) {
		steps.Step(1)
		if len(cells) < arity {
			cells = make([]value.Value, rows*arity)
		}
		nt := relation.Tuple(cells[:arity:arity])
		cells = cells[arity:]
		for i := range nt {
			v := value.Null
			if st != nil && !st[i].IsNull() {
				v = st[i]
			} else if rt != nil && !rt[i].IsNull() {
				v = rt[i]
			}
			nt[i] = v
		}
		if rt == nil {
			rt = pad
		}
		out.Tuples = append(out.Tuples, nt)
		if wantDelta && !SameRow(nt, rt) {
			delta.Tuples = append(delta.Tuples, nt)
		}
	}
	for _, rt := range r.Tuples {
		steps.Step(1)
		matchedAny := false
		idx.ProbeEach(rt, keyCols, func(row int) bool {
			matchedAny = true
			matched[row] = true
			emit(rt, s.Tuples[row])
			return true
		})
		if !matchedAny {
			emit(rt, nil)
		}
	}
	for i, st := range s.Tuples {
		steps.Step(1)
		if !matched[i] {
			emit(nil, st)
		}
	}
	steps.Flush()
	return out, delta
}

// ubuUpdateFrom: per-source-row matched update / unmatched insert on a copy
// of r. checkDup enables MERGE's duplicate-source detection (and models its
// extra bookkeeping cost). With wantDelta it collects the source rows that
// updated a matched row to a different value or were inserted.
func ubuUpdateFrom(r, s *relation.Relation, keyCols []int, checkDup bool, gov *govern.Governor, wantDelta bool) (out, delta *relation.Relation, err error) {
	out = r.Clone()
	if wantDelta {
		delta = relation.New(r.Sch)
	}
	idx := relation.BuildHashIndex(out, keyCols)
	var seen *relation.Relation
	var seenIdx *relation.HashIndex
	if checkDup {
		seen = relation.New(s.Sch.Project(keyCols))
		seenIdx = relation.BuildHashIndex(seen, allIdx(len(keyCols)))
	}
	steps := gov.Batch()
	for _, st := range s.Tuples {
		steps.Step(1)
		if checkDup {
			if seenIdx.Contains(st, keyCols) {
				steps.Flush()
				return nil, nil, ErrDuplicateSource
			}
			key := make(relation.Tuple, len(keyCols))
			for i, c := range keyCols {
				key[i] = st[c]
			}
			seen.Append(key)
			seenIdx.Add(seen.Len() - 1)
		}
		// Multiple r may match a single s: all are updated (allowed). The
		// replacement keeps the key values, so the index stays valid.
		matchedAny := false
		changed := false
		idx.ProbeEach(st, keyCols, func(row int) bool {
			matchedAny = true
			if wantDelta && !changed && !SameRow(out.Tuples[row], st) {
				changed = true
			}
			out.Tuples[row] = st.Clone()
			return true
		})
		if !matchedAny {
			out.Append(st.Clone())
			idx.Add(out.Len() - 1)
			changed = true
		}
		if wantDelta && changed {
			delta.Tuples = append(delta.Tuples, st.Clone())
		}
	}
	steps.Flush()
	return out, delta, nil
}

package ra

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/value"
)

func matRel(entries [][3]float64) *relation.Relation {
	r := relation.New(schema.Schema{
		{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt},
		{Name: "ew", Type: value.KindFloat},
	})
	for _, e := range entries {
		r.AppendVals(value.Int(int64(e[0])), value.Int(int64(e[1])), value.Float(e[2]))
	}
	return r
}

func vecRel(entries [][2]float64) *relation.Relation {
	r := relation.New(schema.Schema{
		{Name: "ID", Type: value.KindInt}, {Name: "vw", Type: value.KindFloat},
	})
	for _, e := range entries {
		r.AppendVals(value.Int(int64(e[0])), value.Float(e[1]))
	}
	return r
}

// denseMM computes A·B densely for cross-checking MM-join.
func denseMM(n int, a, b map[[2]int]float64, sr semiring.Semiring) map[[2]int]value.Value {
	out := make(map[[2]int]value.Value)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := sr.Zero
			touched := false
			for k := 0; k < n; k++ {
				av, aok := a[[2]int{i, k}]
				bv, bok := b[[2]int{k, j}]
				if aok && bok {
					acc = sr.Plus(acc, sr.Times(value.Float(av), value.Float(bv)))
					touched = true
				}
			}
			if touched {
				out[[2]int{i, j}] = acc
			}
		}
	}
	return out
}

func TestMMJoinMatchesDenseMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sr := range []semiring.Semiring{semiring.PlusTimes(), semiring.MinPlus(), semiring.MaxTimes()} {
		const n = 6
		a := make(map[[2]int]float64)
		b := make(map[[2]int]float64)
		for i := 0; i < 14; i++ {
			a[[2]int{rng.Intn(n), rng.Intn(n)}] = float64(rng.Intn(9) + 1)
			b[[2]int{rng.Intn(n), rng.Intn(n)}] = float64(rng.Intn(9) + 1)
		}
		var ae, be [][3]float64
		for k, v := range a {
			ae = append(ae, [3]float64{float64(k[0]), float64(k[1]), v})
		}
		for k, v := range b {
			be = append(be, [3]float64{float64(k[0]), float64(k[1]), v})
		}
		A, B := matRel(ae), matRel(be)
		got, err := MMJoin(A, B, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		want := denseMM(n, a, b, sr)
		if got.Len() != len(want) {
			t.Fatalf("%s: %d entries, want %d", sr.Name, got.Len(), len(want))
		}
		for _, tu := range got.Tuples {
			key := [2]int{int(tu[0].AsInt()), int(tu[1].AsInt())}
			w, ok := want[key]
			if !ok || tu[2].AsFloat() != w.AsFloat() {
				t.Errorf("%s: entry %v = %v, want %v", sr.Name, key, tu[2], w)
			}
		}
	}
}

func TestMVJoinMatchesDenseMultiply(t *testing.T) {
	// A·C with A over {0,1,2}: join on A.T=C.ID, group by A.F.
	A := matRel([][3]float64{{0, 1, 2}, {0, 2, 3}, {1, 2, 4}, {2, 0, 1}})
	C := vecRel([][2]float64{{0, 10}, {1, 20}, {2, 30}})
	sr := semiring.PlusTimes()
	got, err := MVJoin(A, C, EdgeMat(), NodeVec(), 1, 0, sr, HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{0: 2*20 + 3*30, 1: 4 * 30, 2: 1 * 10}
	if got.Len() != len(want) {
		t.Fatalf("rows = %d", got.Len())
	}
	for _, tu := range got.Tuples {
		if want[tu[0].AsInt()] != tu[1].AsFloat() {
			t.Errorf("AC[%v] = %v, want %v", tu[0], tu[1], want[tu[0].AsInt()])
		}
	}
	// Transposed direction Aᵀ·C: join on A.F=C.ID, group by A.T.
	gotT, err := MVJoin(A, C, EdgeMat(), NodeVec(), 0, 1, sr, HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	wantT := map[int64]float64{1: 2 * 10, 2: 3*10 + 4*20, 0: 1 * 30}
	for _, tu := range gotT.Tuples {
		if wantT[tu[0].AsInt()] != tu[1].AsFloat() {
			t.Errorf("AtC[%v] = %v, want %v", tu[0], tu[1], wantT[tu[0].AsInt()])
		}
	}
}

func TestMMJoinEqualsDefinitionalForm(t *testing.T) {
	// MM-join must equal group-by over the θ-join (Eq. (3)).
	rng := rand.New(rand.NewSource(17))
	var ae, be [][3]float64
	for i := 0; i < 25; i++ {
		ae = append(ae, [3]float64{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5) + 1)})
		be = append(be, [3]float64{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5) + 1)})
	}
	A, B := Distinct(matRel(ae)), Distinct(matRel(be))
	sr := semiring.PlusTimes()
	got, err := MMJoin(A, B, EdgeMat(), EdgeMat(), 1, 0, 0, 1, sr, SortMergeJoin)
	if err != nil {
		t.Fatal(err)
	}
	// Definitional: σ over × then group-by & aggregation.
	prod := Product(A, B)
	sel, err := Select(prod, func(tu relation.Tuple) (bool, error) {
		return tu[1].Equal(tu[3]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	def, err := GroupBy(sel, []int{0, 4}, []AggSpec{
		SemiringAgg(schema.Column{Name: "ew", Type: value.KindFloat}, sr,
			func(tu relation.Tuple) (value.Value, error) { return sr.Times(tu[2], tu[5]), nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(def) {
		t.Errorf("MM-join != definitional form:\n%s\nvs\n%s", got, def)
	}
}

func TestAntiJoinImplsAgreeWithoutNulls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		r := relation.New(ints("k", "x"))
		s := relation.New(ints("k"))
		for i := 0; i < 40; i++ {
			r.AppendVals(value.Int(int64(rng.Intn(15))), value.Int(int64(i)))
		}
		for i := 0; i < 10; i++ {
			s.AppendVals(value.Int(int64(rng.Intn(15))))
		}
		def := AntiJoinDef(r, s, []int{0}, []int{0})
		for _, impl := range []AntiJoinImpl{AntiNotExists, AntiLeftOuter, AntiNotIn} {
			got := AntiJoin(r, s, []int{0}, []int{0}, impl, nil)
			// Definitional form is a set; compare distinct versions.
			if !Distinct(got).Equal(Distinct(def)) {
				t.Fatalf("trial %d: %s anti-join disagrees with definition", trial, impl)
			}
		}
	}
}

func TestAntiJoinResultDisjointFromS(t *testing.T) {
	// The paper's independence property: anti-join output never semi-joins S.
	r := rel(ints("k"), []int64{1}, []int64{2}, []int64{3})
	s := rel(ints("k"), []int64{2})
	for _, impl := range []AntiJoinImpl{AntiNotExists, AntiLeftOuter, AntiNotIn} {
		got := AntiJoin(r, s, []int{0}, []int{0}, impl, nil)
		if SemiJoin(got, s, []int{0}, []int{0}, nil).Len() != 0 {
			t.Errorf("%s: result overlaps S", impl)
		}
	}
}

func TestAntiJoinNotInNullSemantics(t *testing.T) {
	r := relation.New(ints("k"))
	r.AppendVals(value.Int(1))
	r.AppendVals(value.Null)
	s := relation.New(ints("k"))
	s.AppendVals(value.Int(2))
	s.AppendVals(value.Null)
	// NOT IN against a set containing NULL is empty.
	if got := AntiJoin(r, s, []int{0}, []int{0}, AntiNotIn, nil); got.Len() != 0 {
		t.Errorf("not in with NULL in S should be empty, got %v", got)
	}
	// NOT EXISTS / left outer join don't have that trap: 1 doesn't match 2
	// and NULL doesn't equal anything, so both r rows survive.
	got := AntiJoin(r, s, []int{0}, []int{0}, AntiNotExists, nil)
	if !got.Equal(r) {
		t.Errorf("not exists: %v, want both r rows", got)
	}
	// NULL r-key never qualifies for NOT IN even without NULL in S.
	s2 := rel(ints("k"), []int64{2})
	got2 := AntiJoin(r, s2, []int{0}, []int{0}, AntiNotIn, nil)
	if got2.Len() != 1 || got2.At(0)[0].AsInt() != 1 {
		t.Errorf("not in with NULL r-key: %v", got2)
	}
}

// TestAntiJoinNullKeyNotExistsMatchesLeftOuter: NOT EXISTS and the left
// outer join formulation both follow SQL's =, so over NULL keys on both
// sides they return the same bag: every r tuple whose key is NULL or absent
// from s.
func TestAntiJoinNullKeyNotExistsMatchesLeftOuter(t *testing.T) {
	keys := []value.Value{value.Int(1), value.Int(2), value.Null}
	mk := func(keys []value.Value) *relation.Relation {
		out := relation.New(ints("k"))
		for _, k := range keys {
			out.AppendVals(k)
		}
		return out
	}
	r := mk(keys)
	for mask := 0; mask < 1<<len(keys); mask++ {
		var sk []value.Value
		for i, k := range keys {
			if mask&(1<<i) != 0 {
				sk = append(sk, k)
			}
		}
		s := mk(sk)
		exists := AntiJoin(r, s, []int{0}, []int{0}, AntiNotExists, nil)
		outer := AntiJoin(r, s, []int{0}, []int{0}, AntiLeftOuter, nil)
		if !exists.Equal(outer) {
			t.Errorf("s keys %v: not exists %v, left outer %v", sk, exists, outer)
		}
		if !UnionAll(exists, SemiJoin(r, s, []int{0}, []int{0}, nil)).Equal(r) {
			t.Errorf("s keys %v: semi-join and not exists do not partition r", sk)
		}
	}
}

func ubuImpls() []UBUImpl { return []UBUImpl{UBUMerge, UBUFullOuter, UBUUpdateFrom} }

func TestUnionByUpdateBasic(t *testing.T) {
	r := rel(ints("id", "w"), []int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	s := rel(ints("id", "w"), []int64{2, 99}, []int64{4, 40})
	for _, impl := range ubuImpls() {
		got, err := UnionByUpdate(r, s, []int{0}, impl, nil)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		wantRows(t, got, []int64{1, 10}, []int64{2, 99}, []int64{3, 30}, []int64{4, 40})
	}
}

func TestUnionByUpdateImplsAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		r := relation.New(ints("id", "w"))
		s := relation.New(ints("id", "w"))
		usedR := map[int64]bool{}
		usedS := map[int64]bool{}
		for i := 0; i < 30; i++ {
			k := int64(rng.Intn(40))
			if !usedR[k] {
				usedR[k] = true
				r.AppendVals(value.Int(k), value.Int(int64(rng.Intn(100))))
			}
			k = int64(rng.Intn(40))
			if !usedS[k] {
				usedS[k] = true
				s.AppendVals(value.Int(k), value.Int(int64(rng.Intn(100))))
			}
		}
		var results []*relation.Relation
		for _, impl := range ubuImpls() {
			got, err := UnionByUpdate(r, s, []int{0}, impl, nil)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, impl, err)
			}
			results = append(results, got)
		}
		for i := 1; i < len(results); i++ {
			if !results[0].Equal(results[i]) {
				t.Fatalf("trial %d: %s disagrees with %s", trial, ubuImpls()[i], ubuImpls()[0])
			}
		}
	}
}

func TestUnionByUpdateContainsAllOfS(t *testing.T) {
	// The paper's independence property: the result must contain S.
	r := rel(ints("id", "w"), []int64{1, 1}, []int64{2, 2})
	s := rel(ints("id", "w"), []int64{2, 22}, []int64{5, 55})
	for _, impl := range ubuImpls() {
		got, _ := UnionByUpdate(r, s, []int{0}, impl, nil)
		if Difference(s, got).Len() != 0 {
			t.Errorf("%s: result does not contain S", impl)
		}
	}
}

func TestUnionByUpdateMergeDetectsDuplicateSource(t *testing.T) {
	r := rel(ints("id", "w"), []int64{1, 1})
	s := rel(ints("id", "w"), []int64{1, 2}, []int64{1, 3})
	_, err := UnionByUpdate(r, s, []int{0}, UBUMerge, nil)
	if !errors.Is(err, ErrDuplicateSource) {
		t.Errorf("merge should reject duplicate source keys, got %v", err)
	}
	// update-from does not check (PostgreSQL semantics).
	if _, err := UnionByUpdate(r, s, []int{0}, UBUUpdateFrom, nil); err != nil {
		t.Errorf("update from should not check duplicates: %v", err)
	}
}

func TestUnionByUpdateMultipleTargetsOneSource(t *testing.T) {
	// Multiple r matching one s is allowed: all are updated.
	r := rel(ints("id", "w"), []int64{1, 10}, []int64{1, 11})
	s := rel(ints("id", "w"), []int64{1, 99})
	for _, impl := range ubuImpls() {
		got, err := UnionByUpdate(r, s, []int{0}, impl, nil)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if got.Len() != 2 {
			t.Fatalf("%s: len=%d", impl, got.Len())
		}
		for _, tu := range got.Tuples {
			if tu[1].AsInt() != 99 {
				t.Errorf("%s: row not updated: %v", impl, tu)
			}
		}
	}
}

func TestUnionByUpdateReplace(t *testing.T) {
	r := rel(ints("id", "w"), []int64{1, 10})
	s := rel(ints("id", "w"), []int64{5, 50})
	got, err := UnionByUpdate(r, s, nil, UBUReplace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("replace should yield S: %v", got)
	}
	got.Tuples[0][0] = value.Int(7)
	if s.At(0)[0].AsInt() != 5 {
		t.Error("replace should clone, not alias")
	}
}

func TestUnionByUpdateDeltaReportsChangedRows(t *testing.T) {
	r := rel(ints("id", "w"), []int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	// 2 updated to a new value, 3 "updated" to the same value (no change),
	// 4 inserted: the delta is {2,99} and {4,40}.
	s := rel(ints("id", "w"), []int64{2, 99}, []int64{3, 30}, []int64{4, 40})
	for _, impl := range ubuImpls() {
		out, delta, err := UnionByUpdateDelta(r, s, []int{0}, impl, nil)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		wantRows(t, out, []int64{1, 10}, []int64{2, 99}, []int64{3, 30}, []int64{4, 40})
		want := rel(ints("id", "w"), []int64{2, 99}, []int64{4, 40})
		if !delta.Equal(want) {
			t.Errorf("%s: delta = %v, want %v", impl, delta.Tuples, want.Tuples)
		}
	}
	// A no-op step has an empty delta — the convergence signal.
	for _, impl := range ubuImpls() {
		same := rel(ints("id", "w"), []int64{1, 10}, []int64{2, 20}, []int64{3, 30})
		_, delta, err := UnionByUpdateDelta(r, same, []int{0}, impl, nil)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if delta.Len() != 0 {
			t.Errorf("%s: fixpoint step reported delta %v", impl, delta.Tuples)
		}
	}
	// Replace: delta is empty iff the new image equals the old as a bag.
	_, delta, err := UnionByUpdateDelta(r, r.Clone(), nil, UBUReplace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Len() != 0 {
		t.Errorf("replace with identical image reported delta %v", delta.Tuples)
	}
	s2 := rel(ints("id", "w"), []int64{9, 90})
	_, delta, err = UnionByUpdateDelta(r, s2, nil, UBUReplace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Len() != 1 {
		t.Errorf("replace with new image reported delta %v", delta.Tuples)
	}
}

func TestUBUImplString(t *testing.T) {
	names := map[UBUImpl]string{
		UBUMerge: "merge", UBUFullOuter: "full outer join",
		UBUUpdateFrom: "update from", UBUReplace: "drop/alter",
	}
	for impl, want := range names {
		if impl.String() != want {
			t.Errorf("%d.String() = %q", impl, impl.String())
		}
	}
	anti := map[AntiJoinImpl]string{
		AntiNotExists: "not exists", AntiLeftOuter: "left outer join", AntiNotIn: "not in",
	}
	for impl, want := range anti {
		if impl.String() != want {
			t.Errorf("anti %d.String() = %q", impl, impl.String())
		}
	}
}

package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "VARCHAR", KindBool: "BOOL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null should be NULL")
	}
	if v := Int(42); v.AsInt() != 42 || v.AsFloat() != 42.0 || !v.IsNumeric() {
		t.Errorf("Int(42) accessors wrong: %+v", v)
	}
	if v := Float(2.5); v.AsFloat() != 2.5 || v.AsInt() != 2 {
		t.Errorf("Float(2.5) accessors wrong: %+v", v)
	}
	if v := Str("x"); v.S != "x" || v.IsNumeric() {
		t.Errorf("Str accessors wrong: %+v", v)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool truthiness wrong")
	}
	if !math.IsInf(Inf().AsFloat(), 1) {
		t.Error("Inf() not +Inf")
	}
}

func TestAsBool(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false}, {Int(0), false}, {Int(1), true}, {Int(-3), true},
		{Float(0), false}, {Float(0.1), true},
		{Str(""), false}, {Str("a"), true},
		{Bool(true), true}, {Bool(false), false},
	}
	for _, c := range cases {
		if got := c.v.AsBool(); got != c.want {
			t.Errorf("AsBool(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"}, {Int(-7), "-7"}, {Float(1.5), "1.5"},
		{Str("hi"), "hi"}, {Bool(true), "true"}, {Bool(false), "false"},
		{Inf(), "Inf"}, {Float(math.Inf(-1)), "-Inf"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !Null.Equal(Null) {
		t.Error("NULL should group-equal NULL")
	}
	if Null.Equal(Int(0)) || Int(0).Equal(Null) {
		t.Error("NULL must not equal non-NULL")
	}
	if !Int(3).Equal(Float(3.0)) || !Float(3.0).Equal(Int(3)) {
		t.Error("cross-kind numeric equality failed")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("3 != 3.5")
	}
	if Int(1).Equal(Bool(true)) {
		t.Error("int must not equal bool")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Error("string equality wrong")
	}
	if !Bool(true).Equal(Bool(true)) || Bool(true).Equal(Bool(false)) {
		t.Error("bool equality wrong")
	}
}

func TestCompare(t *testing.T) {
	ordered := []Value{Null, Int(-5), Int(0), Float(0.5), Int(1), Float(2.5), Int(3)}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Int(0) and Float(0.5) etc. are strictly increasing here,
			// so sign must match index order exactly.
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if Str("a").Compare(Str("b")) != -1 || Str("b").Compare(Str("a")) != 1 || Str("a").Compare(Str("a")) != 0 {
		t.Error("string compare wrong")
	}
	if Bool(false).Compare(Bool(true)) != -1 {
		t.Error("bool compare wrong")
	}
	// Mixed non-numeric kinds order by kind.
	if Int(5).Compare(Str("a")) != -1 {
		t.Error("kind ordering: INT < VARCHAR expected")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(7), Float(7.0)},
		{Float(math.Copysign(0, -1)), Float(0)},
		{Float(math.Copysign(0, -1)), Int(0)},
		{Null, Null},
		{Str("abc"), Str("abc")},
		{Bool(true), Bool(true)},
	}
	for _, p := range pairs {
		if !p[0].Equal(p[1]) {
			t.Fatalf("precondition: %v should equal %v", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values hash differently: %v vs %v", p[0], p[1])
		}
	}
	if Str("a").Hash() == Str("b").Hash() {
		t.Error("suspicious collision a/b")
	}
}

func TestHashIntFloatProperty(t *testing.T) {
	f := func(i int32) bool {
		return Int(int64(i)).Hash() == Float(float64(i)).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !got.Equal(want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	v, err := Add(Int(2), Int(3))
	check(v, err, Int(5))
	if v.K != KindInt {
		t.Error("int+int should stay int")
	}
	v, err = Add(Int(2), Float(0.5))
	check(v, err, Float(2.5))
	v, err = Sub(Int(2), Int(5))
	check(v, err, Int(-3))
	v, err = Mul(Float(2), Float(4))
	check(v, err, Float(8))
	v, err = Div(Int(1), Int(4))
	check(v, err, Float(0.25))
	v, err = Div(Int(1), Int(0))
	check(v, err, Null)
	v, err = Mod(Int(7), Int(3))
	check(v, err, Int(1))
	v, err = Mod(Int(7), Int(0))
	check(v, err, Null)
	v, err = Neg(Int(4))
	check(v, err, Int(-4))
	v, err = Neg(Float(-2.5))
	check(v, err, Float(2.5))
}

func TestArithmeticNullPropagation(t *testing.T) {
	for _, f := range []func(a, b Value) (Value, error){Add, Sub, Mul, Div, Mod} {
		if v, err := f(Null, Int(1)); err != nil || !v.IsNull() {
			t.Errorf("NULL op x should be NULL, got %v err %v", v, err)
		}
		if v, err := f(Int(1), Null); err != nil || !v.IsNull() {
			t.Errorf("x op NULL should be NULL, got %v err %v", v, err)
		}
	}
	if v, err := Neg(Null); err != nil || !v.IsNull() {
		t.Errorf("-NULL should be NULL, got %v err %v", v, err)
	}
}

func TestArithmeticTypeErrors(t *testing.T) {
	if _, err := Add(Str("a"), Int(1)); err == nil {
		t.Error("string + int should error")
	}
	if _, err := Mul(Bool(true), Bool(true)); err != nil {
		// bools are numeric-ish? No: Mul requires IsNumeric, bool is not.
		t.Log("bool*bool:", err)
	}
	if _, err := Neg(Str("x")); err == nil {
		t.Error("-string should error")
	}
}

func TestMinMaxNullAbsorption(t *testing.T) {
	if got := Min(Null, Int(3)); !got.Equal(Int(3)) {
		t.Errorf("Min(NULL,3) = %v", got)
	}
	if got := Max(Int(3), Null); !got.Equal(Int(3)) {
		t.Errorf("Max(3,NULL) = %v", got)
	}
	if got := Min(Int(2), Int(5)); !got.Equal(Int(2)) {
		t.Errorf("Min = %v", got)
	}
	if got := Max(Float(2), Int(5)); !got.Equal(Int(5)) {
		t.Errorf("Max = %v", got)
	}
}

func TestCoalesce(t *testing.T) {
	if got := Coalesce(Null, Null, Int(9), Int(1)); !got.Equal(Int(9)) {
		t.Errorf("Coalesce = %v", got)
	}
	if got := Coalesce(Null, Null); !got.IsNull() {
		t.Errorf("Coalesce all-null = %v", got)
	}
	if got := Coalesce(); !got.IsNull() {
		t.Errorf("Coalesce() = %v", got)
	}
}

func TestSqrtAbs(t *testing.T) {
	if got := Sqrt(Int(9)); !got.Equal(Float(3)) {
		t.Errorf("Sqrt(9) = %v", got)
	}
	if got := Sqrt(Float(-1)); !got.IsNull() {
		t.Errorf("Sqrt(-1) = %v", got)
	}
	if got := Sqrt(Str("x")); !got.IsNull() {
		t.Errorf("Sqrt(str) = %v", got)
	}
	if got := Abs(Int(-3)); !got.Equal(Int(3)) {
		t.Errorf("Abs(-3) = %v", got)
	}
	if got := Abs(Float(-2.5)); !got.Equal(Float(2.5)) {
		t.Errorf("Abs(-2.5) = %v", got)
	}
	if got := Abs(Str("s")); !got.IsNull() {
		t.Errorf("Abs(str) = %v", got)
	}
}

func TestHashCombineOrderSensitive(t *testing.T) {
	a := HashCombine(HashCombine(0, Int(1)), Int(2))
	b := HashCombine(HashCombine(0, Int(2)), Int(1))
	if a == b {
		t.Error("HashCombine should be order sensitive")
	}
}

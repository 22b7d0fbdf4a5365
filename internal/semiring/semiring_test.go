package semiring

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// sample draws values appropriate for a semiring (booleans for or-and,
// small non-negative floats otherwise so min-plus/min-times stay finite).
func sample(sr Semiring, rng *rand.Rand) value.Value {
	if sr.Name == "or-and" {
		return value.Bool(rng.Intn(2) == 1)
	}
	return value.Float(float64(rng.Intn(8)) + 0.5)
}

func eq(a, b value.Value) bool {
	if a.K == value.KindFloat && b.K == value.KindFloat {
		if math.IsInf(a.F, 1) && math.IsInf(b.F, 1) {
			return true
		}
		if math.IsInf(a.F, -1) && math.IsInf(b.F, -1) {
			return true
		}
		return math.Abs(a.F-b.F) < 1e-12
	}
	return a.Equal(b)
}

func TestSemiringLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sr := range All() {
		sr := sr
		t.Run(sr.Name, func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				a, b, c := sample(sr, rng), sample(sr, rng), sample(sr, rng)
				// ⊕ commutative, associative, identity Zero.
				if !eq(sr.Plus(a, b), sr.Plus(b, a)) {
					t.Fatalf("plus not commutative on %v,%v", a, b)
				}
				if !eq(sr.Plus(sr.Plus(a, b), c), sr.Plus(a, sr.Plus(b, c))) {
					t.Fatalf("plus not associative on %v,%v,%v", a, b, c)
				}
				if !eq(sr.Plus(a, sr.Zero), a) {
					t.Fatalf("zero not ⊕-identity for %v: got %v", a, sr.Plus(a, sr.Zero))
				}
				// ⊙ associative with identity One.
				if !eq(sr.Times(sr.Times(a, b), c), sr.Times(a, sr.Times(b, c))) {
					t.Fatalf("times not associative on %v,%v,%v", a, b, c)
				}
				if !eq(sr.Times(a, sr.One), a) || !eq(sr.Times(sr.One, a), a) {
					t.Fatalf("one not ⊙-identity for %v", a)
				}
				// Distributivity: a⊙(b⊕c) = (a⊙b)⊕(a⊙c).
				left := sr.Times(a, sr.Plus(b, c))
				right := sr.Plus(sr.Times(a, b), sr.Times(a, c))
				if !eq(left, right) {
					t.Fatalf("not left-distributive on %v,%v,%v: %v vs %v", a, b, c, left, right)
				}
				// Zero annihilates (for min-plus, Inf+x = Inf; etc.).
				if !eq(sr.Times(a, sr.Zero), sr.Zero) {
					t.Fatalf("zero does not annihilate %v: %v", a, sr.Times(a, sr.Zero))
				}
			}
		})
	}
}

func TestByName(t *testing.T) {
	for _, sr := range All() {
		got, ok := ByName(sr.Name)
		if !ok || got.Name != sr.Name {
			t.Errorf("ByName(%q) failed", sr.Name)
		}
	}
	if _, ok := ByName("no-such"); ok {
		t.Error("ByName should reject unknown names")
	}
}

func TestSpecificValues(t *testing.T) {
	pt := PlusTimes()
	if got := pt.Plus(value.Float(1), value.Float(2)); !eq(got, value.Float(3)) {
		t.Errorf("plus-times ⊕: %v", got)
	}
	mp := MinPlus()
	if got := mp.Times(value.Float(2), value.Float(3)); !eq(got, value.Float(5)) {
		t.Errorf("min-plus ⊙ should be +: %v", got)
	}
	if got := mp.Plus(value.Float(2), mp.Zero); !eq(got, value.Float(2)) {
		t.Errorf("min with Inf: %v", got)
	}
	oa := OrAnd()
	if got := oa.Plus(value.Bool(false), value.Bool(true)); !got.AsBool() {
		t.Errorf("or-and ⊕: %v", got)
	}
}

// TestFloatFormMatchesBoxed checks every built-in's float form against its
// boxed Plus and Times bit for bit, over the float edge cases (signed
// zeros, infinities, NaN, the smallest subnormal, MaxFloat64) and random
// finite values. or-and declares no float form.
func TestFloatFormMatchesBoxed(t *testing.T) {
	ops := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 40; i++ {
		ops = append(ops, (rng.Float64()-0.5)*math.Pow(2, float64(rng.Intn(200)-100)))
	}
	declared := 0
	for _, sr := range All() {
		if !sr.Float.Ok() {
			if sr.Name != "or-and" {
				t.Errorf("%s declares no float form", sr.Name)
			}
			continue
		}
		declared++
		for _, a := range ops {
			for _, b := range ops {
				for _, c := range []struct {
					name  string
					boxed func(a, b value.Value) value.Value
					op    Op
				}{{"plus", sr.Plus, sr.Float.Plus}, {"times", sr.Times, sr.Float.Times}} {
					want := c.boxed(value.Float(a), value.Float(b))
					got := c.op.Apply(a, b)
					if want.K != value.KindFloat || math.Float64bits(got) != math.Float64bits(want.F) {
						t.Fatalf("%s %s(%v, %v): float form %v (%#x), boxed %v (%#x)",
							sr.Name, c.name, a, b, got, math.Float64bits(got), want, math.Float64bits(want.F))
					}
				}
			}
		}
	}
	if declared != len(All())-1 {
		t.Errorf("%d built-ins declare a float form, want %d", declared, len(All())-1)
	}
	if OrAnd().Float != (FloatForm{}) {
		t.Error("or-and declares a float form")
	}
}

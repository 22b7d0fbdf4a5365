// Package semiring defines the algebraic structure (⊕, ⊙, 0, 1) over which
// MM-join and MV-join compute. The paper (Section 4.1, citing Kepner &
// Gilbert) uses semirings as the umbrella under which many graph algorithms
// become matrix computations: BFS is (max, *), shortest paths are (min, +),
// PageRank-style propagation is (+, *), and so on.
package semiring

import (
	"math"

	"repro/internal/value"
)

// Semiring packages the addition ⊕ (the aggregate over a group), the
// multiplication ⊙ (applied while joining), and the two identities.
type Semiring struct {
	Name string
	// Plus is ⊕: combines two accumulated values. It must be commutative
	// and associative with Zero as identity.
	Plus func(a, b value.Value) value.Value
	// Times is ⊙: combines a matrix entry with a matrix/vector entry.
	Times func(a, b value.Value) value.Value
	// Zero is the ⊕-identity (also the ⊙-annihilator).
	Zero value.Value
	// One is the ⊙-identity.
	One value.Value
	// Float is the unboxed form of Plus and Times over float64, declared by
	// the built-ins whose ⊕ and ⊙ are plain arithmetic or comparisons. The
	// zero FloatForm declares none (or-and, user-built semirings).
	Float FloatForm
}

// Op is one float64 operation of a closed set; Apply evaluates it through a
// single switch, cheap enough to sit inside a per-edge loop.
type Op uint8

// The float operations. OpNone is the zero value: no float form.
const (
	OpNone Op = iota
	OpAdd
	OpMul
	OpMin
	OpMax
)

// Apply returns a op b. For two KindFloat operands it is bit-identical to
// the boxed function the op stands for: value.Add gives a+b, value.Mul a*b,
// value.Min b if a sorts above b else a, value.Max b if a sorts below b else
// a, under value.CompareFloat's order (NaN above every number, so min
// drops a NaN operand and max keeps it). The explicit
// conversions round each arithmetic result, so no fused multiply-add can
// form across a fold. Apply must not be called with OpNone.
func (op Op) Apply(a, b float64) float64 {
	switch op {
	case OpAdd:
		return float64(a + b)
	case OpMul:
		return float64(a * b)
	case OpMin: // b when a sorts above b: a > b, or a is NaN and b is not
		if !(a <= b) && b == b {
			return b
		}
		return a
	default: // OpMax: b when a sorts below b: a < b, or b is NaN and a is not
		if !(a >= b) && a == a {
			return b
		}
		return a
	}
}

// FloatForm pairs the float forms of ⊕ and ⊙.
type FloatForm struct {
	Plus, Times Op
}

// Ok reports whether both operations have a float form.
func (f FloatForm) Ok() bool { return f.Plus != OpNone && f.Times != OpNone }

func mustAdd(a, b value.Value) value.Value {
	v, err := value.Add(a, b)
	if err != nil {
		return value.Null
	}
	return v
}

func mustMul(a, b value.Value) value.Value {
	v, err := value.Mul(a, b)
	if err != nil {
		return value.Null
	}
	return v
}

// PlusTimes is the standard (+, *) semiring over floats, used by PageRank,
// HITS, SimRank, and Markov clustering.
func PlusTimes() Semiring {
	return Semiring{
		Name:  "plus-times",
		Plus:  mustAdd,
		Times: mustMul,
		Zero:  value.Float(0),
		One:   value.Float(1),
		Float: FloatForm{Plus: OpAdd, Times: OpMul},
	}
}

// MinPlus is the tropical (min, +) semiring used by Bellman-Ford and
// Floyd-Warshall shortest distances; Zero is +Inf.
func MinPlus() Semiring {
	return Semiring{
		Name:  "min-plus",
		Plus:  value.Min,
		Times: mustAdd,
		Zero:  value.Float(math.Inf(1)),
		One:   value.Float(0),
		Float: FloatForm{Plus: OpMin, Times: OpAdd},
	}
}

// MaxTimes is the (max, *) semiring used by BFS reachability (Eq. (5)):
// visited flags propagate along edges and max keeps any 1.
func MaxTimes() Semiring {
	return Semiring{
		Name:  "max-times",
		Plus:  value.Max,
		Times: mustMul,
		Zero:  value.Float(0),
		One:   value.Float(1),
		Float: FloatForm{Plus: OpMax, Times: OpMul},
	}
}

// MinTimes is the (min, *) semiring used by weakly-connected components
// (Eq. (6)): the smallest reachable label wins. Zero is +Inf.
func MinTimes() Semiring {
	return Semiring{
		Name:  "min-times",
		Plus:  value.Min,
		Times: mustMul,
		Zero:  value.Float(math.Inf(1)),
		One:   value.Float(1),
		Float: FloatForm{Plus: OpMin, Times: OpMul},
	}
}

// OrAnd is the boolean semiring (∨, ∧) of plain reachability / transitive
// closure membership.
func OrAnd() Semiring {
	return Semiring{
		Name: "or-and",
		Plus: func(a, b value.Value) value.Value {
			return value.Bool(a.AsBool() || b.AsBool())
		},
		Times: func(a, b value.Value) value.Value {
			return value.Bool(a.AsBool() && b.AsBool())
		},
		Zero: value.Bool(false),
		One:  value.Bool(true),
	}
}

// MaxMin is the bottleneck (max, min) semiring of widest-path problems.
func MaxMin() Semiring {
	return Semiring{
		Name:  "max-min",
		Plus:  value.Max,
		Times: value.Min,
		Zero:  value.Float(math.Inf(-1)),
		One:   value.Float(math.Inf(1)),
		Float: FloatForm{Plus: OpMax, Times: OpMin},
	}
}

// ByName returns a built-in semiring by name, or false.
func ByName(name string) (Semiring, bool) {
	switch name {
	case "plus-times":
		return PlusTimes(), true
	case "min-plus":
		return MinPlus(), true
	case "max-times":
		return MaxTimes(), true
	case "min-times":
		return MinTimes(), true
	case "or-and":
		return OrAnd(), true
	case "max-min":
		return MaxMin(), true
	}
	return Semiring{}, false
}

// All returns every built-in semiring (used by property tests of the
// semiring laws).
func All() []Semiring {
	return []Semiring{PlusTimes(), MinPlus(), MaxTimes(), MinTimes(), OrAnd(), MaxMin()}
}

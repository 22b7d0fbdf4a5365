// Package value implements the typed scalar values that flow through
// relations, expressions, and aggregate functions in the engine.
//
// A Value is a small concrete struct rather than an interface so tuples can
// be stored densely and compared without allocation. The value domain is the
// SQL subset needed by the paper's workloads: 64-bit integers, 64-bit floats,
// strings, booleans, and NULL.
package value

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL scalar. The zero value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// Inf returns the float value +Inf, used as the "unreached" distance.
func Inf() Value { return Float(math.Inf(1)) }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsNumeric reports whether v is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// AsFloat converts a numeric value to float64. NULL converts to 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindBool:
		return float64(v.I)
	}
	return 0
}

// AsInt converts a numeric value to int64, truncating floats. NULL is 0.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindBool:
		return v.I
	}
	return 0
}

// AsBool reports SQL truthiness: non-zero numerics and true booleans.
// NULL is false.
func (v Value) AsBool() bool {
	switch v.K {
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	}
	return false
}

// String renders the value the way the query tools print it.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		if math.IsInf(v.F, 1) {
			return "Inf"
		}
		if math.IsInf(v.F, -1) {
			return "-Inf"
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Equal reports SQL equality used by set operations and group-by keys:
// NULL equals NULL (as in GROUP BY / UNION dedup), numerics compare across
// int/float, other kinds must match exactly.
func (v Value) Equal(o Value) bool {
	if v.K == KindNull || o.K == KindNull {
		return v.K == KindNull && o.K == KindNull
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.K == KindInt && o.K == KindInt {
			return v.I == o.I
		}
		return v.AsFloat() == o.AsFloat()
	}
	if v.K != o.K {
		return false
	}
	switch v.K {
	case KindString:
		return v.S == o.S
	case KindBool:
		return v.I == o.I
	}
	return false
}

// Compare orders two values: -1 if v<o, 0 if equal, +1 if v>o.
// NULL sorts before everything; mixed numeric kinds compare as floats
// (CompareFloat: NaN equals NaN and sorts above every number); otherwise
// values are ordered by kind then content.
func (v Value) Compare(o Value) int {
	if v.K == KindNull || o.K == KindNull {
		switch {
		case v.K == KindNull && o.K == KindNull:
			return 0
		case v.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.K == KindInt && o.K == KindInt {
			switch {
			case v.I < o.I:
				return -1
			case v.I > o.I:
				return 1
			}
			return 0
		}
		return CompareFloat(v.AsFloat(), o.AsFloat())
	}
	if v.K != o.K {
		if v.K < o.K {
			return -1
		}
		return 1
	}
	switch v.K {
	case KindString:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	}
	return 0
}

// CompareFloat is the total order of float64 that comparisons and sorts
// use, PostgreSQL's: NaN equals NaN and sorts above every number, +Inf
// included. For any b that is not NaN, CompareFloat(a, b) == 0 exactly when
// a == b — the equality Equal and the hash join use, which keep NaN unequal
// to everything, NaN included.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// At least one side is NaN.
	switch {
	case a == a: // only b
		return -1
	case b == b: // only a
		return 1
	}
	return 0
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a 64-bit hash of the value, consistent with Equal:
// equal values hash equally (ints and equal-valued floats coincide).
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime
			x >>= 8
		}
	}
	switch v.K {
	case KindNull:
		mix(0x9e3779b97f4a7c15)
	case KindInt:
		mix(math.Float64bits(float64(v.I)))
	case KindFloat:
		f := v.F
		if f == 0 {
			f = 0 // -0 equals +0 (Equal), so it hashes as +0
		}
		mix(math.Float64bits(f))
	case KindBool:
		mix(uint64(v.I) + 3)
	case KindString:
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= fnvPrime
		}
	}
	return h
}

// HashCombine folds a value hash into an accumulated tuple-key hash.
func HashCombine(acc uint64, v Value) uint64 {
	h := v.Hash()
	acc ^= h + 0x9e3779b97f4a7c15 + (acc << 6) + (acc >> 2)
	return acc
}

// Arithmetic errors.
type arithError struct {
	op   string
	a, b Kind
}

func (e *arithError) Error() string {
	return fmt.Sprintf("value: invalid operands for %s: %s, %s", e.op, e.a, e.b)
}

func numericPair(op string, a, b Value) (bool, error) {
	if a.IsNull() || b.IsNull() {
		return false, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return false, &arithError{op, a.K, b.K}
	}
	return true, nil
}

// Add returns a+b with numeric promotion. NULL propagates.
func Add(a, b Value) (Value, error) {
	ok, err := numericPair("+", a, b)
	if !ok {
		return Null, err
	}
	if a.K == KindInt && b.K == KindInt {
		return Int(a.I + b.I), nil
	}
	return Float(a.AsFloat() + b.AsFloat()), nil
}

// Sub returns a-b with numeric promotion. NULL propagates.
func Sub(a, b Value) (Value, error) {
	ok, err := numericPair("-", a, b)
	if !ok {
		return Null, err
	}
	if a.K == KindInt && b.K == KindInt {
		return Int(a.I - b.I), nil
	}
	return Float(a.AsFloat() - b.AsFloat()), nil
}

// Mul returns a*b with numeric promotion. NULL propagates.
func Mul(a, b Value) (Value, error) {
	ok, err := numericPair("*", a, b)
	if !ok {
		return Null, err
	}
	if a.K == KindInt && b.K == KindInt {
		return Int(a.I * b.I), nil
	}
	return Float(a.AsFloat() * b.AsFloat()), nil
}

// Div returns a/b as a float (SQL-style for our engine). NULL propagates.
// Division by zero yields NULL, matching the engines' permissive mode.
func Div(a, b Value) (Value, error) {
	ok, err := numericPair("/", a, b)
	if !ok {
		return Null, err
	}
	d := b.AsFloat()
	if d == 0 {
		return Null, nil
	}
	return Float(a.AsFloat() / d), nil
}

// Mod returns a%b for integers. NULL propagates; zero divisor yields NULL.
func Mod(a, b Value) (Value, error) {
	ok, err := numericPair("%", a, b)
	if !ok {
		return Null, err
	}
	bi := b.AsInt()
	if bi == 0 {
		return Null, nil
	}
	return Int(a.AsInt() % bi), nil
}

// Neg returns -a. NULL propagates.
func Neg(a Value) (Value, error) {
	if a.IsNull() {
		return Null, nil
	}
	switch a.K {
	case KindInt:
		return Int(-a.I), nil
	case KindFloat:
		return Float(-a.F), nil
	}
	return Null, &arithError{"-", a.K, a.K}
}

// Min returns the smaller of a and b; NULL is absorbed (min(NULL,x)=x),
// matching SQL aggregate semantics where NULLs are skipped.
func Min(a, b Value) Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	if a.Compare(b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b; NULL is absorbed.
func Max(a, b Value) Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	if a.Compare(b) >= 0 {
		return a
	}
	return b
}

// Coalesce returns the first non-NULL argument, or NULL.
func Coalesce(vs ...Value) Value {
	for _, v := range vs {
		if !v.IsNull() {
			return v
		}
	}
	return Null
}

// Sqrt returns the square root of a numeric value; NULL propagates and
// negative inputs yield NULL.
func Sqrt(a Value) Value {
	if a.IsNull() || !a.IsNumeric() {
		return Null
	}
	f := a.AsFloat()
	if f < 0 {
		return Null
	}
	return Float(math.Sqrt(f))
}

// Abs returns the absolute value of a numeric value; NULL propagates.
func Abs(a Value) Value {
	switch a.K {
	case KindInt:
		if a.I < 0 {
			return Int(-a.I)
		}
		return a
	case KindFloat:
		return Float(math.Abs(a.F))
	}
	return Null
}

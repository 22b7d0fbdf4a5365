package ra

import (
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file holds the vectorized operator kernels: batch-at-a-time
// counterparts of Select, Project, and GroupBy that evaluate expressions
// over a relation.Chunk (one closure dispatch per batch per AST node, tight
// loops inside) instead of one closure tree per row. Predicates refine a
// selection vector, so σ costs index passes rather than per-row tuple
// clones; projections assemble their output tuples from one flat value
// array; and the integer-keyed group-by replaces the per-row hash-bucket
// probe with dense or map-based group ids. Every kernel is semantically
// exact against its row counterpart — the SQL layer's differential fuzz
// (FuzzVectorVsRow) and the algos differential suite pin that — and
// anything a kernel cannot express runs the row closure inside a batch
// loop (the row fallback), never a different semantics.

// VecExpr evaluates an expression over a chunk, filling out[i] with the
// value for the chunk's i-th live row. len(out) must equal ch.Len().
type VecExpr func(ch *relation.Chunk, out []value.Value) error

// VecPred refines a chunk to the selection vector (physical row indexes,
// ascending) of live rows satisfying the predicate. UNKNOWN (NULL) filters
// the row out, as SQL WHERE does.
type VecPred func(ch *relation.Chunk) ([]int32, error)

// CmpOp is a comparison operator for the selection kernels.
type CmpOp uint8

// The comparison operators, matching SQL's =, <>, <, <=, >, >=.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// CmpOpFromString maps a SQL comparison token to its CmpOp.
func CmpOpFromString(op string) (CmpOp, bool) {
	switch op {
	case "=":
		return CmpEq, true
	case "<>":
		return CmpNe, true
	case "<":
		return CmpLt, true
	case "<=":
		return CmpLe, true
	case ">":
		return CmpGt, true
	case ">=":
		return CmpGe, true
	}
	return 0, false
}

// holds reports whether a three-way comparison result satisfies the op.
func (op CmpOp) holds(c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	}
	return c >= 0
}

// VecColExpr reads column i for every live row.
func VecColExpr(i int) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		rel := ch.Rel
		if ch.Sel == nil {
			for r := range out {
				out[r] = rel.Tuples[r][i]
			}
			return nil
		}
		for r, row := range ch.Sel {
			out[r] = rel.Tuples[row][i]
		}
		return nil
	}
}

// VecConstExpr fills v for every live row.
func VecConstExpr(v value.Value) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		for i := range out {
			out[i] = v
		}
		return nil
	}
}

// VecFallbackExpr runs a row expression inside a batch loop — the row
// fallback for expression shapes without a dedicated kernel.
func VecFallbackExpr(e Expr) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		for i := range out {
			v, err := e(ch.Row(i))
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
}

// evalPair evaluates both operand buffers of a binary kernel. The left
// operand lands in out (the caller's buffer, overwritten by the combine
// loop anyway), so each binary node allocates one scratch buffer, not two.
func evalPair(ch *relation.Chunk, l, r VecExpr, out []value.Value) ([]value.Value, []value.Value, error) {
	if err := l(ch, out); err != nil {
		return nil, nil, err
	}
	rb := make([]value.Value, len(out))
	if err := r(ch, rb); err != nil {
		return nil, nil, err
	}
	return out, rb, nil
}

// VecArith builds the kernel for +, -, *, /, % with the row path's exact
// semantics (numeric promotion, NULL propagation, div/mod-by-zero → NULL,
// non-numeric operands → error).
func VecArith(op string, l, r VecExpr) VecExpr {
	var f func(a, b value.Value) (value.Value, error)
	switch op {
	case "+":
		f = value.Add
	case "-":
		f = value.Sub
	case "*":
		f = value.Mul
	case "/":
		f = value.Div
	default:
		f = value.Mod
	}
	return func(ch *relation.Chunk, out []value.Value) error {
		lb, rb, err := evalPair(ch, l, r, out)
		if err != nil {
			return err
		}
		for i := range out {
			v, err := f(lb[i], rb[i])
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
}

// VecArithCols is the typed arithmetic kernel for column ⊕ column: when
// both columns extract dense it computes directly on the unboxed vectors
// (no operand buffers, no per-element numericPair checks); otherwise it
// runs the generic kernel. Division by zero yields NULL, as value.Div does;
// %, whose row semantics truncate floats through AsInt, stays typed only
// for int⊕int.
func VecArithCols(op string, lcol, rcol int, generic VecExpr) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		lv, rv := ch.ColVec(lcol), ch.ColVec(rcol)
		if !lv.Dense() || !rv.Dense() {
			return generic(ch, out)
		}
		if lv.Kind == value.KindInt && rv.Kind == value.KindInt {
			if f := intArith(op); f != nil {
				li, ri := lv.Ints, rv.Ints
				if ch.Sel == nil {
					for i := range out {
						out[i] = f(li[i], ri[i])
					}
				} else {
					for i, row := range ch.Sel {
						out[i] = f(li[row], ri[row])
					}
				}
				return nil
			}
			// Int "/" promotes to float below, like value.Div.
		} else if op == "%" {
			return generic(ch, out)
		}
		f := floatArith(op)
		if f == nil {
			return generic(ch, out)
		}
		lf, rf := denseFloats(lv), denseFloats(rv)
		if ch.Sel == nil {
			for i := range out {
				out[i] = f(lf(int32(i)), rf(int32(i)))
			}
		} else {
			for i, row := range ch.Sel {
				out[i] = f(lf(row), rf(row))
			}
		}
		return nil
	}
}

// VecArithColConst is the typed arithmetic kernel for column ⊕ constant
// (colLeft) or constant ⊕ column. Non-numeric or NULL constants run the
// generic kernel, whose per-value semantics (NULL propagation, type errors)
// are the row path's.
func VecArithColConst(op string, col int, k value.Value, colLeft bool, generic VecExpr) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		cv := ch.ColVec(col)
		if !cv.Dense() || !k.IsNumeric() {
			return generic(ch, out)
		}
		if cv.Kind == value.KindInt && k.K == value.KindInt {
			if f := intArith(op); f != nil {
				ints, ki := cv.Ints, k.I
				app := func(v int64) value.Value { return f(v, ki) }
				if !colLeft {
					app = func(v int64) value.Value { return f(ki, v) }
				}
				if ch.Sel == nil {
					for i := range out {
						out[i] = app(ints[i])
					}
				} else {
					for i, row := range ch.Sel {
						out[i] = app(ints[row])
					}
				}
				return nil
			}
		} else if op == "%" {
			return generic(ch, out)
		}
		f := floatArith(op)
		if f == nil {
			return generic(ch, out)
		}
		cf, kf := denseFloats(cv), k.AsFloat()
		app := func(row int32) value.Value { return f(cf(row), kf) }
		if !colLeft {
			app = func(row int32) value.Value { return f(kf, cf(row)) }
		}
		if ch.Sel == nil {
			for i := range out {
				out[i] = app(int32(i))
			}
		} else {
			for i, row := range ch.Sel {
				out[i] = app(row)
			}
		}
		return nil
	}
}

// intArith returns the unboxed int⊕int combine for ops whose row semantics
// stay integral (nil for "/" — value.Div always promotes to float).
func intArith(op string) func(a, b int64) value.Value {
	switch op {
	case "+":
		return func(a, b int64) value.Value { return value.Int(a + b) }
	case "-":
		return func(a, b int64) value.Value { return value.Int(a - b) }
	case "*":
		return func(a, b int64) value.Value { return value.Int(a * b) }
	case "%":
		return func(a, b int64) value.Value {
			if b == 0 {
				return value.Null
			}
			return value.Int(a % b)
		}
	}
	return nil
}

// floatArith returns the unboxed float combine matching value.*'s promoted
// semantics (nil for "%").
func floatArith(op string) func(a, b float64) value.Value {
	switch op {
	case "+":
		return func(a, b float64) value.Value { return value.Float(a + b) }
	case "-":
		return func(a, b float64) value.Value { return value.Float(a - b) }
	case "*":
		return func(a, b float64) value.Value { return value.Float(a * b) }
	case "/":
		return func(a, b float64) value.Value {
			if b == 0 {
				return value.Null
			}
			return value.Float(a / b)
		}
	}
	return nil
}

// VecCompareExpr builds the boolean-producing comparison kernel (for
// comparisons nested under OR/NOT, where a selection kernel does not
// apply). NULL operands yield NULL, per three-valued logic.
func VecCompareExpr(op CmpOp, l, r VecExpr) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		lb, rb, err := evalPair(ch, l, r, out)
		if err != nil {
			return err
		}
		for i := range out {
			lv, rv := lb[i], rb[i]
			if lv.IsNull() || rv.IsNull() {
				out[i] = value.Null
				continue
			}
			out[i] = value.Bool(op.holds(lv.Compare(rv)))
		}
		return nil
	}
}

// VecAnd is SQL three-valued AND over two boolean buffers.
func VecAnd(l, r VecExpr) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		lb, rb, err := evalPair(ch, l, r, out)
		if err != nil {
			return err
		}
		for i := range out {
			lv, rv := lb[i], rb[i]
			switch {
			case !lv.IsNull() && !lv.AsBool() || !rv.IsNull() && !rv.AsBool():
				out[i] = value.Bool(false)
			case lv.IsNull() || rv.IsNull():
				out[i] = value.Null
			default:
				out[i] = value.Bool(true)
			}
		}
		return nil
	}
}

// VecOr is SQL three-valued OR over two boolean buffers.
func VecOr(l, r VecExpr) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		lb, rb, err := evalPair(ch, l, r, out)
		if err != nil {
			return err
		}
		for i := range out {
			lv, rv := lb[i], rb[i]
			switch {
			case !lv.IsNull() && lv.AsBool() || !rv.IsNull() && rv.AsBool():
				out[i] = value.Bool(true)
			case lv.IsNull() || rv.IsNull():
				out[i] = value.Null
			default:
				out[i] = value.Bool(false)
			}
		}
		return nil
	}
}

// VecNot negates a boolean buffer; NULL stays NULL.
func VecNot(x VecExpr) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		if err := x(ch, out); err != nil {
			return err
		}
		for i, v := range out {
			if v.IsNull() {
				continue
			}
			out[i] = value.Bool(!v.AsBool())
		}
		return nil
	}
}

// VecNeg arithmetic-negates a buffer with value.Neg's semantics.
func VecNeg(x VecExpr) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		if err := x(ch, out); err != nil {
			return err
		}
		for i, v := range out {
			nv, err := value.Neg(v)
			if err != nil {
				return err
			}
			out[i] = nv
		}
		return nil
	}
}

// VecIsNull builds IS [NOT] NULL over a buffer.
func VecIsNull(x VecExpr, negated bool) VecExpr {
	return func(ch *relation.Chunk, out []value.Value) error {
		if err := x(ch, out); err != nil {
			return err
		}
		for i, v := range out {
			out[i] = value.Bool(v.IsNull() != negated)
		}
		return nil
	}
}

// appendSel builds a refined selection vector from the chunk's live rows.
func appendSel(ch *relation.Chunk, keep func(pos int, row int32) bool) []int32 {
	sel := make([]int32, 0, ch.Len())
	if ch.Sel == nil {
		for row := range ch.Rel.Tuples {
			if keep(row, int32(row)) {
				sel = append(sel, int32(row))
			}
		}
		return sel
	}
	for pos, row := range ch.Sel {
		if keep(pos, row) {
			sel = append(sel, row)
		}
	}
	return sel
}

// SelCompareColConst is the hot selection kernel: column ⋈ constant. A
// dense int or float column against a numeric constant runs a tight typed
// loop; anything else compares the boxed column values directly — still one
// dispatch per batch. A NULL constant keeps no rows (the comparison is
// UNKNOWN everywhere).
func SelCompareColConst(col int, op CmpOp, k value.Value) VecPred {
	return func(ch *relation.Chunk) ([]int32, error) {
		if k.IsNull() {
			return []int32{}, nil
		}
		cv := ch.ColVec(col)
		switch {
		case cv.Kind == value.KindInt && k.K == value.KindInt:
			ki := k.I
			return appendSel(ch, func(_ int, row int32) bool {
				return op.holds(cmpInt(cv.Ints[row], ki))
			}), nil
		case cv.Kind == value.KindInt && k.K == value.KindFloat:
			kf := k.F
			return appendSel(ch, func(_ int, row int32) bool {
				return op.holds(cmpFloat(float64(cv.Ints[row]), kf))
			}), nil
		case cv.Kind == value.KindFloat && k.IsNumeric():
			kf := k.AsFloat()
			return appendSel(ch, func(_ int, row int32) bool {
				return op.holds(cmpFloat(cv.Floats[row], kf))
			}), nil
		}
		tuples := ch.Rel.Tuples
		return appendSel(ch, func(_ int, row int32) bool {
			v := tuples[row][col]
			return !v.IsNull() && op.holds(v.Compare(k))
		}), nil
	}
}

// SelCompareColCol is the column ⋈ column selection kernel, typed when both
// columns extracted densely with the same numeric shape.
func SelCompareColCol(lcol, rcol int, op CmpOp) VecPred {
	return func(ch *relation.Chunk) ([]int32, error) {
		lv, rv := ch.ColVec(lcol), ch.ColVec(rcol)
		switch {
		case lv.Kind == value.KindInt && rv.Kind == value.KindInt:
			return appendSel(ch, func(_ int, row int32) bool {
				return op.holds(cmpInt(lv.Ints[row], rv.Ints[row]))
			}), nil
		case lv.Dense() && rv.Dense():
			lf, rf := denseFloats(lv), denseFloats(rv)
			return appendSel(ch, func(_ int, row int32) bool {
				return op.holds(cmpFloat(lf(row), rf(row)))
			}), nil
		}
		tuples := ch.Rel.Tuples
		return appendSel(ch, func(_ int, row int32) bool {
			a, b := tuples[row][lcol], tuples[row][rcol]
			return !a.IsNull() && !b.IsNull() && op.holds(a.Compare(b))
		}), nil
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat is the vector kernels' float comparison: value.CompareFloat's
// order, the one the row path's Value.Compare uses.
func cmpFloat(a, b float64) int { return value.CompareFloat(a, b) }

// denseFloats adapts a dense column to float reads for mixed int/float
// comparisons.
func denseFloats(v relation.ColVec) func(row int32) float64 {
	if v.Kind == value.KindInt {
		ints := v.Ints
		return func(row int32) float64 { return float64(ints[row]) }
	}
	floats := v.Floats
	return func(row int32) float64 { return floats[row] }
}

// SelCompare evaluates two expression buffers and keeps rows where the
// comparison holds and neither side is NULL — the general comparison
// selection kernel for computed operands.
func SelCompare(op CmpOp, l, r VecExpr) VecPred {
	return func(ch *relation.Chunk) ([]int32, error) {
		lb, rb, err := evalPair(ch, l, r, make([]value.Value, ch.Len()))
		if err != nil {
			return nil, err
		}
		return appendSel(ch, func(pos int, _ int32) bool {
			lv, rv := lb[pos], rb[pos]
			return !lv.IsNull() && !rv.IsNull() && op.holds(lv.Compare(rv))
		}), nil
	}
}

// SelFromExpr keeps rows whose boolean buffer value is true (UNKNOWN and
// false filter out) — the adapter from a computed boolean expression to a
// selection.
func SelFromExpr(e VecExpr) VecPred {
	return func(ch *relation.Chunk) ([]int32, error) {
		buf := make([]value.Value, ch.Len())
		if err := e(ch, buf); err != nil {
			return nil, err
		}
		return appendSel(ch, func(pos int, _ int32) bool {
			v := buf[pos]
			return !v.IsNull() && v.AsBool()
		}), nil
	}
}

// SelFallback runs a row predicate inside a batch loop.
func SelFallback(p Pred) VecPred {
	return func(ch *relation.Chunk) ([]int32, error) {
		var ferr error
		sel := appendSel(ch, func(_ int, row int32) bool {
			if ferr != nil {
				return false
			}
			ok, err := p(ch.Rel.Tuples[row])
			if err != nil {
				ferr = err
				return false
			}
			return ok
		})
		if ferr != nil {
			return nil, ferr
		}
		return sel, nil
	}
}

// AndSel composes selection kernels by refinement: each conjunct sees only
// the rows surviving the previous ones. Unlike the row path (which
// evaluates every conjunct on every row), later conjuncts never run on
// filtered rows — selections shrink monotonically, never resurface errors
// the row path would also raise on surviving rows.
func AndSel(ps ...VecPred) VecPred {
	if len(ps) == 1 {
		return ps[0]
	}
	return func(ch *relation.Chunk) ([]int32, error) {
		cur := ch
		var sel []int32
		for i, p := range ps {
			s, err := p(cur)
			if err != nil {
				return nil, err
			}
			sel = s
			if i < len(ps)-1 {
				cur = cur.Narrow(sel)
				if len(sel) == 0 {
					break
				}
			}
		}
		return sel, nil
	}
}

// SelectVec returns σ_pred(r) via selection-vector refinement; surviving
// tuples are shared with r, not cloned (see the aliasing contract in
// basic.go).
func SelectVec(r *relation.Relation, pred VecPred) (*relation.Relation, error) {
	ch := relation.FromRelation(r)
	sel, err := pred(ch)
	if err != nil {
		return nil, err
	}
	return ch.Narrow(sel).ToRelation(), nil
}

// VecOutCol names one computed output column of a vectorized projection.
type VecOutCol struct {
	Col  schema.Column
	Expr VecExpr
}

// ProjectVec is the batch projection: each output column evaluates into its
// own buffer (one kernel dispatch per column per batch), and the output
// tuples are assembled as windows over a single flat value array — one
// backing allocation instead of one per row.
func ProjectVec(r *relation.Relation, outs []VecOutCol) (*relation.Relation, error) {
	ch := relation.FromRelation(r)
	n, k := ch.Len(), len(outs)
	sch := make(schema.Schema, k)
	flat := make([]value.Value, n*k)
	scratch := make([]value.Value, n)
	for j, o := range outs {
		sch[j] = o.Col
		if err := o.Expr(ch, scratch); err != nil {
			return nil, err
		}
		for i, v := range scratch {
			flat[i*k+j] = v
		}
	}
	out := relation.NewWithCap(sch, n)
	for i := 0; i < n; i++ {
		out.Tuples = append(out.Tuples, flat[i*k:(i+1)*k:(i+1)*k])
	}
	return out, nil
}

// VecAggKind identifies a vectorizable aggregate.
type VecAggKind uint8

// The vectorizable aggregates, mirroring the row accumulators in agg.go.
const (
	VecSum VecAggKind = iota
	VecMin
	VecMax
	VecCount
	VecCountStar
	VecAvg
)

// VecAggSpec describes one aggregate output column for GroupByVec: the
// output column, the aggregate kind, and the argument kernel (nil for
// COUNT(*)).
type VecAggSpec struct {
	Col  schema.Column
	Kind VecAggKind
	Arg  VecExpr
}

// groupByVecDenseSlack caps how sparse an integer key domain may be before
// the dense group-id array gives way to a map: the array is worth its
// allocation while its size stays within a small factor of the row count.
const groupByVecDenseSlack = 1024

// GroupByVec is the vectorized X𝒢Y for integer-keyed (or keyless) grouping:
// group ids come from a dense array over the key range when the domain is
// compact, else from a single int64 map — never from the row path's per-row
// tuple-hash bucket chains — and each aggregate folds its argument buffer
// into per-group slots. Group order is first appearance and every
// accumulator mirrors its agg.go counterpart exactly (NULL-skipping folds,
// COUNT over non-NULLs, identity row for empty keyless input). handled
// reports whether the kernel applies: multi-column, non-integer, or
// NULL-bearing keys return handled == false and the caller falls back to
// the row GroupBy.
func GroupByVec(r *relation.Relation, groupCols []int, aggs []VecAggSpec) (out *relation.Relation, handled bool, err error) {
	if len(groupCols) > 1 {
		return nil, false, nil
	}
	ch := relation.FromRelation(r)
	n := ch.Len()
	var (
		groupIDs []int32
		nGroups  int
		keyOf    func(g int32) value.Value
	)
	if len(groupCols) == 0 {
		// One global group; per SQL an empty input still yields one identity
		// row.
		groupIDs = make([]int32, n)
		nGroups = 1
		keyOf = nil
	} else if n > 0 {
		cv := ch.ColVec(groupCols[0])
		if cv.Kind != value.KindInt {
			return nil, false, nil
		}
		keys := cv.Ints
		lo, hi := keys[0], keys[0]
		for _, k := range keys {
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		groupIDs = make([]int32, n)
		var firstKey []int64
		if span := hi - lo + 1; span <= int64(2*n)+groupByVecDenseSlack {
			// Dense-integer keys: group ids by direct array lookup.
			ids := make([]int32, span)
			for i := range ids {
				ids[i] = -1
			}
			for i, k := range keys {
				id := ids[k-lo]
				if id < 0 {
					id = int32(nGroups)
					ids[k-lo] = id
					firstKey = append(firstKey, k)
					nGroups++
				}
				groupIDs[i] = id
			}
		} else {
			ids := make(map[int64]int32, n)
			for i, k := range keys {
				id, ok := ids[k]
				if !ok {
					id = int32(nGroups)
					ids[k] = id
					firstKey = append(firstKey, k)
					nGroups++
				}
				groupIDs[i] = id
			}
		}
		keyOf = func(g int32) value.Value { return value.Int(firstKey[g]) }
	}
	sch := r.Sch.Project(groupCols)
	for _, a := range aggs {
		sch = append(sch, a.Col)
	}
	results := make([][]value.Value, len(aggs))
	for ai, a := range aggs {
		res, err := foldVecAgg(ch, a, groupIDs, nGroups)
		if err != nil {
			return nil, true, err
		}
		results[ai] = res
	}
	out = relation.NewWithCap(sch, nGroups)
	width := len(groupCols) + len(aggs)
	flat := make([]value.Value, nGroups*width)
	for g := 0; g < nGroups; g++ {
		row := flat[g*width : (g+1)*width : (g+1)*width]
		j := 0
		if keyOf != nil {
			row[0] = keyOf(int32(g))
			j = 1
		}
		for ai := range aggs {
			row[j] = results[ai][g]
			j++
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, true, nil
}

// foldVecAgg evaluates one aggregate's argument buffer and folds it into
// per-group result slots with the row accumulators' exact semantics.
func foldVecAgg(ch *relation.Chunk, a VecAggSpec, groupIDs []int32, nGroups int) ([]value.Value, error) {
	n := ch.Len()
	var buf []value.Value
	if a.Arg != nil {
		buf = make([]value.Value, n)
		if err := a.Arg(ch, buf); err != nil {
			return nil, err
		}
	}
	res := make([]value.Value, nGroups) // zero Value is NULL — the fold identity
	switch a.Kind {
	case VecCountStar:
		counts := make([]int64, nGroups)
		for _, g := range groupIDs {
			counts[g]++
		}
		for g, c := range counts {
			res[g] = value.Int(c)
		}
	case VecCount:
		counts := make([]int64, nGroups)
		for i, g := range groupIDs {
			if !buf[i].IsNull() {
				counts[g]++
			}
		}
		for g, c := range counts {
			res[g] = value.Int(c)
		}
	case VecAvg:
		sums := make([]float64, nGroups)
		counts := make([]int64, nGroups)
		for i, g := range groupIDs {
			if v := buf[i]; !v.IsNull() {
				sums[g] += v.AsFloat()
				counts[g]++
			}
		}
		for g := range res {
			if counts[g] == 0 {
				res[g] = value.Null
			} else {
				res[g] = value.Float(sums[g] / float64(counts[g]))
			}
		}
	case VecSum:
		started := make([]bool, nGroups)
		for i, g := range groupIDs {
			v := buf[i]
			if v.IsNull() {
				continue // SQL aggregates skip NULLs
			}
			if !started[g] {
				res[g], started[g] = v, true
				continue
			}
			s, err := value.Add(res[g], v)
			if err != nil {
				// The row fold swallows the type error into NULL; mirror it.
				res[g] = value.Null
				continue
			}
			res[g] = s
		}
	case VecMin, VecMax:
		fold := value.Min
		if a.Kind == VecMax {
			fold = value.Max
		}
		started := make([]bool, nGroups)
		for i, g := range groupIDs {
			v := buf[i]
			if v.IsNull() {
				continue
			}
			if !started[g] {
				res[g], started[g] = v, true
				continue
			}
			res[g] = fold(res[g], v)
		}
	}
	return res, nil
}

package sql

import (
	"fmt"

	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
)

// This file compiles the SQL expression AST into the vectorized kernels of
// package ra — the batch counterpart of expr.go. Every node with a
// dedicated kernel (literals, column reads, arithmetic, comparisons,
// three-valued AND/OR/NOT, IS NULL) compiles to one closure dispatch per
// batch; any other subtree (function calls, IN, EXISTS) compiles through
// the row compiler and runs row-at-a-time inside the batch loop. The
// fallback is tracked per compilation so the executor can charge the
// RowFallbacks counter and EXPLAIN ANALYZE can pin which path ran.
// Semantics are identical to the row path by construction: the kernels
// reuse the same value.* operations and the same three-valued logic, and
// FuzzVectorVsRow holds the two paths byte-identical.

// compileVecExpr compiles an expression into a batch kernel over sch.
// fellBack reports whether any subtree compiled through the row path.
func (x *Exec) compileVecExpr(e Expr, sch schema.Schema) (ex ra.VecExpr, fellBack bool, err error) {
	switch n := e.(type) {
	case *Lit:
		return ra.VecConstExpr(n.Val), false, nil
	case *ColRef:
		idx, err := sch.Resolve(n.Table, n.Name)
		if err != nil {
			return nil, false, err
		}
		return ra.VecColExpr(idx), false, nil
	case *Unary:
		inner, fb, err := x.compileVecExpr(n.X, sch)
		if err != nil {
			return nil, false, err
		}
		switch n.Op {
		case "-":
			return ra.VecNeg(inner), fb, nil
		case "not":
			return ra.VecNot(inner), fb, nil
		}
		return nil, false, fmt.Errorf("sql: unknown unary operator %q", n.Op)
	case *Binary:
		l, lfb, err := x.compileVecExpr(n.L, sch)
		if err != nil {
			return nil, false, err
		}
		r, rfb, err := x.compileVecExpr(n.R, sch)
		if err != nil {
			return nil, false, err
		}
		fb := lfb || rfb
		switch n.Op {
		case "+", "-", "*", "/", "%":
			generic := ra.VecArith(n.Op, l, r)
			// Column/constant operands get the typed kernels (which fall
			// back to generic per batch if the column isn't dense).
			lc, lIsCol := n.L.(*ColRef)
			rc, rIsCol := n.R.(*ColRef)
			lLit, lIsLit := n.L.(*Lit)
			rLit, rIsLit := n.R.(*Lit)
			switch {
			case lIsCol && rIsCol:
				li, err := sch.Resolve(lc.Table, lc.Name)
				if err != nil {
					return nil, false, err
				}
				ri, err := sch.Resolve(rc.Table, rc.Name)
				if err != nil {
					return nil, false, err
				}
				return ra.VecArithCols(n.Op, li, ri, generic), fb, nil
			case lIsCol && rIsLit:
				li, err := sch.Resolve(lc.Table, lc.Name)
				if err != nil {
					return nil, false, err
				}
				return ra.VecArithColConst(n.Op, li, rLit.Val, true, generic), fb, nil
			case lIsLit && rIsCol:
				ri, err := sch.Resolve(rc.Table, rc.Name)
				if err != nil {
					return nil, false, err
				}
				return ra.VecArithColConst(n.Op, ri, lLit.Val, false, generic), fb, nil
			}
			return generic, fb, nil
		case "and":
			return ra.VecAnd(l, r), fb, nil
		case "or":
			return ra.VecOr(l, r), fb, nil
		}
		if op, ok := ra.CmpOpFromString(n.Op); ok {
			return ra.VecCompareExpr(op, l, r), fb, nil
		}
		return nil, false, fmt.Errorf("sql: unknown operator %q", n.Op)
	case *IsNullExpr:
		inner, fb, err := x.compileVecExpr(n.X, sch)
		if err != nil {
			return nil, false, err
		}
		return ra.VecIsNull(inner, n.Negated), fb, nil
	}
	// No dedicated kernel (FuncCall, IN, EXISTS, future shapes): compile the
	// whole subtree through the row path and run it inside the batch loop.
	rowEx, err := x.compileExpr(e, sch)
	if err != nil {
		return nil, false, err
	}
	return ra.VecFallbackExpr(rowEx), true, nil
}

// compileVecPred compiles a predicate into a selection kernel: the
// conjunction splits into per-conjunct kernels composed by selection-vector
// refinement, so each conjunct only touches rows surviving the previous
// ones. UNKNOWN filters the row out, as compilePred does.
func (x *Exec) compileVecPred(e Expr, sch schema.Schema) (ra.VecPred, bool, error) {
	conjuncts := splitAnd(e)
	preds := make([]ra.VecPred, 0, len(conjuncts))
	fellBack := false
	for _, c := range conjuncts {
		p, fb, err := x.compileVecConjunct(c, sch)
		if err != nil {
			return nil, false, err
		}
		fellBack = fellBack || fb
		preds = append(preds, p)
	}
	return ra.AndSel(preds...), fellBack, nil
}

// flipCmp mirrors a comparison when its operands swap sides (k < col ⇔
// col > k).
func flipCmp(op ra.CmpOp) ra.CmpOp {
	switch op {
	case ra.CmpLt:
		return ra.CmpGt
	case ra.CmpLe:
		return ra.CmpGe
	case ra.CmpGt:
		return ra.CmpLt
	case ra.CmpGe:
		return ra.CmpLe
	}
	return op
}

// compileVecConjunct compiles one conjunct, recognizing the hot comparison
// shapes (column ⋈ constant, column ⋈ column) as direct selection kernels.
func (x *Exec) compileVecConjunct(c Expr, sch schema.Schema) (ra.VecPred, bool, error) {
	if b, ok := c.(*Binary); ok {
		if op, isCmp := ra.CmpOpFromString(b.Op); isCmp {
			lc, lIsCol := b.L.(*ColRef)
			rc, rIsCol := b.R.(*ColRef)
			lLit, lIsLit := b.L.(*Lit)
			rLit, rIsLit := b.R.(*Lit)
			switch {
			case lIsCol && rIsLit:
				li, err := sch.Resolve(lc.Table, lc.Name)
				if err != nil {
					return nil, false, err
				}
				return ra.SelCompareColConst(li, op, rLit.Val), false, nil
			case lIsLit && rIsCol:
				ri, err := sch.Resolve(rc.Table, rc.Name)
				if err != nil {
					return nil, false, err
				}
				return ra.SelCompareColConst(ri, flipCmp(op), lLit.Val), false, nil
			case lIsCol && rIsCol:
				li, err := sch.Resolve(lc.Table, lc.Name)
				if err != nil {
					return nil, false, err
				}
				ri, err := sch.Resolve(rc.Table, rc.Name)
				if err != nil {
					return nil, false, err
				}
				return ra.SelCompareColCol(li, ri, op), false, nil
			}
			l, lfb, err := x.compileVecExpr(b.L, sch)
			if err != nil {
				return nil, false, err
			}
			r, rfb, err := x.compileVecExpr(b.R, sch)
			if err != nil {
				return nil, false, err
			}
			return ra.SelCompare(op, l, r), lfb || rfb, nil
		}
	}
	ex, fb, err := x.compileVecExpr(c, sch)
	if err != nil {
		return nil, false, err
	}
	return ra.SelFromExpr(ex), fb, nil
}

// compileVecAggs compiles the planned aggregate calls into vector aggregate
// specs over their output columns; fellBack reports row-fallback argument
// subtrees.
func (x *Exec) compileVecAggs(calls []*FuncCall, kinds []ra.VecAggKind, cols schema.Schema, sch schema.Schema) (specs []ra.VecAggSpec, fellBack bool, err error) {
	specs = make([]ra.VecAggSpec, len(calls))
	for i, f := range calls {
		var arg ra.VecExpr
		if !f.Star {
			var fb bool
			if arg, fb, err = x.compileVecExpr(f.Args[0], sch); err != nil {
				return nil, false, err
			}
			fellBack = fellBack || fb
		}
		specs[i] = ra.VecAggSpec{Col: cols[i], Kind: kinds[i], Arg: arg}
	}
	return specs, fellBack, nil
}

// vecPathNote annotates an analyzed plan node with the path that ran.
func vecPathNote(fellBack bool) string {
	if fellBack {
		return " (vectorized, row fallback)"
	}
	return " (vectorized)"
}

// selectVec runs a vectorized filter and charges the batch.
func (x *Exec) selectVec(input *relation.Relation, pred ra.VecPred, fellBack bool) (*relation.Relation, error) {
	out, err := ra.SelectVec(input, pred)
	if err != nil {
		return nil, err
	}
	x.Eng.CountVectorizedBatch(fellBack)
	return out, nil
}

// projectVecOuts runs a vectorized projection, charging the batch to the
// counters and the freshly allocated output values to the statement's
// memory budget (16 bytes per value slot, the governor's coarse unit) — the
// per-batch accounting the row path never had.
func (x *Exec) projectVecOuts(rel *relation.Relation, outs []ra.VecOutCol, fellBack bool) (*relation.Relation, error) {
	out, err := ra.ProjectVec(rel, outs)
	if err != nil {
		return nil, err
	}
	x.Eng.CountVectorizedBatch(fellBack)
	if err := x.Eng.Gov().ChargeBytes(int64(out.Len()) * int64(out.Sch.Arity()) * 16); err != nil {
		return nil, err
	}
	return out, nil
}

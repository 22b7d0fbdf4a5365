package sql

import (
	"fmt"
	"strings"

	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// compileExpr compiles an expression into a closure over the given schema.
// Uncorrelated subqueries (IN / EXISTS) are evaluated once at compile time,
// matching the engines' restriction that subqueries in the recursive step
// must not reference the recursive relation (Table 1, category D).
func (x *Exec) compileExpr(e Expr, sch schema.Schema) (ra.Expr, error) {
	switch n := e.(type) {
	case *Lit:
		return ra.ConstExpr(n.Val), nil
	case *ColRef:
		idx, err := sch.Resolve(n.Table, n.Name)
		if err != nil {
			return nil, err
		}
		return ra.ColExpr(idx), nil
	case *Unary:
		inner, err := x.compileExpr(n.X, sch)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "-":
			return func(t relation.Tuple) (value.Value, error) {
				v, err := inner(t)
				if err != nil {
					return value.Null, err
				}
				return value.Neg(v)
			}, nil
		case "not":
			return func(t relation.Tuple) (value.Value, error) {
				v, err := inner(t)
				if err != nil {
					return value.Null, err
				}
				if v.IsNull() {
					return value.Null, nil
				}
				return value.Bool(!v.AsBool()), nil
			}, nil
		}
		return nil, fmt.Errorf("sql: unknown unary operator %q", n.Op)
	case *Binary:
		return x.compileBinary(n, sch)
	case *FuncCall:
		return x.compileFunc(n, sch)
	case *IsNullExpr:
		inner, err := x.compileExpr(n.X, sch)
		if err != nil {
			return nil, err
		}
		neg := n.Negated
		return func(t relation.Tuple) (value.Value, error) {
			v, err := inner(t)
			if err != nil {
				return value.Null, err
			}
			return value.Bool(v.IsNull() != neg), nil
		}, nil
	case *InExpr:
		return x.compileIn(n, sch)
	case *ExistsExpr:
		sub, err := x.Run(n.Sub)
		if err != nil {
			return nil, err
		}
		res := value.Bool((sub.Len() > 0) != n.Negated)
		return ra.ConstExpr(res), nil
	}
	return nil, fmt.Errorf("sql: cannot compile %T", e)
}

func (x *Exec) compileBinary(n *Binary, sch schema.Schema) (ra.Expr, error) {
	l, err := x.compileExpr(n.L, sch)
	if err != nil {
		return nil, err
	}
	r, err := x.compileExpr(n.R, sch)
	if err != nil {
		return nil, err
	}
	pair := func(t relation.Tuple) (value.Value, value.Value, error) {
		lv, err := l(t)
		if err != nil {
			return value.Null, value.Null, err
		}
		rv, err := r(t)
		return lv, rv, err
	}
	switch n.Op {
	case "+":
		return func(t relation.Tuple) (value.Value, error) {
			lv, rv, err := pair(t)
			if err != nil {
				return value.Null, err
			}
			return value.Add(lv, rv)
		}, nil
	case "-":
		return func(t relation.Tuple) (value.Value, error) {
			lv, rv, err := pair(t)
			if err != nil {
				return value.Null, err
			}
			return value.Sub(lv, rv)
		}, nil
	case "*":
		return func(t relation.Tuple) (value.Value, error) {
			lv, rv, err := pair(t)
			if err != nil {
				return value.Null, err
			}
			return value.Mul(lv, rv)
		}, nil
	case "/":
		return func(t relation.Tuple) (value.Value, error) {
			lv, rv, err := pair(t)
			if err != nil {
				return value.Null, err
			}
			return value.Div(lv, rv)
		}, nil
	case "%":
		return func(t relation.Tuple) (value.Value, error) {
			lv, rv, err := pair(t)
			if err != nil {
				return value.Null, err
			}
			return value.Mod(lv, rv)
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := n.Op
		return func(t relation.Tuple) (value.Value, error) {
			lv, rv, err := pair(t)
			if err != nil {
				return value.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return value.Null, nil // three-valued logic
			}
			c := lv.Compare(rv)
			var ok bool
			switch op {
			case "=":
				ok = c == 0
			case "<>":
				ok = c != 0
			case "<":
				ok = c < 0
			case "<=":
				ok = c <= 0
			case ">":
				ok = c > 0
			case ">=":
				ok = c >= 0
			}
			return value.Bool(ok), nil
		}, nil
	case "and":
		return func(t relation.Tuple) (value.Value, error) {
			lv, rv, err := pair(t)
			if err != nil {
				return value.Null, err
			}
			// SQL three-valued AND.
			if !lv.IsNull() && !lv.AsBool() || !rv.IsNull() && !rv.AsBool() {
				return value.Bool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return value.Null, nil
			}
			return value.Bool(true), nil
		}, nil
	case "or":
		return func(t relation.Tuple) (value.Value, error) {
			lv, rv, err := pair(t)
			if err != nil {
				return value.Null, err
			}
			if !lv.IsNull() && lv.AsBool() || !rv.IsNull() && rv.AsBool() {
				return value.Bool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return value.Null, nil
			}
			return value.Bool(false), nil
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown operator %q", n.Op)
}

func (x *Exec) compileFunc(n *FuncCall, sch schema.Schema) (ra.Expr, error) {
	if n.IsAggregate() {
		return nil, fmt.Errorf("sql: aggregate %s outside GROUP BY context", n.Name)
	}
	args := make([]ra.Expr, len(n.Args))
	for i, a := range n.Args {
		ex, err := x.compileExpr(a, sch)
		if err != nil {
			return nil, err
		}
		args[i] = ex
	}
	evalArgs := func(t relation.Tuple) ([]value.Value, error) {
		vs := make([]value.Value, len(args))
		for i, a := range args {
			v, err := a(t)
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		return vs, nil
	}
	name := strings.ToLower(n.Name)
	arity := func(want int) error {
		if len(args) != want {
			return fmt.Errorf("sql: %s takes %d argument(s), got %d", name, want, len(args))
		}
		return nil
	}
	switch name {
	case "sqrt":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(t relation.Tuple) (value.Value, error) {
			vs, err := evalArgs(t)
			if err != nil {
				return value.Null, err
			}
			return value.Sqrt(vs[0]), nil
		}, nil
	case "abs":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(t relation.Tuple) (value.Value, error) {
			vs, err := evalArgs(t)
			if err != nil {
				return value.Null, err
			}
			return value.Abs(vs[0]), nil
		}, nil
	case "coalesce":
		return func(t relation.Tuple) (value.Value, error) {
			vs, err := evalArgs(t)
			if err != nil {
				return value.Null, err
			}
			return value.Coalesce(vs...), nil
		}, nil
	case "least", "greatest":
		// Folded argument by argument: no argument slice per row.
		pick := value.Min
		if name == "greatest" {
			pick = value.Max
		}
		return func(t relation.Tuple) (value.Value, error) {
			out := value.Null
			for _, a := range args {
				v, err := a(t)
				if err != nil {
					return value.Null, err
				}
				out = pick(out, v)
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown function %q", name)
}

func (x *Exec) compileIn(n *InExpr, sch schema.Schema) (ra.Expr, error) {
	target, err := x.compileExpr(n.X, sch)
	if err != nil {
		return nil, err
	}
	var set map[uint64][]value.Value
	hasNull := false
	addVal := func(v value.Value) {
		if v.IsNull() {
			hasNull = true
			return
		}
		h := v.Hash()
		set[h] = append(set[h], v)
	}
	set = map[uint64][]value.Value{}
	if n.Sub != nil {
		sub, err := x.Run(n.Sub)
		if err != nil {
			return nil, err
		}
		if sub.Sch.Arity() != 1 {
			return nil, fmt.Errorf("sql: IN subquery must return one column, got %d", sub.Sch.Arity())
		}
		for _, t := range sub.Tuples {
			addVal(t[0])
		}
	} else {
		for _, le := range n.List {
			lit, ok := le.(*Lit)
			if !ok {
				return nil, fmt.Errorf("sql: IN list supports literals only")
			}
			addVal(lit.Val)
		}
	}
	neg := n.Negated
	return func(t relation.Tuple) (value.Value, error) {
		v, err := target(t)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			return value.Null, nil
		}
		found := false
		for _, cand := range set[v.Hash()] {
			if cand.Equal(v) {
				found = true
				break
			}
		}
		if found {
			return value.Bool(!neg), nil
		}
		// Three-valued logic: NOT IN over a set containing NULL is UNKNOWN.
		if hasNull {
			return value.Null, nil
		}
		return value.Bool(neg), nil
	}, nil
}

// compilePred wraps compileExpr as a boolean predicate; UNKNOWN (NULL)
// filters the row out, as SQL WHERE does.
func (x *Exec) compilePred(e Expr, sch schema.Schema) (ra.Pred, error) {
	ex, err := x.compileExpr(e, sch)
	if err != nil {
		return nil, err
	}
	return func(t relation.Tuple) (bool, error) {
		v, err := ex(t)
		if err != nil {
			return false, err
		}
		return !v.IsNull() && v.AsBool(), nil
	}, nil
}

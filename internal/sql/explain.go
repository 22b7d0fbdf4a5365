package sql

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// ExprString renders an expression back to SQL-ish text (used by EXPLAIN
// and error messages).
func ExprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ColRef:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case *Lit:
		if x.Val.K == value.KindString {
			return "'" + x.Val.S + "'"
		}
		return x.Val.String()
	case *Unary:
		if x.Op == "not" {
			return "not " + ExprString(x.X)
		}
		return x.Op + ExprString(x.X)
	case *Binary:
		return "(" + ExprString(x.L) + " " + x.Op + " " + ExprString(x.R) + ")"
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		return x.Name + "(" + exprList(x.Args, ", ") + ")"
	case *InExpr:
		op := "in"
		if x.Negated {
			op = "not in"
		}
		if x.Sub != nil {
			return ExprString(x.X) + " " + op + " (subquery)"
		}
		return ExprString(x.X) + " " + op + " (" + exprList(x.List, ", ") + ")"
	case *ExistsExpr:
		if x.Negated {
			return "not exists (subquery)"
		}
		return "exists (subquery)"
	case *IsNullExpr:
		if x.Negated {
			return ExprString(x.X) + " is not null"
		}
		return ExprString(x.X) + " is null"
	}
	return fmt.Sprintf("%T", e)
}

// exprList renders expressions joined by sep.
func exprList(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = ExprString(e)
	}
	return strings.Join(parts, sep)
}

// ExplainSelect renders the plan the executor would run for a SELECT,
// without running it: the tree EXPLAIN ANALYZE prints, minus the actuals,
// with each scan's current row count as its estimate.
func (x *Exec) ExplainSelect(s *SelectStmt) (string, error) {
	p, err := x.plan(s)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	p.render(&b, 0)
	return b.String(), nil
}

func (n *planNode) render(b *strings.Builder, depth int) {
	if n.op == opProject {
		n.kids[0].render(b, depth)
		return
	}
	for i := 0; i < depth; i++ {
		b.WriteString("   ")
	}
	b.WriteString("-> ")
	b.WriteString(n.label(true))
	b.WriteByte('\n')
	for _, k := range n.kids {
		k.render(b, depth+1)
	}
}

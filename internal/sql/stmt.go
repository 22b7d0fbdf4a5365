package sql

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file adds the DDL/DML subset that makes the engine usable as a
// small database rather than a query processor only: CREATE [TEMPORARY]
// TABLE, INSERT INTO ... VALUES / SELECT, DROP TABLE, and TRUNCATE TABLE.

// Statement is any executable SQL statement.
type Statement interface{ stmtNode() }

// CreateTableStmt creates a base or temporary table.
type CreateTableStmt struct {
	Name string
	Sch  schema.Schema
	Temp bool
}

// InsertStmt inserts literal rows or a query result into a table.
type InsertStmt struct {
	Table string
	Rows  [][]Expr // VALUES form (literals/constant expressions)
	Query *SelectStmt
}

// DropTableStmt drops a table.
type DropTableStmt struct{ Name string }

// TruncateStmt removes all rows of a table.
type TruncateStmt struct{ Name string }

// AnalyzeStmt refreshes a table's optimizer statistics — the remedy for
// the PostgreSQL temp-table plans the paper analyzes in Exp-A (with
// current statistics, the profile's optimizer picks hash joins again).
type AnalyzeStmt struct{ Name string }

// QueryStmt wraps a SELECT as a statement.
type QueryStmt struct{ Select *SelectStmt }

// WithQueryStmt wraps a WITH+ statement.
type WithQueryStmt struct{ With *WithStmt }

// ExplainStmt renders a query's plan. With Analyze set, the target is
// executed and the tree is annotated with actual rows, loops, and per-node
// timings; otherwise the plan is estimated without running the query.
type ExplainStmt struct {
	Analyze bool
	Target  Statement // *QueryStmt or *WithQueryStmt
}

func (*CreateTableStmt) stmtNode() {}
func (*InsertStmt) stmtNode()      {}
func (*DropTableStmt) stmtNode()   {}
func (*TruncateStmt) stmtNode()    {}
func (*AnalyzeStmt) stmtNode()     {}
func (*QueryStmt) stmtNode()       {}
func (*WithQueryStmt) stmtNode()   {}
func (*ExplainStmt) stmtNode()     {}

// ParseStatement parses any supported statement (SELECT, WITH+, CREATE,
// INSERT, DROP, TRUNCATE).
func ParseStatement(src string) (Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if !p.atEOF() {
		return nil, p.errf("trailing input %q", p.peek().Text)
	}
	return st, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKw("select") || p.peek().Kind == TokOp && p.peek().Text == "(":
		s, err := p.parseSetOps()
		if err != nil {
			return nil, err
		}
		return &QueryStmt{Select: s}, nil
	case p.peekKw("with"):
		w, err := p.parseWith()
		if err != nil {
			return nil, err
		}
		return &WithQueryStmt{With: w}, nil
	case p.peekKw("create"):
		if strings.ToLower(p.peekAt(1).Text) == "property" {
			return p.parseCreateGraph()
		}
		return p.parseCreateTable()
	case p.peekKw("insert"):
		return p.parseInsert()
	case p.peekKw("drop"):
		p.advance()
		if p.acceptWord("property") {
			if err := p.expectWord("graph"); err != nil {
				return nil, err
			}
			n, err := p.ident("graph name")
			if err != nil {
				return nil, err
			}
			return &DropGraphStmt{Name: n}, nil
		}
		if err := p.expect(TokKeyword, "table"); err != nil {
			return nil, err
		}
		n := p.advance()
		if n.Kind != TokIdent {
			return nil, p.errf("expected table name, found %q", n.Text)
		}
		return &DropTableStmt{Name: n.Text}, nil
	case p.peek().Kind == TokIdent && strings.ToLower(p.peek().Text) == "explain":
		p.advance()
		ex := &ExplainStmt{}
		if p.peek().Kind == TokIdent && strings.ToLower(p.peek().Text) == "analyze" {
			p.advance()
			ex.Analyze = true
		}
		target, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		switch target.(type) {
		case *QueryStmt, *WithQueryStmt:
		default:
			return nil, p.errf("explain supports SELECT and WITH+ statements only")
		}
		ex.Target = target
		return ex, nil
	case p.peek().Kind == TokIdent && strings.ToLower(p.peek().Text) == "analyze":
		p.advance()
		p.acceptKw("table")
		n := p.advance()
		if n.Kind != TokIdent {
			return nil, p.errf("expected table name, found %q", n.Text)
		}
		return &AnalyzeStmt{Name: n.Text}, nil
	case p.peekKw("truncate"):
		p.advance()
		p.acceptKw("table")
		n := p.advance()
		if n.Kind != TokIdent {
			return nil, p.errf("expected table name, found %q", n.Text)
		}
		return &TruncateStmt{Name: n.Text}, nil
	}
	return nil, p.errf("expected a statement, found %q", p.peek().Text)
}

var typeNames = map[string]value.Kind{
	"int": value.KindInt, "integer": value.KindInt, "bigint": value.KindInt,
	"float": value.KindFloat, "double": value.KindFloat, "real": value.KindFloat,
	"varchar": value.KindString, "text": value.KindString, "char": value.KindString,
	"bool": value.KindBool, "boolean": value.KindBool,
}

func (p *Parser) parseCreateTable() (Statement, error) {
	p.advance() // create
	temp := p.acceptKw("temporary")
	if err := p.expect(TokKeyword, "table"); err != nil {
		return nil, err
	}
	n := p.advance()
	if n.Kind != TokIdent {
		return nil, p.errf("expected table name, found %q", n.Text)
	}
	if err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	var sch schema.Schema
	for {
		col := p.advance()
		if col.Kind != TokIdent {
			return nil, p.errf("expected column name, found %q", col.Text)
		}
		ty := p.advance()
		if ty.Kind != TokIdent {
			return nil, p.errf("expected type for column %q, found %q", col.Text, ty.Text)
		}
		kind, ok := typeNames[strings.ToLower(ty.Text)]
		if !ok {
			return nil, p.errf("unknown type %q", ty.Text)
		}
		// Optional length, e.g. varchar(64).
		if p.accept(TokOp, "(") {
			if l := p.advance(); l.Kind != TokNumber {
				return nil, p.errf("expected length, found %q", l.Text)
			}
			if err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
		}
		sch = append(sch, schema.Column{Name: col.Text, Type: kind})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: n.Text, Sch: sch, Temp: temp}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.advance() // insert
	if err := p.expect(TokKeyword, "into"); err != nil {
		return nil, err
	}
	n := p.advance()
	if n.Kind != TokIdent {
		return nil, p.errf("expected table name, found %q", n.Text)
	}
	st := &InsertStmt{Table: n.Text}
	if p.acceptKw("values") {
		for {
			if err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			st.Rows = append(st.Rows, row)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		return st, nil
	}
	q, err := p.parseSetOps()
	if err != nil {
		return nil, err
	}
	st.Query = q
	return st, nil
}

// ExecStatement runs a DDL/DML/query statement. Query statements return
// their result relation; others return nil. WITH+ statements are not
// handled here (they need the withplus pipeline) — callers dispatch
// *WithQueryStmt themselves.
func (x *Exec) ExecStatement(st Statement) (*relation.Relation, error) {
	switch s := st.(type) {
	case *QueryStmt:
		expanded, err := ExpandStatement(x.Eng, s)
		if err != nil {
			return nil, err
		}
		q, ok := expanded.(*QueryStmt)
		if !ok {
			return nil, fmt.Errorf("sql: variable-length MATCH compiles to WITH+ and must run through the withplus pipeline")
		}
		return x.Run(q.Select)
	case *CreateGraphStmt:
		return nil, x.execCreateGraph(s)
	case *DropGraphStmt:
		return nil, x.Eng.Cat.DropGraph(s.Name)
	case *CreateTableStmt:
		if s.Temp {
			_, err := x.Eng.CreateTemp(s.Name, s.Sch)
			return nil, err
		}
		_, err := x.Eng.CreateBase(s.Name, s.Sch)
		return nil, err
	case *DropTableStmt:
		return nil, x.Eng.Cat.Drop(s.Name)
	case *TruncateStmt:
		t, err := x.Eng.Cat.Get(s.Name)
		if err != nil {
			return nil, err
		}
		return nil, t.Truncate()
	case *AnalyzeStmt:
		t, err := x.Eng.Cat.Get(s.Name)
		if err != nil {
			return nil, err
		}
		t.Analyze()
		return nil, nil
	case *InsertStmt:
		return nil, x.execInsert(s)
	case *ExplainStmt:
		target, err := ExpandStatement(x.Eng, s.Target)
		if err != nil {
			return nil, err
		}
		q, ok := target.(*QueryStmt)
		if !ok {
			return nil, fmt.Errorf("sql: EXPLAIN of WITH+ statements must run through the withplus pipeline")
		}
		if !s.Analyze {
			text, err := x.ExplainSelect(q.Select)
			if err != nil {
				return nil, err
			}
			return PlanRelation(text), nil
		}
		_, plan, err := x.RunAnalyzed(q.Select)
		if err != nil {
			return nil, err
		}
		return PlanRelation(plan.Render()), nil
	case *WithQueryStmt:
		return nil, fmt.Errorf("sql: WITH+ statements must run through the withplus pipeline")
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", st)
}

// PlanRelation wraps rendered plan text as a one-column relation (one tuple
// per line), so EXPLAIN results flow through the same result path as
// queries — the REPL and driver print them like any other rows.
func PlanRelation(text string) *relation.Relation {
	r := relation.New(schema.Schema{{Name: "QUERY PLAN", Type: value.KindString}})
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		r.Append(relation.Tuple{value.Str(line)})
	}
	return r
}

func (x *Exec) execInsert(s *InsertStmt) error {
	t, err := x.Eng.Cat.Get(s.Table)
	if err != nil {
		return err
	}
	if s.Query != nil {
		r, err := x.Run(s.Query)
		if err != nil {
			return err
		}
		if !r.Sch.UnionCompatible(t.Sch) {
			return fmt.Errorf("sql: insert arity %d into %s%s", r.Sch.Arity(), s.Table, t.Sch)
		}
		analyzed := t.Analyzed()
		if err := t.InsertRelation(r); err != nil {
			return err
		}
		if analyzed {
			t.Analyze() // base tables stay analyzed after explicit DML
		}
		return nil
	}
	// Evaluate every row first, then append them in one table write: a
	// multi-row INSERT is one version of the table, never observed torn by a
	// concurrent reader, and a row that fails to evaluate inserts nothing.
	empty := relation.New(schema.Schema{})
	empty.Append(relation.Tuple{})
	rows := relation.NewWithCap(t.Sch, len(s.Rows))
	for _, row := range s.Rows {
		if len(row) != t.Sch.Arity() {
			return fmt.Errorf("sql: insert arity %d into %s%s", len(row), s.Table, t.Sch)
		}
		tu := make(relation.Tuple, len(row))
		for i, e := range row {
			ex, err := x.compileExpr(e, schema.Schema{})
			if err != nil {
				return err
			}
			v, err := ex(empty.At(0))
			if err != nil {
				return err
			}
			tu[i] = v
		}
		rows.Tuples = append(rows.Tuples, tu)
	}
	return t.InsertRelation(rows)
}

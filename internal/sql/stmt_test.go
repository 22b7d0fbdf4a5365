package sql

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/value"
)

func execStmt(t *testing.T, x *Exec, q string) {
	t.Helper()
	st, err := ParseStatement(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	if _, err := x.ExecStatement(st); err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
}

func TestCreateInsertSelectLifecycle(t *testing.T) {
	x := NewExec(engine.New(engine.OracleLike()))
	execStmt(t, x, "create table users (uid int, name varchar(32), score float, active bool)")
	execStmt(t, x, "insert into users values (1, 'ada', 9.5, true), (2, 'bob', 4.0, false)")
	execStmt(t, x, "insert into users values (3, 'eve', 1 + 2.5, true)")
	r := mustRun(t, x, "select name, score from users where active = true order by score desc")
	if r.Len() != 2 || r.At(0)[0].S != "ada" || r.At(1)[1].AsFloat() != 3.5 {
		t.Fatalf("lifecycle result: %v", r)
	}
	// A multi-row INSERT ... VALUES is one table write: a bad row inserts
	// nothing, a good statement is one version however many rows it has.
	users, err := x.Eng.Cat.Get("users")
	if err != nil {
		t.Fatal(err)
	}
	ver := users.Version()
	bad, err := ParseStatement("insert into users values (4, 'ian', 1.0, true), (5, 'joe')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.ExecStatement(bad); err == nil {
		t.Error("insert with a short row should fail")
	}
	if users.Rows() != 3 || users.Version() != ver {
		t.Errorf("failed insert left %d rows at version %d, want 3 at %d", users.Rows(), users.Version(), ver)
	}
	execStmt(t, x, "insert into users values (4, 'ian', 1.0, false), (5, 'joe', 2.0, false)")
	if users.Rows() != 5 || users.Version() != ver+1 {
		t.Errorf("two-row insert: %d rows at version %d, want 5 at %d", users.Rows(), users.Version(), ver+1)
	}
	// INSERT ... SELECT.
	execStmt(t, x, "create table vips (uid int, name varchar)")
	execStmt(t, x, "insert into vips select uid, name from users where score > 3.6")
	r = mustRun(t, x, "select count(*) from vips")
	if r.At(0)[0].AsInt() != 2 {
		t.Fatalf("insert-select count: %v", r)
	}
	// TRUNCATE and DROP.
	execStmt(t, x, "truncate table vips")
	r = mustRun(t, x, "select count(*) from vips")
	if r.At(0)[0].AsInt() != 0 {
		t.Fatal("truncate failed")
	}
	execStmt(t, x, "drop table vips")
	if x.Eng.Cat.Has("vips") {
		t.Fatal("drop failed")
	}
}

func TestCreateTemporaryTable(t *testing.T) {
	x := NewExec(engine.New(engine.PostgresLike(false)))
	execStmt(t, x, "create temporary table scratch (x int)")
	tab, err := x.Eng.Cat.Get("scratch")
	if err != nil || !tab.Temp {
		t.Fatalf("temp table: %v %v", tab, err)
	}
	if tab.Store.BytesUsed() != 0 {
		// Paged store only grows after inserts.
		t.Fatal("fresh temp should be empty")
	}
	execStmt(t, x, "insert into scratch values (1)")
	if tab.Store.BytesUsed() == 0 {
		t.Fatal("postgres temp should be paged")
	}
}

func TestStatementParseErrors(t *testing.T) {
	bad := []string{
		"create table (x int)",
		"create table t (x nosuchtype)",
		"create table t (x int",
		"insert into",
		"insert t values (1)",
		"insert into t values 1",
		"drop t",
		"garbage statement",
		"truncate",
	}
	for _, q := range bad {
		if _, err := ParseStatement(q); err == nil {
			t.Errorf("%q should fail to parse", q)
		}
	}
}

func TestStatementExecErrors(t *testing.T) {
	x := NewExec(engine.New(engine.OracleLike()))
	for _, q := range []string{
		"insert into ghost values (1)",
		"drop table ghost",
		"truncate table ghost",
	} {
		st, err := ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := x.ExecStatement(st); err == nil {
			t.Errorf("%q should fail at execution", q)
		}
	}
	// Arity mismatch.
	execStmt(t, x, "create table t (a int, b int)")
	st, _ := ParseStatement("insert into t values (1)")
	if _, err := x.ExecStatement(st); err == nil {
		t.Error("arity mismatch should fail")
	}
	st, _ = ParseStatement("insert into t select 1")
	if _, err := x.ExecStatement(st); err == nil {
		t.Error("insert-select arity mismatch should fail")
	}
	// WITH+ statements are rejected by ExecStatement.
	st, err := ParseStatement("with R(x) as ((select a from t) union all (select x from R, t where x = a)) select x from R")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.ExecStatement(st); err == nil {
		t.Error("WITH+ must be routed through withplus")
	}
}

func TestInsertSelectKeepsBaseAnalyzed(t *testing.T) {
	x := NewExec(engine.New(engine.OracleLike()))
	execStmt(t, x, "create table t (a int)")
	tab, _ := x.Eng.Cat.Get("t")
	tab.Analyze()
	execStmt(t, x, "insert into t select 7")
	if !tab.Stats.Analyzed {
		t.Error("explicit DML should re-analyze base tables")
	}
	if tab.Rows() != 1 || tab.Stats.Rows != 1 {
		t.Errorf("rows: %d / %d", tab.Rows(), tab.Stats.Rows)
	}
}

func TestParseStatementDispatch(t *testing.T) {
	cases := map[string]string{
		"select 1":                                  "*sql.QueryStmt",
		"(select 1) union (select 2)":               "*sql.QueryStmt",
		"create table t (a int)":                    "*sql.CreateTableStmt",
		"insert into t values (1)":                  "*sql.InsertStmt",
		"drop table t":                              "*sql.DropTableStmt",
		"truncate table t":                          "*sql.TruncateStmt",
		"with R(a) as ((select 1)) select a from R": "*sql.WithQueryStmt",
	}
	for q, want := range cases {
		st, err := ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if got := typeName(st); got != want {
			t.Errorf("%q parsed as %s, want %s", q, got, want)
		}
	}
}

func typeName(v interface{}) string {
	switch v.(type) {
	case *QueryStmt:
		return "*sql.QueryStmt"
	case *CreateTableStmt:
		return "*sql.CreateTableStmt"
	case *InsertStmt:
		return "*sql.InsertStmt"
	case *DropTableStmt:
		return "*sql.DropTableStmt"
	case *TruncateStmt:
		return "*sql.TruncateStmt"
	case *WithQueryStmt:
		return "*sql.WithQueryStmt"
	}
	return "?"
}

func TestInsertNullAndExpressions(t *testing.T) {
	x := NewExec(engine.New(engine.OracleLike()))
	execStmt(t, x, "create table t (a int, b float)")
	execStmt(t, x, "insert into t values (null, 2 * 3.5)")
	r := mustRun(t, x, "select a, b from t")
	if !r.At(0)[0].IsNull() || r.At(0)[1].AsFloat() != 7 {
		t.Fatalf("row: %v", r.At(0))
	}
	if r.At(0)[1].K != value.KindFloat {
		t.Error("type should be float")
	}
}

func TestAnalyzeSwitchesTempTablePlan(t *testing.T) {
	// The Exp-A story in reverse: a PostgreSQL temp table joins by
	// sort-merge until ANALYZE provides statistics, after which the
	// optimizer picks the hash join it uses for base tables.
	x := NewExec(engine.New(engine.PostgresLike(false)))
	execStmt(t, x, "create table E (F int, T int)")
	tab, _ := x.Eng.Cat.Get("E")
	tab.Analyze()
	execStmt(t, x, "create temporary table W (ID int)")
	execStmt(t, x, "insert into W values (1), (2)")
	plan, err := x.ExplainSelect(mustParse(t, "select E.F from E, W where E.T = W.ID"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "sort-merge join") {
		t.Fatalf("pre-analyze plan should be sort-merge:\n%s", plan)
	}
	execStmt(t, x, "analyze W")
	plan, err = x.ExplainSelect(mustParse(t, "select E.F from E, W where E.T = W.ID"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash join") {
		t.Fatalf("post-analyze plan should be hash:\n%s", plan)
	}
	if _, err := ParseStatement("analyze"); err == nil {
		t.Error("analyze without table should fail")
	}
	st, _ := ParseStatement("analyze ghost")
	if _, err := x.ExecStatement(st); err == nil {
		t.Error("analyze of missing table should fail")
	}
}

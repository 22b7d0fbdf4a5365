package sql

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// testDB loads E(F,T,ew) and V(ID,vw) into a fresh Oracle-like engine.
func testDB(t *testing.T) *Exec {
	t.Helper()
	e := engine.New(engine.OracleLike())
	eRel := relation.New(schema.Schema{
		{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt},
		{Name: "ew", Type: value.KindFloat},
	})
	for _, row := range [][3]float64{{0, 1, 1}, {0, 2, 2}, {1, 2, 1}, {2, 3, 5}, {3, 1, 1}} {
		eRel.AppendVals(value.Int(int64(row[0])), value.Int(int64(row[1])), value.Float(row[2]))
	}
	if _, err := e.LoadBase("E", eRel); err != nil {
		t.Fatal(err)
	}
	vRel := relation.New(schema.Schema{
		{Name: "ID", Type: value.KindInt}, {Name: "vw", Type: value.KindFloat},
	})
	for i := 0; i < 4; i++ {
		vRel.AppendVals(value.Int(int64(i)), value.Float(float64(10*i)))
	}
	if _, err := e.LoadBase("V", vRel); err != nil {
		t.Fatal(err)
	}
	return NewExec(e)
}

func mustRun(t *testing.T, x *Exec, q string) *relation.Relation {
	t.Helper()
	s, err := ParseSelect(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	r, err := x.Run(s)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return r
}

func TestLexer(t *testing.T) {
	toks, err := Tokenize("SELECT a.b, 'it''s' FROM t WHERE x <> 1.5e2 -- comment\n AND y >= 3")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if texts[0] != "select" || kinds[0] != TokKeyword {
		t.Errorf("keyword lowering failed: %v", texts[0])
	}
	found := false
	for i, tx := range texts {
		if tx == "it's" && kinds[i] == TokString {
			found = true
		}
	}
	if !found {
		t.Error("escaped string not lexed")
	}
	for _, tx := range []string{"<>", ">=", "1.5e2"} {
		ok := false
		for _, got := range texts {
			if got == tx {
				ok = true
			}
		}
		if !ok {
			t.Errorf("token %q missing from %v", tx, texts)
		}
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Tokenize("a ~ b"); err == nil {
		t.Error("bad character should fail")
	}
	// Identifier and digit classes are ASCII-only; inside a string literal
	// any byte is data.
	for _, src := range []string{"a\xe1", "\xe1", "1\xb2", "select \xc3\xa9 from t"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("%q: non-ASCII byte outside a string literal should fail", src)
		}
	}
	if toks, err := Tokenize("'\xe1\xc3\xa9'"); err != nil || toks[0].Text != "\xe1\xc3\xa9" {
		t.Errorf("non-ASCII bytes inside a string literal must lex: %v, %v", toks, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select a from",
		"select a from t where",
		"select a from t limit x",
		"select a from t extra garbage",
		"select a in from t",
	}
	for _, q := range bad {
		if _, err := ParseSelect(q); err == nil {
			t.Errorf("%q should fail to parse", q)
		}
	}
}

func TestSimpleSelect(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select F, T from E where ew > 1")
	if r.Len() != 2 {
		t.Fatalf("rows = %d", r.Len())
	}
	r = mustRun(t, x, "select * from V")
	if r.Len() != 4 || r.Sch.Arity() != 2 {
		t.Fatalf("star select: %v", r.Sch)
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select ID, vw * 2 + 1 as dbl from V where ID = 2")
	if r.Len() != 1 || r.At(0)[1].AsFloat() != 41 {
		t.Fatalf("expr projection: %v", r)
	}
	if r.Sch[1].Name != "dbl" {
		t.Errorf("alias lost: %v", r.Sch)
	}
	r = mustRun(t, x, "select sqrt(vw) from V where ID = 1")
	if r.At(0)[0].AsFloat() != math.Sqrt(10) {
		t.Errorf("sqrt: %v", r)
	}
	r = mustRun(t, x, "select coalesce(null, 7) c, least(3,1,2) l, greatest(3,1,2) g, abs(0-4) a")
	row := r.At(0)
	if row[0].AsInt() != 7 || row[1].AsInt() != 1 || row[2].AsInt() != 3 || row[3].AsInt() != 4 {
		t.Errorf("scalar functions: %v", row)
	}
}

func TestJoinViaWhere(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select E.F, V.vw from E, V where E.T = V.ID and E.F = 0")
	if r.Len() != 2 {
		t.Fatalf("join rows = %d", r.Len())
	}
	for _, tu := range r.Tuples {
		if tu[0].AsInt() != 0 {
			t.Errorf("filter lost: %v", tu)
		}
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	x := testDB(t)
	// Two-hop paths: E1.T = E2.F.
	r := mustRun(t, x, "select E1.F, E2.T from E as E1, E as E2 where E1.T = E2.F")
	if r.Len() != 5 {
		t.Fatalf("two-hop paths = %d, want 5", r.Len())
	}
}

func TestExplicitJoins(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select V.ID, E.F from V left outer join E on V.ID = E.F where E.F is null")
	// Node 1,2,3 have out-edges; 0 has; actually all of 0..3 have out-edges
	// except... E sources are {0,1,2,3}: none null. Use E.T side instead.
	if r.Len() != 0 {
		t.Fatalf("unexpected unmatched sources: %v", r)
	}
	r = mustRun(t, x, "select V.ID from V left outer join E on V.ID = E.T where E.T is null")
	if r.Len() != 1 || r.At(0)[0].AsInt() != 0 {
		t.Fatalf("anti-join via left outer join: %v", r)
	}
	r = mustRun(t, x, "select coalesce(a.ID, b.ID) from (select ID from V where ID < 2) a full outer join (select ID from V where ID > 0) b on a.ID = b.ID")
	if r.Len() != 4 {
		t.Fatalf("full outer join rows = %d", r.Len())
	}
}

func TestGroupByAggregates(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select F, sum(ew) s, count(*) c, min(ew) mn, max(ew) mx, avg(ew) av from E group by F order by F")
	if r.Len() != 4 {
		t.Fatalf("groups = %d", r.Len())
	}
	first := r.At(0) // F=0: ew 1,2
	if first[1].AsFloat() != 3 || first[2].AsInt() != 2 || first[3].AsFloat() != 1 || first[4].AsFloat() != 2 || first[5].AsFloat() != 1.5 {
		t.Errorf("aggregates for F=0: %v", first)
	}
}

func TestAggregateInsideExpression(t *testing.T) {
	// The Fig. 3 pattern: c*sum(W*ew) + (1-c)/n nested around an aggregate.
	x := testDB(t)
	r := mustRun(t, x, "select E.T, 0.5 * sum(vw * ew) + 0.25 from E, V where E.F = V.ID group by E.T order by E.T")
	if r.Len() != 3 {
		t.Fatalf("rows = %d", r.Len())
	}
	// E.T=2: edges 0→2 (ew 2, vw 0) and 1→2 (ew 1, vw 10): 0.5*10+0.25.
	var got float64
	for _, tu := range r.Tuples {
		if tu[0].AsInt() == 2 {
			got = tu[1].AsFloat()
		}
	}
	if got != 5.25 {
		t.Errorf("nested aggregate = %v, want 5.25", got)
	}
}

func TestGlobalAggregate(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select count(*), sum(ew) from E")
	if r.Len() != 1 || r.At(0)[0].AsInt() != 5 || r.At(0)[1].AsFloat() != 10 {
		t.Fatalf("global agg: %v", r)
	}
	// max(L)+1 over empty relation (the TopoSort L_n step) yields NULL+1=NULL.
	x.Override["Empty"] = relation.New(schema.Cols(value.KindInt, "L"))
	r = mustRun(t, x, "select max(L) + 1 from Empty")
	if r.Len() != 1 || !r.At(0)[0].IsNull() {
		t.Fatalf("empty max: %v", r)
	}
}

func TestHaving(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select F, count(*) c from E group by F having count(*) > 1")
	if r.Len() != 1 || r.At(0)[0].AsInt() != 0 {
		t.Fatalf("having: %v", r)
	}
}

func TestDistinctOrderLimit(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select distinct T from E order by T desc limit 2")
	if r.Len() != 2 || r.At(0)[0].AsInt() != 3 || r.At(1)[0].AsInt() != 2 {
		t.Fatalf("distinct/order/limit: %v", r)
	}
}

func TestInSubqueryAndNotIn(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select ID from V where ID in (select T from E)")
	if r.Len() != 3 {
		t.Fatalf("in-subquery rows = %d", r.Len())
	}
	r = mustRun(t, x, "select ID from V where ID not in (select T from E)")
	if r.Len() != 1 || r.At(0)[0].AsInt() != 0 {
		t.Fatalf("not-in rows: %v", r)
	}
	// Paper-style bare subquery without parentheses (Fig. 5).
	r = mustRun(t, x, "select ID from V where ID not in select T from E")
	if r.Len() != 1 {
		t.Fatalf("bare not-in: %v", r)
	}
	r = mustRun(t, x, "select ID from V where ID in (1, 3)")
	if r.Len() != 2 {
		t.Fatalf("in-list rows = %d", r.Len())
	}
}

func TestExists(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select ID from V where exists (select * from E where F = 0)")
	if r.Len() != 4 {
		t.Fatalf("exists: %d", r.Len())
	}
	r = mustRun(t, x, "select ID from V where not exists (select * from E where ew > 100)")
	if r.Len() != 4 {
		t.Fatalf("not exists: %d", r.Len())
	}
	r = mustRun(t, x, "select ID from V where exists (select * from E where ew > 100)")
	if r.Len() != 0 {
		t.Fatalf("false exists: %d", r.Len())
	}
}

func TestSetOperations(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "(select F from E) union (select T from E)")
	if r.Len() != 4 {
		t.Fatalf("union: %d", r.Len())
	}
	r = mustRun(t, x, "(select F from E) union all (select T from E)")
	if r.Len() != 10 {
		t.Fatalf("union all: %d", r.Len())
	}
	r = mustRun(t, x, "(select T from E) except (select F from E)")
	if r.Len() != 0 {
		t.Fatalf("except: %v", r)
	}
	r = mustRun(t, x, "(select ID from V where ID < 2) intersect (select ID from V where ID > 0)")
	if r.Len() != 1 || r.At(0)[0].AsInt() != 1 {
		t.Fatalf("intersect: %v", r)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	x := testDB(t)
	r := mustRun(t, x, "select s.F from (select F, sum(ew) tot from E group by F) s where s.tot > 2")
	if r.Len() != 2 {
		t.Fatalf("from-subquery: %v", r)
	}
}

func TestNullThreeValuedLogic(t *testing.T) {
	x := testDB(t)
	nr := relation.New(schema.Schema{{Name: "a", Type: value.KindInt}})
	nr.Append(relation.Tuple{value.Null})
	nr.Append(relation.Tuple{value.Int(1)})
	x.Override["N"] = nr
	if r := mustRun(t, x, "select a from N where a = a"); r.Len() != 1 {
		t.Errorf("NULL = NULL must be UNKNOWN: %v", r)
	}
	if r := mustRun(t, x, "select a from N where a is null"); r.Len() != 1 {
		t.Errorf("is null: %v", r)
	}
	if r := mustRun(t, x, "select a from N where a is not null"); r.Len() != 1 {
		t.Errorf("is not null: %v", r)
	}
	// NOT IN against a set with NULL is empty.
	if r := mustRun(t, x, "select ID from V where ID not in (select a from N)"); r.Len() != 0 {
		t.Errorf("NAAJ semantics: %v", r)
	}
}

func TestOverrideShadowsCatalog(t *testing.T) {
	x := testDB(t)
	small := relation.New(schema.Schema{{Name: "ID", Type: value.KindInt}, {Name: "vw", Type: value.KindFloat}})
	small.AppendVals(value.Int(99), value.Float(0))
	x.Override["V"] = small
	r := mustRun(t, x, "select ID from V")
	if r.Len() != 1 || r.At(0)[0].AsInt() != 99 {
		t.Fatalf("override not used: %v", r)
	}
}

func TestReferencedTablesAndNegationDetection(t *testing.T) {
	s, err := ParseSelect("select a from X, Y where a not in (select b from Z) and exists (select * from W)")
	if err != nil {
		t.Fatal(err)
	}
	refs := ReferencedTables(s)
	want := []string{"X", "Y", "Z", "W"}
	if len(refs) != 4 {
		t.Fatalf("refs = %v", refs)
	}
	for _, w := range want {
		if !contains(refs, w) {
			t.Errorf("missing %s in %v", w, refs)
		}
	}
	if !s.UsesNegation("Z") || s.UsesNegation("W") || s.UsesNegation("X") {
		t.Error("negation detection wrong")
	}
	s2, _ := ParseSelect("select a from X except select a from Y")
	if !s2.UsesNegation("Y") {
		t.Error("except should count as negation")
	}
}

func TestAggregateOutsideGroupContextFails(t *testing.T) {
	x := testDB(t)
	s, err := ParseSelect("select F from E where sum(ew) > 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(s); err == nil {
		t.Error("aggregate in WHERE must fail")
	}
}

func TestUnknownTableAndFunction(t *testing.T) {
	x := testDB(t)
	if _, err := x.Run(mustParse(t, "select a from NoSuch")); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := x.Run(mustParse(t, "select nosuchfn(1) from V")); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := x.Run(mustParse(t, "select zz from V")); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := x.Run(mustParse(t, "(select ID from V) union (select F, T from E)")); err == nil {
		t.Error("arity mismatch in set op should fail")
	}
}

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	s, err := ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCrossProfileJoinPlans(t *testing.T) {
	// The same query must return identical results on all profiles even
	// though the physical join differs.
	q := "select E.F, V.vw from E, V where E.T = V.ID order by E.F, V.vw"
	var ref string
	for _, prof := range []engine.Profile{engine.OracleLike(), engine.DB2Like(), engine.PostgresLike(true)} {
		e := engine.New(prof)
		eRel := relation.New(schema.Schema{
			{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt},
			{Name: "ew", Type: value.KindFloat},
		})
		for i := int64(0); i < 30; i++ {
			eRel.AppendVals(value.Int(i%7), value.Int(i%5), value.Float(1))
		}
		if _, err := e.LoadBase("E", eRel); err != nil {
			t.Fatal(err)
		}
		vRel := relation.New(schema.Schema{
			{Name: "ID", Type: value.KindInt}, {Name: "vw", Type: value.KindFloat},
		})
		for i := int64(0); i < 5; i++ {
			vRel.AppendVals(value.Int(i), value.Float(float64(i)))
		}
		// Store V as a *temp* table so plan choice diverges by profile.
		tmp, err := e.CreateTemp("V", vRel.Sch)
		if err != nil {
			t.Fatal(err)
		}
		if err := tmp.InsertRelation(vRel); err != nil {
			t.Fatal(err)
		}
		got := mustRun(t, NewExec(e), q).String()
		if ref == "" {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("%s: result differs:\n%s\nvs\n%s", prof.Name, got, ref)
		}
	}
	if !strings.Contains(ref, "(") {
		t.Error("sanity: reference result empty")
	}
}

func TestGroupByExpression(t *testing.T) {
	x := testDB(t)
	// Group on a computed expression, repeated verbatim in the select list
	// and in HAVING.
	r := mustRun(t, x, "select F + T s, count(*) c from E group by F + T order by s")
	if r.Len() == 0 {
		t.Fatal("no groups")
	}
	total := int64(0)
	for _, tu := range r.Tuples {
		total += tu[1].AsInt()
	}
	if total != 5 {
		t.Fatalf("group counts sum to %d, want 5", total)
	}
	r = mustRun(t, x, "select F + T s from E group by F + T having count(*) > 1")
	// E rows: (0,1),(0,2),(1,2),(2,3),(3,1): sums 1,2,3,5,4 — all distinct.
	if r.Len() != 0 {
		t.Fatalf("having over expression groups: %v", r)
	}
	// Mixed column + expression keys.
	r = mustRun(t, x, "select F, T % 2 parity, count(*) c from E group by F, T % 2 order by F")
	if r.Len() != 5 {
		t.Fatalf("mixed keys groups = %d", r.Len())
	}
}

func TestExplainSelect(t *testing.T) {
	x := testDB(t)
	plan, err := x.ExplainSelect(mustParse(t, "select E.F, sum(vw) s from E, V where E.T = V.ID and vw > 5 group by E.F order by s desc limit 3"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"limit 3", "sort by s desc", "hash aggregate on (E.F)",
		"hash join on (E.T = V.ID)", "filter (vw > 5)",
		"scan E (base table, 5 rows, analyzed)",
		"scan V (base table, 4 rows, analyzed)",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// Temp tables show the profile's fallback algorithm.
	pg := engine.New(engine.PostgresLike(false))
	eRel := relation.New(schema.Schema{
		{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt},
		{Name: "ew", Type: value.KindFloat},
	})
	if _, err := pg.LoadBase("E", eRel); err != nil {
		t.Fatal(err)
	}
	tmp, _ := pg.CreateTemp("W", schema.Cols(value.KindInt, "ID"))
	_ = tmp
	xp := NewExec(pg)
	plan, err = xp.ExplainSelect(mustParse(t, "select E.F from E, W where E.T = W.ID"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "sort-merge join") {
		t.Errorf("postgres temp plan should pick sort-merge:\n%s", plan)
	}
	if !strings.Contains(plan, "temp table") {
		t.Errorf("plan should mark temp tables:\n%s", plan)
	}
}

func TestExplainSelectShapes(t *testing.T) {
	x := testDB(t)
	plan, err := x.ExplainSelect(mustParse(t, "(select F from E) union (select T from E)"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "union") {
		t.Errorf("set op missing:\n%s", plan)
	}
	plan, err = x.ExplainSelect(mustParse(t, "select s.F from (select F from E where ew > 1) s"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "subquery s:") || !strings.Contains(plan, "filter (ew > 1)") {
		t.Errorf("subquery plan wrong:\n%s", plan)
	}
	plan, err = x.ExplainSelect(mustParse(t, "select V.ID from V left outer join E on V.ID = E.T"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "left outer join on (V.ID = E.T)") {
		t.Errorf("outer join plan wrong:\n%s", plan)
	}
	plan, err = x.ExplainSelect(mustParse(t, "select 1"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "values (one row)") {
		t.Errorf("no-from plan wrong:\n%s", plan)
	}
	if _, err := x.ExplainSelect(mustParse(t, "select a from Ghost")); err == nil {
		t.Error("explain of unknown table should fail")
	}
}

func TestExprString(t *testing.T) {
	cases := map[string]string{
		"select a + b * 2 from V":                "(a + (b * 2))",
		"select not a from V":                    "not a",
		"select a in (1, 2) from V":              "a in (1, 2)",
		"select a not in select b from W from V": "a not in (subquery)",
		"select exists (select 1) from V":        "exists (subquery)",
		"select a is not null from V":            "a is not null",
		"select coalesce(a, 'x') from V":         "coalesce(a, 'x')",
		"select count(*) c from V group by a":    "count(*)",
	}
	for q, want := range cases {
		s, err := ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if got := ExprString(s.Items[0].Expr); got != want {
			t.Errorf("%q rendered as %q, want %q", q, got, want)
		}
	}
}

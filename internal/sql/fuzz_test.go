package sql

import (
	"testing"

	"repro/internal/engine"
)

// Fuzz targets: the lexer/parser and executor must never panic on
// arbitrary input — they return errors. Seeds run as part of the normal
// test suite; `go test -fuzz=FuzzParseStatement ./internal/sql` explores
// further.

func FuzzParseStatement(f *testing.F) {
	seeds := []string{
		"select 1",
		"select a, b from t where a = 1 and b <> 'x' group by a having count(*) > 2 order by a desc limit 3",
		"select * from a, b left outer join c on a.x = c.y",
		"with R(a) as ((select 1) union all (select a + 1 from R) maxrecursion 5) select a from R",
		"insert into t values (1, 'two', 3.0, null), (4, '', 0.5e3, true)",
		"create temporary table t (a int, b varchar(12))",
		"select a from t where a not in select b from s",
		"select distinct coalesce(a, b) from t union select c from u except select d from v",
		"((select 1))",
		"select 'unterminated",
		"select a..b from t",
		"with R as",
		"select ((((((1))))))",
		"select -1e309, +2, not not true",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Must not panic; errors are fine.
		st, err := ParseStatement(input)
		if err != nil {
			return
		}
		// Parsed statements must also execute or fail cleanly against an
		// empty engine.
		x := NewExec(engine.New(engine.OracleLike()))
		if _, ok := st.(*WithQueryStmt); ok {
			return // withplus handles these; covered by its own fuzz
		}
		_, _ = x.ExecStatement(st)
	})
}

func FuzzTokenize(f *testing.F) {
	for _, s := range []string{"select * from t", "'a''b'", "1.5e-3 <> >= <=", "-- comment\nx", "a\xe1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		toks, err := Tokenize(input)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatal("token stream must end with EOF")
		}
	})
}

// FuzzMatchParser pins the graph surface: parsing never panics, and for
// every statement the renderer can print, parse → String → reparse →
// String is a fixed point.
func FuzzMatchParser(f *testing.F) {
	seeds := []string{
		"create property graph g (vertex tables (V key (ID)), edge tables (E source key (F) references V destination key (T) references V))",
		"create property graph g (vertex tables (V key (ID), W key (K)))",
		"drop property graph g",
		"select * from graph_table(g match (a)-[e]->(b) columns (a.ID aid, b.ID bid)) gt",
		"select * from graph_table(g match (a)-[e1]->(b)<-[e2]-(c) where b.name = 'x' columns (a.ID x, c.ID y))",
		"select * from graph_table(g match (a)-[e]->{1,4}(b) columns (a.ID s, b.ID d)) gt where s < d",
		"select * from graph_table(g match (a)-[]->{1,}(b) columns (a.ID s, b.ID d))",
		"select * from graph_table(g match any shortest (a)-[e]->(b) where a.ID = 1 columns (b.ID d, path_cost() c))",
		"select * from graph_table(g match walk (a:V)-[e:E]->(b:V) columns (a.ID x))",
		"select * from graph_table(g match trail (a)-[e]->(b) columns (a.ID x))",
		"select * from graph_table(g match all shortest (a)-[e]->(b) columns (a.ID x))",
		"select * from graph_table(g match (a)-[e]->{2,3}(b) columns (a.ID x))",
		"select * from graph_table(g match (a)-[e]->{1,0}(b) columns (a.ID x))",
		"select * from graph_table(g match (a) columns (a.ID x))",
		"select * from graph_table(",
		"create property graph",
		"graph_table(g)",
		// A raw byte >= 0x80 outside a string literal: a lex error, not an
		// identifier that cannot survive render -> reparse.
		"select * from graph_table(g match (a) columns (a\xe1()))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := ParseStatement(input)
		if err != nil {
			return
		}
		r1, ok := StatementString(st)
		if !ok {
			return // statement kind the renderer does not cover
		}
		st2, err := ParseStatement(r1)
		if err != nil {
			t.Fatalf("rendered statement does not reparse: %q: %v", r1, err)
		}
		r2, ok := StatementString(st2)
		if !ok {
			t.Fatalf("reparse changed statement kind: %q", r1)
		}
		if r1 != r2 {
			t.Fatalf("render not a fixed point:\n 1: %s\n 2: %s", r1, r2)
		}
	})
}

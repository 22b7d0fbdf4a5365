package sql

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Differential tests for the vectorized compiler: the batch kernels must be
// observationally identical to the row path on every expression the SQL
// surface can produce. FuzzVectorVsRow generates expression ASTs from fuzz
// bytes and holds ra.Select/ra.Project against ra.SelectVec/ra.ProjectVec;
// the deterministic tests below run whole statements through two executors
// with DisableVectorized toggled.

// fuzzRelation builds a 64-row table with two dense int columns, a dense
// float column, and a messy column mixing NULL, ints, floats, and strings —
// the shapes that exercise both the typed kernels and the generic paths.
func fuzzRelation(seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(schema.Schema{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
		{Name: "f", Type: value.KindFloat},
		{Name: "m", Type: value.KindInt},
	})
	for i := 0; i < 64; i++ {
		var m value.Value
		switch rng.Intn(5) {
		case 0:
			m = value.Null
		case 1:
			m = value.Str("x")
		case 2:
			m = value.Float(rng.Float64() * 3)
		default:
			m = value.Int(int64(rng.Intn(7) - 3))
		}
		r.AppendVals(
			value.Int(int64(rng.Intn(10))),
			value.Int(int64(rng.Intn(10)-5)),
			value.Float(rng.Float64()*4-2),
			m,
		)
	}
	return r
}

// exprGen derives an expression AST from a byte program; out of bytes means
// zeroes, so every program terminates in column-0 leaves.
type exprGen struct {
	prog []byte
	pos  int
}

func (g *exprGen) next() byte {
	if g.pos >= len(g.prog) {
		return 0
	}
	b := g.prog[g.pos]
	g.pos++
	return b
}

var fuzzCols = []string{"a", "b", "f", "m"}

func (g *exprGen) leaf() Expr {
	if g.next()%2 == 0 {
		return &ColRef{Name: fuzzCols[int(g.next())%len(fuzzCols)]}
	}
	switch g.next() % 4 {
	case 0:
		return &Lit{Val: value.Int(int64(g.next()%7) - 3)}
	case 1:
		return &Lit{Val: value.Float(float64(g.next()) / 16.0)}
	case 2:
		return &Lit{Val: value.Str("x")}
	default:
		return &Lit{Val: value.Null}
	}
}

func (g *exprGen) expr(depth int) Expr {
	if depth <= 0 {
		return g.leaf()
	}
	switch g.next() % 9 {
	case 0, 1:
		return g.leaf()
	case 2:
		return &Unary{Op: "-", X: g.expr(depth - 1)}
	case 3:
		return &Unary{Op: "not", X: g.expr(depth - 1)}
	case 4:
		ops := []string{"+", "-", "*", "/", "%"}
		return &Binary{Op: ops[int(g.next())%len(ops)], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 5:
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return &Binary{Op: ops[int(g.next())%len(ops)], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 6:
		op := "and"
		if g.next()%2 == 1 {
			op = "or"
		}
		return &Binary{Op: op, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 7:
		return &IsNullExpr{X: g.expr(depth - 1), Negated: g.next()%2 == 1}
	default:
		// Scalar functions have no dedicated kernel: this covers the
		// row-fallback path inside an otherwise vectorized tree.
		if g.next()%2 == 0 {
			return &FuncCall{Name: "abs", Args: []Expr{g.expr(depth - 1)}}
		}
		return &FuncCall{Name: "coalesce", Args: []Expr{g.expr(depth - 1), g.expr(depth - 1)}}
	}
}

// sameVal is value equality with NaN = NaN (a float kernel and the row path
// must produce bitwise-compatible results, and NaN != NaN would mask that).
func sameVal(a, b value.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == value.KindFloat && math.IsNaN(a.F) && math.IsNaN(b.F) {
		return true
	}
	return a == b
}

// FuzzVectorVsRow is the differential oracle for the vectorized compiler:
// for every generated expression, if the row path succeeds the vector path
// must succeed with byte-identical output. When the row path errors the
// comparison is skipped — selection-vector refinement means later conjuncts
// see fewer rows, so the vector path's error set is a subset of the row
// path's, and it may legitimately succeed where the row path fails.
func FuzzVectorVsRow(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{4, 0, 0, 0, 1, 1, 5, 2, 0, 2, 1, 0})    // arithmetic + comparison
	f.Add(int64(3), []byte{6, 0, 5, 3, 0, 3, 1, 1, 7, 1, 0, 3})    // and/or over comparisons
	f.Add(int64(4), []byte{8, 0, 2, 0, 1, 8, 1, 0, 2, 0, 3})       // abs/coalesce fallback
	f.Add(int64(5), []byte{4, 3, 0, 3, 0, 1, 2})                   // division / modulo by column
	f.Add(int64(6), []byte{7, 0, 0, 3, 5, 1, 0, 3, 1, 1, 3})       // is null over messy column
	f.Add(int64(7), []byte{5, 4, 0, 6, 1, 3, 2, 0, 0, 0, 5, 1, 1}) // nested logic under comparison
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		rel := fuzzRelation(seed%16 + 1)
		sch := rel.Sch
		x := NewExec(engine.New(engine.OracleLike()))
		g := &exprGen{prog: prog}
		e := g.expr(4)

		// Predicate differential: WHERE semantics.
		rowPred, rerr := x.compilePred(e, sch)
		if rerr != nil {
			t.Fatalf("row compile failed on generated expr: %v", rerr)
		}
		vecPred, _, verr := x.compileVecPred(e, sch)
		if verr != nil {
			t.Fatalf("row path compiled but vector did not: %v", verr)
		}
		rowOut, rowErr := ra.Select(rel, rowPred)
		vecOut, vecErr := ra.SelectVec(rel, vecPred)
		if rowErr == nil {
			if vecErr != nil {
				t.Fatalf("row select succeeded, vector failed: %v", vecErr)
			}
			compareRels(t, "select", rowOut, vecOut)
		}

		// Expression differential: projection semantics.
		rowEx, rerr := x.compileExpr(e, sch)
		if rerr != nil {
			t.Fatalf("row compile failed on generated expr: %v", rerr)
		}
		vecEx, _, verr := x.compileVecExpr(e, sch)
		if verr != nil {
			t.Fatalf("row path compiled but vector did not: %v", verr)
		}
		want := make([]value.Value, 0, rel.Len())
		for _, tup := range rel.Tuples {
			v, err := rowEx(tup)
			if err != nil {
				return // row path errors: nothing to compare
			}
			want = append(want, v)
		}
		col := schema.Column{Name: "o", Type: value.KindFloat}
		got, vecErr := ra.ProjectVec(rel, []ra.VecOutCol{{Col: col, Expr: vecEx}})
		if vecErr != nil {
			t.Fatalf("row projection succeeded, vector failed: %v", vecErr)
		}
		if got.Len() != len(want) {
			t.Fatalf("projection rows: row %d vector %d", len(want), got.Len())
		}
		for i, tup := range got.Tuples {
			if !sameVal(tup[0], want[i]) {
				t.Fatalf("projection row %d: row path %v vector %v", i, want[i], tup[0])
			}
		}
	})
}

// compareRels requires identical schema-width, length, and values in order.
func compareRels(t *testing.T, what string, want, got *relation.Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s rows: row path %d vector %d", what, want.Len(), got.Len())
	}
	for i := range want.Tuples {
		if len(want.Tuples[i]) != len(got.Tuples[i]) {
			t.Fatalf("%s row %d arity: row path %d vector %d", what, i, len(want.Tuples[i]), len(got.Tuples[i]))
		}
		for j := range want.Tuples[i] {
			if !sameVal(want.Tuples[i][j], got.Tuples[i][j]) {
				t.Fatalf("%s row %d col %d: row path %v vector %v", what, i, j, want.Tuples[i][j], got.Tuples[i][j])
			}
		}
	}
}

// vecTestDB loads a table with dense and messy columns into a fresh engine.
func vecTestDB(t *testing.T, prof engine.Profile, disable bool) *Exec {
	t.Helper()
	e := engine.New(prof)
	e.DisableVectorized = disable
	if _, err := e.LoadBase("T", fuzzRelation(7)); err != nil {
		t.Fatal(err)
	}
	return NewExec(e)
}

// TestVecRowStatementParity runs whole statements through a vectorized and a
// row-path executor on every profile and requires identical rendered output,
// with the counters proving which path ran.
func TestVecRowStatementParity(t *testing.T) {
	queries := []struct {
		q        string
		fallback bool // expects RowFallbacks > 0 on the vectorized engine
	}{
		{q: "select a, b from T where f > 0.5 and a <> b"},
		{q: "select a + b as s, f * 2.0 as w, a from T"},
		{q: "select a, sum(f) as s, count(*) as n, max(f) as mx from T group by a"},
		{q: "select a, min(b) as mn, avg(f) as av from T group by a having count(*) > 2"},
		{q: "select a from T where m is null"},
		{q: "select a from T where m is not null and m > 0"},
		{q: "select b % 3 as r, a / 2 as h from T where b <> 0"},
		{q: "select a from T where coalesce(m, 0) > 1", fallback: true},
		{q: "select abs(b) as ab from T", fallback: true},
		{q: "select count(*) as n from T"},
		{q: "select sum(a + b) as s from T where not (f < 0.0 or a = b)"},
	}
	for _, prof := range engine.Profiles() {
		for _, tc := range queries {
			vec := vecTestDB(t, prof, false)
			row := vecTestDB(t, prof, true)
			wantRel := mustRun(t, row, tc.q)
			gotRel := mustRun(t, vec, tc.q)
			if want, got := wantRel.String(), gotRel.String(); want != got {
				t.Errorf("%s / %q:\nrow path:\n%s\nvectorized:\n%s", prof.Name, tc.q, want, got)
			}
			if row.Eng.Cnt.VectorizedBatches != 0 {
				t.Errorf("%s / %q: DisableVectorized engine ran %d batches", prof.Name, tc.q, row.Eng.Cnt.VectorizedBatches)
			}
			if vec.Eng.Cnt.VectorizedBatches == 0 {
				t.Errorf("%s / %q: vectorized engine ran no batches", prof.Name, tc.q)
			}
			if tc.fallback && vec.Eng.Cnt.RowFallbacks == 0 {
				t.Errorf("%s / %q: expected a row fallback, counter is 0", prof.Name, tc.q)
			}
			if !tc.fallback && vec.Eng.Cnt.RowFallbacks != 0 {
				t.Errorf("%s / %q: unexpected row fallbacks: %d", prof.Name, tc.q, vec.Eng.Cnt.RowFallbacks)
			}
		}
	}
}

package sql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// pgFloatCmp is PostgreSQL's float order, written independently of the
// engine: NaN equals NaN and sorts above every number, +Inf included.
func pgFloatCmp(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func opHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0 // ">="
}

// TestNaNComparesInPostgresOrder: NaN equals NaN and sorts above every
// number — on the row path, on the vector kernels, and through an index
// lookup — for all six comparison operators (column against literal and
// column against column) and for ORDER BY, and every path returns the bag
// PostgreSQL's order predicts. Before the order was fixed a NaN row passed
// "x = 7" and failed "x <> 7".
func TestNaNComparesInPostgresOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vals := []float64{0.5, 2.5, nan, inf}
	sch := schema.Schema{{Name: "x", Type: value.KindFloat}, {Name: "y", Type: value.KindFloat}}
	dense := relation.New(sch) // every (x, y) pair: the typed kernels run
	for _, a := range vals {
		for _, b := range vals {
			dense.AppendVals(value.Float(a), value.Float(b))
		}
	}
	withNull := dense.Clone() // a NULL cell: the boxed kernels run
	withNull.AppendVals(value.Null, value.Float(nan))
	withNull.AppendVals(value.Float(nan), value.Null)
	// -0 equals 0: a lookup of 0 (a sparse CSR dictionary: 0.5, NaN) must
	// find it, as the filter does.
	withNull.AppendVals(value.Float(math.Copysign(0, -1)), value.Float(0.5))

	type path struct {
		name string
		x    *Exec
	}
	var paths []path
	for _, vec := range []bool{true, false} {
		e := engine.New(engine.OracleLike())
		e.DisableVectorized = !vec
		for name, rel := range map[string]*relation.Relation{"D": dense, "N": withNull} {
			// Analyzed base tables, read once (an index lookup serves
			// "x = literal"), and unanalyzed ones without a cached
			// structure (a filter).
			if _, err := e.LoadBase(name+"A", rel); err != nil {
				t.Fatal(err)
			}
			warm(t, e, name+"A")
			if _, err := e.CreateBase(name+"U", sch); err != nil {
				t.Fatal(err)
			}
			if err := e.AppendInto(name+"U", rel); err != nil {
				t.Fatal(err)
			}
		}
		paths = append(paths, path{fmt.Sprintf("vectorized=%v", vec), NewExec(e)})
	}

	for _, table := range []struct {
		name string
		rel  *relation.Relation
	}{{"D", dense}, {"N", withNull}} {
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			for _, k := range []float64{7, 0.5, 2.5, 0} {
				want := relation.New(sch)
				for _, tu := range table.rel.Tuples {
					if !tu[0].IsNull() && opHolds(op, pgFloatCmp(tu[0].F, k)) {
						want.Append(tu)
					}
				}
				for _, p := range paths {
					for _, suffix := range []string{"A", "U"} {
						q := fmt.Sprintf("select x, y from %s%s where x %s %g", table.name, suffix, op, k)
						if got := mustRun(t, p.x, q); sortedRows(got) != sortedRows(want) {
							t.Errorf("%s: %s =\n%s\nwant\n%s", p.name, q, sortedRows(got), sortedRows(want))
						}
					}
				}
			}
			want := relation.New(sch)
			for _, tu := range table.rel.Tuples {
				if !tu[0].IsNull() && !tu[1].IsNull() && opHolds(op, pgFloatCmp(tu[0].F, tu[1].F)) {
					want.Append(tu)
				}
			}
			for _, p := range paths {
				q := fmt.Sprintf("select x, y from %sU where x %s y", table.name, op)
				if got := mustRun(t, p.x, q); sortedRows(got) != sortedRows(want) {
					t.Errorf("%s: %s =\n%s\nwant\n%s", p.name, q, sortedRows(got), sortedRows(want))
				}
			}
		}
	}

	// ORDER BY: NULL first, then the numbers, then NaN.
	var xs []value.Value
	for _, tu := range withNull.Tuples {
		xs = append(xs, tu[0])
	}
	sort.SliceStable(xs, func(i, j int) bool {
		a, b := xs[i], xs[j]
		return !b.IsNull() && (a.IsNull() || pgFloatCmp(a.F, b.F) < 0)
	})
	for _, p := range paths {
		for _, desc := range []bool{false, true} {
			q := "select x from NU order by x"
			if desc {
				q += " desc"
			}
			var got, want []string
			for _, tu := range mustRun(t, p.x, q).Tuples {
				got = append(got, tu[0].String())
			}
			for i := range xs {
				if desc {
					i = len(xs) - 1 - i
				}
				want = append(want, xs[i].String())
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s: %s = %v, want %v", p.name, q, got, want)
			}
		}
	}
}

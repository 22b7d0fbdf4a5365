package sql_test

import (
	"math"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/value"
)

// The agg-join universe: A(k, x) and B(k, j, w) with join keys over
// {0, 1, NULL}, the group key j over {0, 1}, and the ⊙ operands over
// {0.5, NaN, NULL} — with an integer mixed into x, so a product may be an
// integer or a float.
var (
	joinOperandDom = []value.Value{value.Float(0.5), value.Float(math.NaN()), value.Null, value.Int(1)}
	buildWeightDom = []value.Value{value.Float(0.5), value.Float(math.NaN()), value.Null}
	groupDom       = []value.Value{value.Int(0), value.Int(1)}
	schBW          = schema.Schema{{Name: "k", Type: value.KindInt}, {Name: "j", Type: value.KindInt}, {Name: "w", Type: value.KindFloat}}
)

func aggJoinUniverse() pushdownUniverse {
	return pushdownUniverse{tableRows(intDom, joinOperandDom), tableRows(intDom, groupDom, buildWeightDom), schA, schBW}
}

// sqlArith is SQL's + or * on two values: NULL when either is, an integer
// when both are, else the float of the two.
func sqlArith(op string, a, b value.Value) value.Value {
	switch {
	case a.IsNull() || b.IsNull():
		return value.Null
	case a.K == value.KindInt && b.K == value.KindInt && op == "+":
		return value.Int(a.I + b.I)
	case a.K == value.KindInt && b.K == value.KindInt:
		return value.Int(a.I * b.I)
	case op == "+":
		return value.Float(a.AsFloat() + b.AsFloat())
	}
	return value.Float(a.AsFloat() * b.AsFloat())
}

// sqlAgg folds one non-NULL value into an aggregate's state (NULL before
// its first value): sum adds, min and max keep the value that sorts first
// or last in the engine's order (NaN above every number).
func sqlAgg(agg string, acc, v value.Value) value.Value {
	switch {
	case acc.IsNull():
		return v
	case agg == "sum":
		return sqlArith("+", acc, v)
	case agg == "min" && v.Compare(acc) < 0, agg == "max" && v.Compare(acc) > 0:
		return v
	}
	return acc
}

// aggJoinCase is the template "select b.j, agg(a.x op b.w) from A a, B b
// where a.k = b.k group by b.j", answered by a nested loop: join keys under
// keyEq, groups in first-seen order by value.Equal, NULL products skipped,
// a group of only NULL products reading NULL.
func aggJoinCase(agg, op string) pushdownCase {
	return pushdownCase{
		name: agg + "(a.x " + op + " b.w) grouped on the build side",
		lits: []value.Value{value.Null}, // no literal
		query: func(string) string {
			return "select b.j, " + agg + "(a.x " + op + " b.w) from A a, B b where a.k = b.k group by b.j"
		},
		brute: func(db pushdownDB, _ value.Value) (out [][]value.Value) {
			for _, a := range db.A {
				for _, b := range db.B {
					if !keyEq(a[0], b[0]) {
						continue
					}
					g := -1
					for i, row := range out {
						if row[0].Equal(b[1]) {
							g = i
						}
					}
					if g < 0 {
						g = len(out)
						out = append(out, []value.Value{b[1], value.Null})
					}
					if v := sqlArith(op, a[1], b[2]); !v.IsNull() {
						out[g][1] = sqlAgg(agg, out[g][1], v)
					}
				}
			}
			return out
		},
	}
}

var aggJoinCases = []pushdownCase{
	aggJoinCase("min", "+"), aggJoinCase("sum", "*"), aggJoinCase("max", "*"), aggJoinCase("min", "*"),
}

// TestAggJoinExhaustive: over every database of at most -pushdown.rows rows
// per table of the agg-join universe, each semiring template — min-plus,
// plus-times, max-times, min-times — answers what the nested-loop evaluator
// gives: folded over the CSR and over the hash index where every operand is
// a float, through the join and group-by it replaced where one is NULL or
// an integer, and through the sort-merge join of an unanalyzed
// PostgreSQL-like set-up.
func TestAggJoinExhaustive(t *testing.T) {
	checked, mismatches := checkPushdown(t, aggJoinUniverse(), aggJoinCases, pushdownConfigs, nil, sameLit, "", 5)
	for _, m := range mismatches {
		t.Error(m)
	}
	t.Logf("%d statements checked", checked)
}

// TestAggJoinExhaustiveCatchesMutations: the check above catches a fold
// that keeps NULL-operand rows and one that groups by the probe key.
func TestAggJoinExhaustiveCatchesMutations(t *testing.T) {
	for _, mutation := range []string{sql.MutateFoldNullOperands, sql.MutateFoldProbeKey} {
		for _, cfg := range pushdownConfigs[:2] {
			if _, mismatches := checkPushdown(t, aggJoinUniverse(), aggJoinCases[:1], []pushdownConfig{cfg}, nil, sameLit, mutation, 1); len(mismatches) == 0 {
				t.Errorf("the exhaustive check missed the mutation %q on %s", mutation, cfg.name)
			} else {
				t.Logf("%q caught on %s: %s", mutation, cfg.name, mismatches[0])
			}
		}
	}
}

package sql_test

import (
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/value"
)

// triangleUniverse is the count fold's universe: A(k, j) and B(k, j) with
// every column over {0, 1, NULL}; a bag may repeat a row, so duplicate
// edges are in it.
func triangleUniverse() pushdownUniverse {
	return pushdownUniverse{tableRows(intDom, intDom), tableRows(intDom, intDom), schB, schB}
}

// triangleCountCase is "select count(*)" over the triangle A → B → B → A,
// answered by a nested loop with the join keys under keyEq.
var triangleCountCase = pushdownCase{
	name: "triangle count(*) folded into the multiway join",
	lits: []value.Value{value.Null}, // no literal
	query: func(string) string {
		return "select count(*) from A a, B b, B c where a.j = b.k and b.j = c.k and c.j = a.k"
	},
	brute: func(db pushdownDB, _ value.Value) [][]value.Value {
		n := int64(0)
		for _, a := range db.A {
			for _, b := range db.B {
				for _, c := range db.B {
					if keyEq(a[1], b[0]) && keyEq(b[1], c[0]) && keyEq(c[1], a[0]) {
						n++
					}
				}
			}
		}
		return [][]value.Value{{value.Int(n)}}
	},
}

// TestWCOJCountFoldExhaustive: over every database of at most
// -pushdown.rows rows per table of the triangle universe, the triangle
// count answers what the nested loop gives: folded into the multiway join
// over the tables' CSRs (typed probes) and over tries (Value probes), and
// through the PostgreSQL-like set-up.
func TestWCOJCountFoldExhaustive(t *testing.T) {
	db := pushdownDB{A: tableRows(intDom, intDom)[:1], schA: schB, schB: schB}
	e := loadPushdownDB(t, pushdownConfigs[0], db)
	s, err := sql.ParseSelect(triangleCountCase.query(""))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.NewExec(e).ExplainSelect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "via wcoj (count(*) folded)") {
		t.Fatalf("the template does not fold into the multiway join:\n%s", plan)
	}
	checked, mismatches := checkPushdown(t, triangleUniverse(), []pushdownCase{triangleCountCase}, pushdownConfigs, nil, sameLit, "", 5)
	for _, m := range mismatches {
		t.Error(m)
	}
	t.Logf("%d statements checked", checked)
}

// TestWCOJCountFoldExhaustiveCatchesMutations: the check above catches a
// typed probe whose translation maps a NULL ordinal to a live one, and a
// count fold that drops a duplicate edge's multiplicity.
func TestWCOJCountFoldExhaustiveCatchesMutations(t *testing.T) {
	for _, mutation := range []string{sql.MutateTranslateNull, sql.MutateFoldDropDuplicate} {
		_, mismatches := checkPushdown(t, triangleUniverse(), []pushdownCase{triangleCountCase}, pushdownConfigs[:1], nil, sameLit, mutation, 1)
		switch {
		case len(mismatches) == 0:
			t.Errorf("the exhaustive check missed the mutation %q", mutation)
		case strings.Contains(mismatches[0], "(err <nil>)"):
			t.Logf("%q caught: %s", mutation, mismatches[0])
		default:
			t.Errorf("%q: the mutated run failed instead of answering wrong: %s", mutation, mismatches[0])
		}
	}
}

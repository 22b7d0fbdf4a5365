package ra_test

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/withplus"
)

// frontierRows bounds the bounded-exhaustive frontier check: every table A
// of at most this many rows is enumerated. scripts/check.sh raises it.
var frontierRows = flag.Int("frontier.rows", 2, "largest table the bounded-exhaustive frontier check enumerates")

// frontierDom is every column's domain; A(k, j) is an edge table k -> j
// whose bags include duplicate edges, self-loops and NULL endpoints.
var frontierDom = []value.Value{value.Int(0), value.Int(1), value.Null}

// frontierTemplates are WITH+ recursions whose step the frontier kernel
// runs: R with one column (only the target) and with two (a carried column
// beside the target, the join key among them), seeds pinned to a literal or not.
// %[1]s is the set operation, %[2]s the seed's filter.
var frontierTemplates = []struct {
	name   string
	text   string
	pinned bool
}{
	{"one column", "with R(v) as ((select j from A%[2]s) %[1]s (select A.j from R, A where R.v = A.k)) select v from R", false},
	{"one column, pinned", "with R(v) as ((select j from A%[2]s) %[1]s (select A.j from R, A where R.v = A.k)) select v from R", true},
	{"two columns", "with R(s, v) as ((select k, j from A%[2]s) %[1]s (select R.s, A.j from R, A where R.v = A.k)) select s, v from R", false},
	{"two columns, pinned", "with R(s, v) as ((select k, j from A%[2]s) %[1]s (select R.s, A.j from R, A where R.v = A.k)) select s, v from R", true},
	{"two columns, carrying the key", "with R(s, v) as ((select k, j from A%[2]s) %[1]s (select R.v, A.j from R, A where R.v = A.k)) select s, v from R", false},
}

// frontierStatements lists every statement of the templates.
func frontierStatements() []string {
	var out []string
	for _, tp := range frontierTemplates {
		filters := []string{""}
		if tp.pinned {
			filters = []string{" where k = 0", " where k = 1", " where k = null"}
		}
		for _, op := range []string{"union", "union all"} {
			for _, f := range filters {
				out = append(out, fmt.Sprintf(tp.text, op, f))
			}
		}
	}
	return out
}

// frontierBags lists every bag of at most max rows of A.
func frontierBags(max int) [][]relation.Tuple {
	var rows []relation.Tuple
	for _, k := range frontierDom {
		for _, j := range frontierDom {
			rows = append(rows, relation.Tuple{k, j})
		}
	}
	out := [][]relation.Tuple{nil}
	var grow func(cur []relation.Tuple, from int)
	grow = func(cur []relation.Tuple, from int) {
		if len(cur) == max {
			return
		}
		for i := from; i < len(rows); i++ {
			next := append(append([]relation.Tuple(nil), cur...), rows[i])
			out = append(out, next)
			grow(next, i)
		}
	}
	grow(nil, 0)
	return out
}

// frontierRun renders one statement's outcome: R's rows in order, cut at
// each iteration's boundary (each iteration's Δ rows, in order), the trace
// the iterations left, or the error.
func frontierRun(e *engine.Engine, q string) string {
	out, tr, err := withplus.Run(e, q)
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "iterations=%d rows=%v delta=%v cycle=%v\n", tr.Iterations, tr.IterRows, tr.DeltaRows, tr.CycleDetected)
	at := 0
	for i, end := range append([]int{out.Len() - sumDelta(tr)}, tr.IterRows...) {
		fmt.Fprintf(&b, "step %d:", i)
		for ; at < end && at < out.Len(); at++ {
			for _, v := range out.Tuples[at] {
				fmt.Fprintf(&b, " %s:%v", v.K, v)
			}
			b.WriteString(";")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func sumDelta(tr *withplus.Trace) int {
	n := 0
	for _, d := range tr.DeltaRows {
		n += d
	}
	return n
}

// checkFrontier runs every template statement over every table A within
// the bound, once through the frontier kernel under mode and once with the
// kernel switched off, and reports the statements whose outcomes differ and
// how many steps the kernel ran. It stops after limit mismatches.
func checkFrontier(t *testing.T, mode string, limit int) (checked, fused int, mismatches []string) {
	t.Helper()
	stmts := frontierStatements()
	for _, bag := range frontierBags(*frontierRows) {
		e := engine.NewWithFrames(engine.OracleLike(), 64)
		rel := relation.New(schema.Schema{{Name: "k", Type: value.KindInt}, {Name: "j", Type: value.KindInt}})
		rel.Tuples = bag
		if _, err := e.LoadBase("A", rel); err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector()
		e.SetObserver(col)
		for _, q := range stmts {
			checked++
			restore := ra.SetFrontierTestMode(mode)
			got := frontierRun(e, q)
			restore()
			for _, sp := range col.Spans() {
				if strings.Contains(sp.Note, "new rows only") {
					fused++
				}
			}
			col.Reset()
			restore = ra.SetFrontierTestMode(ra.FrontierOff)
			want := frontierRun(e, q)
			restore()
			if got != want {
				mismatches = append(mismatches, fmt.Sprintf("A=%v: %s\n got %s\nwant %s", bag, q, got, want))
				if len(mismatches) >= limit {
					return checked, fused, mismatches
				}
			}
		}
	}
	return checked, fused, mismatches
}

// TestFrontierExhaustive: over every edge table A(k, j) of at most
// -frontier.rows rows with keys {0, 1, NULL} — duplicate edges, self-loops
// and NULL endpoints included — every union and union all recursion of the
// templates yields, through the frontier kernel, the same iterations, the
// same Δ rows in the same order per iteration, the same cycle flag and the
// same final bag as the unfused join + DiffAdd.
func TestFrontierExhaustive(t *testing.T) {
	checked, fused, mismatches := checkFrontier(t, "", 5)
	for _, m := range mismatches {
		t.Error(m)
	}
	if fused == 0 {
		t.Error("the frontier kernel never ran: the check compared the unfused path with itself")
	}
	t.Logf("%d statements checked, %d fused steps", checked, fused)
}

// TestFrontierExhaustiveCatchesMutations: the check above catches the two
// faults a visited structure could plausibly have — ignoring the rows the
// set was seeded with, and keying by the target alone.
func TestFrontierExhaustiveCatchesMutations(t *testing.T) {
	for _, m := range []string{ra.MutateUnseeded, ra.MutateTargetOnly} {
		if _, _, mismatches := checkFrontier(t, m, 1); len(mismatches) == 0 {
			t.Errorf("the exhaustive check missed the mutation %q", m)
		} else {
			t.Logf("%q caught: %s", m, mismatches[0])
		}
	}
}

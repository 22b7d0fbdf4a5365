package sql_test

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/value"
	"repro/internal/withplus"
)

// pushdownRows bounds the bounded-exhaustive check: every database whose
// two tables hold at most this many rows is enumerated. The default keeps
// the check inside go test's budget; scripts/check.sh raises it.
var pushdownRows = flag.Int("pushdown.rows", 2, "largest table the bounded-exhaustive pushdown check enumerates")

// The bounded universe: A(k int, x float) and B(k int, j int), every
// column over three values — NULL included, NaN for the float column.
var (
	intDom   = []value.Value{value.Int(0), value.Int(1), value.Null}
	floatDom = []value.Value{value.Float(0.5), value.Float(math.NaN()), value.Null}
	schA     = schema.Schema{{Name: "k", Type: value.KindInt}, {Name: "x", Type: value.KindFloat}}
	schB     = schema.Schema{{Name: "k", Type: value.KindInt}, {Name: "j", Type: value.KindInt}}
	pinLits  = []value.Value{value.Int(0), value.Int(1), value.Null}
)

// pushdownDB is one database of a check: the rows of A(schA) and of
// B(schB).
type pushdownDB struct {
	A, B       []relation.Tuple
	schA, schB schema.Schema
}

// pushdownUniverse is the bounded set of databases a check enumerates:
// every bag of at most -pushdown.rows rows of rowsA for A(schA) and of rowsB
// for B(schB).
type pushdownUniverse struct {
	rowsA, rowsB []relation.Tuple
	schA, schB   schema.Schema
}

// pinUniverse is the pushdown templates' universe.
func pinUniverse() pushdownUniverse {
	return pushdownUniverse{tableRows(intDom, floatDom), tableRows(intDom, intDom), schA, schB}
}

// sqlEq is SQL's = under three-valued logic, UNKNOWN read as false: NULL
// on either side never matches, numbers compare across int and float, and
// NaN equals NaN (PostgreSQL's order).
func sqlEq(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	af, bf := a.AsFloat(), b.AsFloat()
	return af == bf || math.IsNaN(af) && math.IsNaN(bf)
}

// keyEq is the engine's equi-join key equality: SQL's = under
// three-valued logic for NULL — a NULL key matches nothing, NULL included —
// and value.Equal otherwise, under which NaN matches nothing. The evaluator
// uses it for the "column = column" conjuncts the planner turns into join
// keys, and sqlEq everywhere else.
func keyEq(a, b value.Value) bool { return !a.IsNull() && !b.IsNull() && a.Equal(b) }

// pushdownCase is one template: the statement for a pinned literal and
// its brute-force nested-loop answer over a database.
type pushdownCase struct {
	name  string
	lits  []value.Value // the literals it is pinned to; nil: pinLits
	with  bool          // a WITH+ statement, answered as a set
	query func(lit string) string
	brute func(db pushdownDB, lit value.Value) [][]value.Value
}

func litSQL(v value.Value) string {
	if v.IsNull() {
		return "null"
	}
	return v.String()
}

var pushdownCases = []pushdownCase{
	{
		name:  "pinned scan",
		query: func(l string) string { return "select a.k, a.x from A a where a.k = " + l },
		brute: func(db pushdownDB, l value.Value) (out [][]value.Value) {
			for _, a := range db.A {
				if sqlEq(a[0], l) {
					out = append(out, []value.Value{a[0], a[1]})
				}
			}
			return out
		},
	},
	{
		name:  "pinned scan, literal first, float residual",
		query: func(l string) string { return "select a.x from A a where " + l + " = k and x = 0.5" },
		brute: func(db pushdownDB, l value.Value) (out [][]value.Value) {
			for _, a := range db.A {
				if sqlEq(l, a[0]) && sqlEq(a[1], value.Float(0.5)) {
					out = append(out, []value.Value{a[1]})
				}
			}
			return out
		},
	},
	{
		name:  "pinned float column",
		lits:  []value.Value{value.Float(0.5), value.Int(1), value.Null},
		query: func(l string) string { return "select a.k from A a where a.x = " + l },
		brute: func(db pushdownDB, l value.Value) (out [][]value.Value) {
			for _, a := range db.A {
				if sqlEq(a[1], l) {
					out = append(out, []value.Value{a[0]})
				}
			}
			return out
		},
	},
	{
		name:  "pinned 2-chain",
		query: func(l string) string { return "select a.x, b.j from A a, B b where a.k = b.k and a.k = " + l },
		brute: func(db pushdownDB, l value.Value) (out [][]value.Value) {
			for _, a := range db.A {
				for _, b := range db.B {
					if keyEq(a[0], b[0]) && sqlEq(a[0], l) {
						out = append(out, []value.Value{a[1], b[1]})
					}
				}
			}
			return out
		},
	},
	{
		name:  "pinned build side",
		query: func(l string) string { return "select a.x from A a, B b where a.k = b.k and b.j = " + l },
		brute: func(db pushdownDB, l value.Value) (out [][]value.Value) {
			for _, a := range db.A {
				for _, b := range db.B {
					if keyEq(a[0], b[0]) && sqlEq(b[1], l) {
						out = append(out, []value.Value{a[1]})
					}
				}
			}
			return out
		},
	},
	{
		// The bottom join must carry a.x, the next join's key, though the
		// select list does not read it.
		name: "pinned 3-chain",
		query: func(l string) string {
			return "select b.j, c.k from A a, B b, A c where a.k = " + l + " and a.k = b.k and a.x = c.x"
		},
		brute: func(db pushdownDB, l value.Value) (out [][]value.Value) {
			for _, a := range db.A {
				for _, b := range db.B {
					for _, c := range db.A {
						if sqlEq(a[0], l) && keyEq(a[0], b[0]) && keyEq(a[1], c[1]) {
							out = append(out, []value.Value{b[1], c[0]})
						}
					}
				}
			}
			return out
		},
	},
	{
		name: "pruned join under group by",
		query: func(l string) string {
			return "select b.j, count(*), sum(a.x) from A a, B b where a.k = b.k and a.k = " + l + " group by b.j"
		},
		brute: func(db pushdownDB, l value.Value) (out [][]value.Value) {
			type group struct {
				key value.Value
				n   int64
				sum value.Value
			}
			var groups []*group
			for _, a := range db.A {
				for _, b := range db.B {
					if !keyEq(a[0], b[0]) || !sqlEq(a[0], l) {
						continue
					}
					var g *group
					for _, h := range groups {
						if h.key.Equal(b[1]) {
							g = h
						}
					}
					if g == nil {
						g = &group{key: b[1], sum: value.Null}
						groups = append(groups, g)
					}
					g.n++
					if !a[1].IsNull() {
						if g.sum.IsNull() {
							g.sum = a[1]
						} else {
							g.sum = value.Float(g.sum.F + a[1].F)
						}
					}
				}
			}
			for _, g := range groups {
				out = append(out, []value.Value{g.key, value.Int(g.n), g.sum})
			}
			return out
		},
	},
	{
		// The seed is a pinned selection; the answer is compared as a set
		// (the recursion's steps have set semantics).
		name: "pinned WITH+ seed",
		with: true,
		query: func(l string) string {
			return "with R(v) as ((select j from B where k = " + l + ") union all " +
				"(select B.j from R, B where R.v = B.k)) select v from R"
		},
		brute: func(db pushdownDB, l value.Value) (out [][]value.Value) {
			var reached []value.Value
			add := func(v value.Value) bool {
				for _, r := range reached {
					if r.Equal(v) {
						return false
					}
				}
				reached = append(reached, v)
				return true
			}
			var frontier []value.Value
			for _, b := range db.B {
				if sqlEq(b[0], l) && add(b[1]) {
					frontier = append(frontier, b[1])
				}
			}
			for len(frontier) > 0 {
				var next []value.Value
				for _, v := range frontier {
					for _, b := range db.B {
						if keyEq(v, b[0]) && add(b[1]) {
							next = append(next, b[1])
						}
					}
				}
				frontier = next
			}
			for _, v := range reached {
				out = append(out, []value.Value{v})
			}
			return out
		},
	},
}

// pushdownConfig is one engine set-up every database is loaded into.
type pushdownConfig struct {
	name     string
	prof     engine.Profile
	noCSR    bool
	analyzed bool // LoadBase and one read (lookups apply) or create + append
}

var pushdownConfigs = []pushdownConfig{
	{"oracle, analyzed (csr lookups)", engine.OracleLike(), false, true},
	{"oracle -nocsr, analyzed (hash-index lookups)", engine.OracleLike(), true, true},
	{"postgres, unanalyzed (filters, sort-merge joins)", engine.PostgresLike(false), false, false},
}

// tableRows lists every row over the domains, one column per domain.
func tableRows(doms ...[]value.Value) []relation.Tuple {
	rows := []relation.Tuple{{}}
	for _, dom := range doms {
		var next []relation.Tuple
		for _, r := range rows {
			for _, v := range dom {
				next = append(next, append(r.Clone(), v))
			}
		}
		rows = next
	}
	return rows
}

// bags lists every bag of at most max rows drawn from rows.
func bags(rows []relation.Tuple, max int) [][]relation.Tuple {
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

func renderRows(rows [][]value.Value, asSet bool) string {
	lines := make([]string, 0, len(rows))
	seen := map[string]bool{}
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		line := strings.Join(parts, "\t")
		if asSet && seen[line] {
			continue
		}
		seen[line] = true
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func loadPushdownDB(t *testing.T, cfg pushdownConfig, db pushdownDB) *engine.Engine {
	e := engine.NewWithFrames(cfg.prof, 64)
	e.DisableCSR = cfg.noCSR
	for _, tab := range []struct {
		name string
		sch  schema.Schema
		rows []relation.Tuple
	}{{"A", db.schA, db.A}, {"B", db.schB, db.B}} {
		rel := relation.New(tab.sch)
		rel.Tuples = tab.rows
		if cfg.analyzed {
			// Loaded and read once: the lookup rule builds for it.
			if _, err := e.LoadBase(tab.name, rel); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Rel(tab.name); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := e.CreateBase(tab.name, tab.sch); err != nil {
			t.Fatal(err)
		}
		if err := e.AppendInto(tab.name, rel); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// runPushdown answers one template statement on the engine; mutation, when
// set, breaks the plan first (sql.RunMutated).
func runPushdown(e *engine.Engine, c pushdownCase, q, mutation string) ([][]value.Value, error) {
	var r *relation.Relation
	var err error
	if c.with {
		r, _, err = withplus.Run(e, q)
	} else {
		s, perr := sql.ParseSelect(q)
		if perr != nil {
			return nil, perr
		}
		if mutation != "" {
			r, err = sql.RunMutated(sql.NewExec(e), s, mutation)
		} else {
			r, err = sql.NewExec(e).Run(s)
		}
	}
	if err != nil {
		return nil, err
	}
	out := make([][]value.Value, r.Len())
	for i, tu := range r.Tuples {
		out[i] = tu
	}
	return out, nil
}

// checkPushdown enumerates every database within the bound and reports the
// statements whose answer differs from the brute-force evaluator's. Each
// case runs with its own literals, or with lits when set; brute is asked
// about want(literal) — the mutation that swaps the literal for NULL is
// asked about NULL. It stops after limit mismatches.
func checkPushdown(t *testing.T, u pushdownUniverse, cases []pushdownCase, configs []pushdownConfig, lits []value.Value, want func(value.Value) value.Value, mutation string, limit int) (checked int, mismatches []string) {
	t.Helper()
	for _, a := range bags(u.rowsA, *pushdownRows) {
		for _, b := range bags(u.rowsB, *pushdownRows) {
			db := pushdownDB{A: a, B: b, schA: u.schA, schB: u.schB}
			for _, cfg := range configs {
				e := loadPushdownDB(t, cfg, db)
				for _, c := range cases {
					caseLits := lits
					if caseLits == nil {
						caseLits = c.lits
					}
					if caseLits == nil {
						caseLits = pinLits
					}
					for _, lit := range caseLits {
						q := c.query(litSQL(lit))
						checked++
						got, err := runPushdown(e, c, q, mutation)
						exp := renderRows(c.brute(db, want(lit)), c.with)
						if err == nil && renderRows(got, c.with) == exp {
							continue
						}
						mismatches = append(mismatches, fmt.Sprintf("%s [%s] A=%v B=%v: %s\n got %v (err %v)\nwant %q",
							c.name, cfg.name, a, b, q, got, err, exp))
						if len(mismatches) >= limit {
							return checked, mismatches
						}
					}
				}
			}
		}
	}
	return checked, mismatches
}

func sameLit(v value.Value) value.Value { return v }

// TestPushdownExhaustive: over every database of at most -pushdown.rows
// rows per table (two tables; int keys over {0, 1, NULL}, a float column
// over {0.5, NaN, NULL}), each template statement — a pinned scan, pinned
// joins, a pinned WITH+ seed, a pruned join under GROUP BY — answers the bag
// a brute-force nested-loop evaluator with SQL's three-valued = gives, with
// lookups through the CSR and through the hash index and with the filters
// and sort-merge joins of an unanalyzed PostgreSQL-like set-up.
func TestPushdownExhaustive(t *testing.T) {
	checked, mismatches := checkPushdown(t, pinUniverse(), pushdownCases, pushdownConfigs, nil, sameLit, "", 5)
	for _, m := range mismatches {
		t.Error(m)
	}
	t.Logf("%d statements checked", checked)
}

// TestPushdownExhaustiveCatchesMutations: the check above is strong enough
// to catch the two faults the rewrites could plausibly have — a lookup rule
// that accepts a NULL literal, and pruning that drops a later join's key.
func TestPushdownExhaustiveCatchesMutations(t *testing.T) {
	analyzed := pushdownConfigs[:1]
	for _, m := range []struct {
		mutation string
		cases    []pushdownCase
		lits     []value.Value
		want     func(value.Value) value.Value
	}{
		{sql.MutateNullLookup, pushdownCases[:1], []value.Value{value.Int(0)}, func(value.Value) value.Value { return value.Null }},
		{sql.MutateDropLaterKey, pushdownCases[5:6], pinLits[:1], sameLit},
	} {
		if _, mismatches := checkPushdown(t, pinUniverse(), m.cases, analyzed, m.lits, m.want, m.mutation, 1); len(mismatches) == 0 {
			t.Errorf("the exhaustive check missed the mutation %q", m.mutation)
		} else {
			t.Logf("%q caught: %s", m.mutation, mismatches[0])
		}
	}
}

package withplus

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/value"
)

var ubuRows = flag.Int("ubu.rows", 1, "largest edge table the bounded-exhaustive union-by-update check enumerates")

// The bounded-exhaustive check of the two union-by-update rules: every
// database of at most two seed rows R(k, v) and at most -ubu.rows rows of an
// edge table A(k, j, w) — keys {0, 1, NULL}, values {0.5, NaN, NULL} and an
// integer among R's — up to swapping the keys 0 and 1, run through each
// template with both rules on, with the keyed merge off, and with the
// guarded Δ off (-nodelta), comparing R and its changed rows after every
// iteration, byte for byte. A statement costs ~150 µs, so one edge row
// (~18 000 statements, ~3 s) is the go test default and two (~40 s) the
// scripts/check.sh bound; three would take ~10 minutes.

var (
	ubuKeyDom = []value.Value{value.Int(0), value.Int(1), value.Null}
	ubuValDom = []value.Value{value.Float(0.5), value.Float(math.NaN()), value.Null, value.Int(1)}
	ubuWDom   = []value.Value{value.Float(0.5), value.Float(math.NaN()), value.Null}
)

// ubuTemplates are the statements the check runs: the two guarded
// relaxations, a merge the guard refuses (an unguarded s.m, which the keyed
// merge still takes and where a NULL must coalesce to R's value), and a sum
// under least the guard refuses — the shape the planted guard mutation
// admits. Every loop is bounded: an unguarded step need not converge.
var ubuTemplates = []struct {
	name, text string
	guarded    bool
}{
	{"least/min", ubuTemplate("least(R.v, s.m)", "min(v + w)"), true},
	{"greatest/max", ubuTemplate("greatest(R.v, s.m)", "max(v * w)"), true},
	{"unguarded", ubuTemplate("s.m", "min(v + w)"), false},
	{"sum under least", ubuTemplate("least(R.v, s.m)", "sum(v * w)"), false},
}

func ubuTemplate(merge, agg string) string {
	return fmt.Sprintf(`with R(k, v) as ((select k, v from R0) union by update k
  (select R.k, %s from R, (select A.j g, %s m from R, A where R.k = A.k group by A.j) s
   where R.k = s.g) maxrecursion 3) select k, v from R`, merge, agg)
}

// ubuDB is one database of the universe: indexes into the seed and edge
// row domains.
type ubuDB struct{ r, a []int }

func ubuSeedRow(i int) relation.Tuple {
	return relation.Tuple{ubuKeyDom[i/len(ubuValDom)], ubuValDom[i%len(ubuValDom)]}
}

func ubuEdgeRow(i int) relation.Tuple {
	w := i % len(ubuWDom)
	i /= len(ubuWDom)
	return relation.Tuple{ubuKeyDom[i/len(ubuKeyDom)], ubuKeyDom[i%len(ubuKeyDom)], ubuWDom[w]}
}

// bags lists every multiset of at most most values below n, as
// non-decreasing index lists.
func bags(n, most int) [][]int {
	out := [][]int{nil}
	var grow func(prefix []int, from int)
	grow = func(prefix []int, from int) {
		if len(prefix) == most {
			return
		}
		for i := from; i < n; i++ {
			b := append(append([]int(nil), prefix...), i)
			out = append(out, b)
			grow(b, i)
		}
	}
	grow(nil, 0)
	return out
}

// swapped reports whether the database with the keys 0 and 1 swapped
// enumerates before it, so only one of the two is checked.
func (db ubuDB) swapped() bool {
	swap := func(v value.Value) value.Value {
		if v.IsNull() {
			return v
		}
		return value.Int(1 - v.I)
	}
	enc := func(rows []relation.Tuple) string {
		parts := make([]string, len(rows))
		for i, r := range rows {
			parts[i] = r.String()
		}
		sort.Strings(parts)
		return strings.Join(parts, ";")
	}
	var r, rs, a, as []relation.Tuple
	for _, i := range db.r {
		t := ubuSeedRow(i)
		r, rs = append(r, t), append(rs, relation.Tuple{swap(t[0]), t[1]})
	}
	for _, i := range db.a {
		t := ubuEdgeRow(i)
		a, as = append(a, t), append(as, relation.Tuple{swap(t[0]), swap(t[1]), t[2]})
	}
	return enc(rs)+"|"+enc(as) < enc(r)+"|"+enc(a)
}

// ubuUniverse is every database of the check, up to the key swap.
func ubuUniverse(edgeRows int) []ubuDB {
	var out []ubuDB
	for _, r := range bags(len(ubuKeyDom)*len(ubuValDom), 2) {
		for _, a := range bags(len(ubuKeyDom)*len(ubuKeyDom)*len(ubuWDom), edgeRows) {
			if db := (ubuDB{r, a}); !db.swapped() {
				out = append(out, db)
			}
		}
	}
	return out
}

// ubuRun runs one template over one database on e — reloading R0 and A —
// and renders R and its changed rows after every step, then the result and
// the trace.
func ubuRun(t *testing.T, e *engine.Engine, db ubuDB, w *sql.WithStmt) string {
	t.Helper()
	for _, name := range []string{"R0", "A"} {
		if e.Cat.Has(name) {
			if err := e.Cat.Drop(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	r0 := relation.New(schema.Schema{{Name: "k", Type: value.KindInt}, {Name: "v", Type: value.KindFloat}})
	for _, i := range db.r {
		r0.Append(ubuSeedRow(i))
	}
	a := relation.New(schema.Schema{{Name: "k", Type: value.KindInt}, {Name: "j", Type: value.KindInt}, {Name: "w", Type: value.KindFloat}})
	for _, i := range db.a {
		a.Append(ubuEdgeRow(i))
	}
	if _, err := e.LoadBase("R0", r0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LoadBase("A", a); err != nil {
		t.Fatal(err)
	}
	p, err := PrepareStmt(e, w)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Cleanup()
	var b strings.Builder
	p.afterStep = func(r, delta *relation.Relation) {
		fmt.Fprintf(&b, "R %s Δ %s\n", rowBits(r), rowBits(delta))
	}
	out, tr, err := p.Run()
	if err != nil {
		return "error: " + err.Error()
	}
	fmt.Fprintf(&b, "result %s iterations=%d rows=%v delta=%v", rowBits(out), tr.Iterations, tr.IterRows, tr.DeltaRows)
	return b.String()
}

// checkUBU runs every template of names over the universe on each profile:
// both rules on against the merge off and against -nodelta. It returns the
// statements checked and one line per mismatch (at most limit).
func checkUBU(t *testing.T, names []string, profs []engine.Profile, edgeRows, limit int) (checked int, bad []string) {
	t.Helper()
	for _, tpl := range ubuTemplates {
		if !containsName(names, tpl.name) {
			continue
		}
		w, err := sql.ParseWith(tpl.text)
		if err != nil {
			t.Fatal(err)
		}
		for _, prof := range profs {
			// The merge runs on the hash-join profiles only, and the guard
			// admits the guarded templates only: each comparison runs where
			// its rule can act.
			merges, guarded := prof.JoinAlgo(false) == ra.HashJoin, tpl.guarded
			if !merges && !guarded {
				continue
			}
			e, full := engine.New(prof), engine.New(prof)
			full.DisableDelta = true
			for _, db := range ubuUniverse(edgeRows) {
				on := ubuRun(t, e, db, w)
				var offs []struct{ name, got string }
				if merges {
					restore := ra.SetMergeTestMode(ra.MergeOff)
					offs = append(offs, struct{ name, got string }{"merge off", ubuRun(t, e, db, w)})
					restore()
				}
				if guarded {
					offs = append(offs, struct{ name, got string }{"-nodelta", ubuRun(t, full, db, w)})
				}
				checked += 1 + len(offs)
				for _, off := range offs {
					if on != off.got {
						var r0, a []string
						for _, i := range db.r {
							r0 = append(r0, ubuSeedRow(i).String())
						}
						for _, i := range db.a {
							a = append(a, ubuEdgeRow(i).String())
						}
						bad = append(bad, fmt.Sprintf("%s on %s, R0 %v, A %v: both rules on vs %s:\n%s", tpl.name, prof.Name, r0, a, off.name, firstDiff(on, off.got)))
						if len(bad) == limit {
							return checked, bad
						}
					}
				}
			}
		}
	}
	return checked, bad
}

func containsName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

var ubuProfiles = []engine.Profile{engine.OracleLike(), engine.PostgresLike(true)}

// TestUBUExhaustive: over the whole universe, both rules on leave R and its
// changed rows after every iteration exactly as the merge off and as
// -nodelta do, for the two guarded templates and the unguarded merge, on the
// Oracle-like profile (which merges) and the PostgreSQL-like one (which
// does not).
func TestUBUExhaustive(t *testing.T) {
	checked, bad := checkUBU(t, []string{"least/min", "greatest/max", "unguarded"}, ubuProfiles, *ubuRows, 5)
	for _, m := range bad {
		t.Error(m)
	}
	t.Logf("%d statements checked", checked)
}

// TestUBUExhaustiveCatchesMutations: the check catches the guard admitting
// a sum (the Δ then misses the unchanged rows' contributions; it takes two
// edges into one group to show) and a merge that lets a NULL projected
// value overwrite R's instead of coalescing.
func TestUBUExhaustiveCatchesMutations(t *testing.T) {
	prof := []engine.Profile{engine.OracleLike()}
	guardTestMode = mutateGuardSum
	ubuTemplates[3].guarded = true
	_, bad := checkUBU(t, []string{"sum under least"}, prof, max(*ubuRows, 2), 1)
	guardTestMode, ubuTemplates[3].guarded = "", false
	if len(bad) == 0 {
		t.Errorf("the exhaustive check missed the mutation %q", mutateGuardSum)
	}
	restore := ra.SetMergeTestMode(ra.MutateMergeNullOverwrite)
	_, bad = checkUBU(t, []string{"unguarded"}, prof, *ubuRows, 1)
	restore()
	if len(bad) == 0 {
		t.Errorf("the exhaustive check missed the mutation %q", ra.MutateMergeNullOverwrite)
	}
}

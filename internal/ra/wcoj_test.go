package ra

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// edgeRel builds a two-column INT relation qualified as q from (from, to)
// pairs.
func edgeRel(q string, edges [][2]int64) *relation.Relation {
	r := relation.New(schema.Cols(value.KindInt, "F", "T").Qualify(q))
	for _, e := range edges {
		r.AppendVals(value.Int(e[0]), value.Int(e[1]))
	}
	return r
}

// binaryTriangle computes the directed-triangle join E1 ⋈ E2 ⋈ E3 on
// E1.T=E2.F, E2.T=E3.F, E3.T=E1.F with the binary hash-join chain — the
// reference the WCOJ output must bag-equal.
func binaryTriangle(e1, e2, e3 *relation.Relation) *relation.Relation {
	p := EquiJoin(e1, e2, EquiJoinSpec{LeftCols: []int{1}, RightCols: []int{0}, Algo: HashJoin})
	// Close the cycle: p(E1.F,E1.T,E2.F,E2.T) ⋈ e3 on E2.T=E3.F and E3.T=E1.F.
	return EquiJoin(p, e3, EquiJoinSpec{LeftCols: []int{3, 0}, RightCols: []int{0, 1}, Algo: HashJoin})
}

// triangleSpec is the WCOJ lowering of the same pattern: vars a=E1.F=E3.T,
// b=E1.T=E2.F, c=E2.T=E3.F, elimination order a,b,c.
func triangleSpec(e1, e2, e3 *relation.Relation) WCOJSpec {
	return WCOJSpec{
		NumVars: 3,
		Order:   []int{0, 1, 2},
		Atoms: []WCOJAtom{
			{Rel: e1, VarCols: []WCOJVarCol{{Var: 0, Col: 0}, {Var: 1, Col: 1}}},
			{Rel: e2, VarCols: []WCOJVarCol{{Var: 1, Col: 0}, {Var: 2, Col: 1}}},
			{Rel: e3, VarCols: []WCOJVarCol{{Var: 2, Col: 0}, {Var: 0, Col: 1}}},
		},
	}
}

func TestWCOJTriangleMatchesBinary(t *testing.T) {
	edges := [][2]int64{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 2}, {1, 4}, {4, 1}, {3, 3}}
	e1, e2, e3 := edgeRel("E1", edges), edgeRel("E2", edges), edgeRel("E3", edges)
	want := binaryTriangle(e1, e2, e3)
	got, stats := WCOJ(triangleSpec(e1, e2, e3))
	if !got.Equal(want) {
		t.Fatalf("wcoj triangle != binary: got %d rows, want %d", got.Len(), want.Len())
	}
	if got.Sch.String() != want.Sch.String() {
		t.Fatalf("schema mismatch: got %s want %s", got.Sch, want.Sch)
	}
	if stats.Probes == 0 || stats.Builds != 3 {
		t.Fatalf("unexpected stats: %+v", stats)
	}
}

func TestWCOJDuplicateRowsKeepMultiplicity(t *testing.T) {
	// Duplicate edges must multiply through exactly as in the binary chain.
	edges := [][2]int64{{1, 2}, {1, 2}, {2, 3}, {3, 1}}
	e1, e2, e3 := edgeRel("E1", edges), edgeRel("E2", edges), edgeRel("E3", edges)
	want := binaryTriangle(e1, e2, e3)
	got, _ := WCOJ(triangleSpec(e1, e2, e3))
	if !got.Equal(want) {
		t.Fatalf("duplicate multiplicities diverge: got %d rows, want %d", got.Len(), want.Len())
	}
	if got.Len() == 0 {
		t.Fatal("expected some triangles in the duplicate-edge graph")
	}
}

func TestWCOJCSRBackedMatchesTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var edges [][2]int64
	for i := 0; i < 400; i++ {
		edges = append(edges, [2]int64{rng.Int63n(30), rng.Int63n(30)})
	}
	e1, e2, e3 := edgeRel("E1", edges), edgeRel("E2", edges), edgeRel("E3", edges)
	trie, tStats := WCOJ(triangleSpec(e1, e2, e3))

	spec := triangleSpec(e1, e2, e3)
	// E1 and E2 bind (F,T) in elimination order; E3 binds (T,F): its CSR
	// backing is the reversed adjacency.
	spec.Atoms[0].CSR = relation.BuildCSR(e1, 0, 1, -1)
	spec.Atoms[1].CSR = relation.BuildCSR(e2, 0, 1, -1)
	spec.Atoms[2].CSR = relation.BuildCSR(e3, 1, 0, -1)
	csr, cStats := WCOJ(spec)
	if !csr.Equal(trie) {
		t.Fatalf("csr-backed result diverges from trie: %d vs %d rows", csr.Len(), trie.Len())
	}
	if cStats.Builds != 0 {
		t.Fatalf("csr-backed atoms must not build tries, got %d builds", cStats.Builds)
	}
	if tStats.Builds != 3 {
		t.Fatalf("trie path should build 3 tries, got %d", tStats.Builds)
	}
}

func TestWCOJCSRShapeMismatchFallsBack(t *testing.T) {
	// A CSR whose (SrcCol, DstCol) does not line up with the elimination
	// order must be ignored, not misused.
	edges := [][2]int64{{1, 2}, {2, 3}, {3, 1}}
	e1, e2, e3 := edgeRel("E1", edges), edgeRel("E2", edges), edgeRel("E3", edges)
	spec := triangleSpec(e1, e2, e3)
	spec.Atoms[2].CSR = relation.BuildCSR(e3, 0, 1, -1) // wrong orientation for E3's (T,F) levels
	got, stats := WCOJ(spec)
	want := binaryTriangle(e1, e2, e3)
	if !got.Equal(want) {
		t.Fatalf("fallback result wrong: got %d rows, want %d", got.Len(), want.Len())
	}
	if stats.Builds != 3 {
		t.Fatalf("mismatched CSR should fall back to a trie build, got %d builds", stats.Builds)
	}
}

func TestWCOJRepeatedVariableOnOneAtom(t *testing.T) {
	// Pattern where one atom carries the same variable on both columns
	// (self-loops only): E1(a,a), E2(a,b), E3(b,a).
	edges := [][2]int64{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}}
	e1, e2, e3 := edgeRel("E1", edges), edgeRel("E2", edges), edgeRel("E3", edges)
	spec := WCOJSpec{
		NumVars: 2,
		Order:   []int{0, 1},
		Atoms: []WCOJAtom{
			{Rel: e1, VarCols: []WCOJVarCol{{Var: 0, Col: 0}, {Var: 0, Col: 1}}},
			{Rel: e2, VarCols: []WCOJVarCol{{Var: 0, Col: 0}, {Var: 1, Col: 1}}},
			{Rel: e3, VarCols: []WCOJVarCol{{Var: 1, Col: 0}, {Var: 0, Col: 1}}},
		},
	}
	got, _ := WCOJ(spec)
	// Reference: filter E1 to self-loops, then chain the binary joins.
	self := relation.New(e1.Sch)
	for _, tu := range e1.Tuples {
		if tu[0].Equal(tu[1]) {
			self.Append(tu)
		}
	}
	p := EquiJoin(self, e2, EquiJoinSpec{LeftCols: []int{0}, RightCols: []int{0}, Algo: HashJoin})
	want := EquiJoin(p, e3, EquiJoinSpec{LeftCols: []int{3, 0}, RightCols: []int{0, 1}, Algo: HashJoin})
	if !got.Equal(want) {
		t.Fatalf("repeated-variable atom wrong: got %d rows, want %d", got.Len(), want.Len())
	}
}

func TestWCOJNullSemanticsMatchHashJoin(t *testing.T) {
	// A NULL key matches nothing under SQL's = — the hash joins skip NULL
	// probes, so the WCOJ path must bind no variable to NULL either.
	mk := func(q string, pairs [][2]value.Value) *relation.Relation {
		r := relation.New(schema.Cols(value.KindInt, "F", "T").Qualify(q))
		for _, p := range pairs {
			r.AppendVals(p[0], p[1])
		}
		return r
	}
	n := value.Null
	pairs := [][2]value.Value{{value.Int(1), n}, {n, value.Int(1)}, {value.Int(1), value.Int(1)}, {n, n}}
	e1, e2, e3 := mk("E1", pairs), mk("E2", pairs), mk("E3", pairs)
	want := binaryTriangle(e1, e2, e3)
	got, _ := WCOJ(triangleSpec(e1, e2, e3))
	if !got.Equal(want) {
		t.Fatalf("NULL semantics diverge: got %d rows, want %d", got.Len(), want.Len())
	}
	if want.Len() != 1 {
		t.Fatalf("reference found %d triangles, want only the all-1 cycle", want.Len())
	}
}

func TestWCOJRandomVsBinary(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen := func(q string) *relation.Relation {
			m := rng.Intn(40)
			var edges [][2]int64
			for i := 0; i < m; i++ {
				edges = append(edges, [2]int64{rng.Int63n(8), rng.Int63n(8)})
			}
			return edgeRel(q, edges)
		}
		e1, e2, e3 := gen("E1"), gen("E2"), gen("E3")
		want := binaryTriangle(e1, e2, e3)
		got, _ := WCOJ(triangleSpec(e1, e2, e3))
		if !got.Equal(want) {
			t.Fatalf("seed %d: wcoj %d rows, binary %d rows", seed, got.Len(), want.Len())
		}
	}
}

func TestWCOJCountModeMatchesEmission(t *testing.T) {
	// Count mode walks the same search tree as emission: same probes, same
	// builds, the same governor charge, and the emitted relation's length
	// as its answer — over tries and over CSR backings, with duplicate
	// edges so multiplicities multiply.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var edges [][2]int64
		for i := 0; i < 60; i++ {
			e := [2]int64{rng.Int63n(9), rng.Int63n(9)}
			edges = append(edges, e)
			if rng.Intn(2) == 0 {
				edges = append(edges, e) // a duplicate edge
			}
		}
		e1, e2, e3 := edgeRel("E1", edges), edgeRel("E2", edges), edgeRel("E3", edges)
		for _, csr := range []bool{false, true} {
			run := func(count bool) (*relation.Relation, WCOJStats, int64) {
				spec := triangleSpec(e1, e2, e3)
				if csr {
					spec.Atoms[0].CSR = relation.BuildCSR(e1, 0, 1, -1)
					spec.Atoms[1].CSR = relation.BuildCSR(e2, 0, 1, -1)
					spec.Atoms[2].CSR = relation.BuildCSR(e3, 1, 0, -1)
				}
				spec.Gov = govern.New(context.Background(), govern.Limits{})
				spec.Count = count
				out, stats := WCOJ(spec)
				return out, stats, spec.Gov.Rows()
			}
			out, emit, emitRows := run(false)
			none, count, countRows := run(true)
			if none != nil {
				t.Fatalf("seed %d: count mode emitted %d tuples", seed, none.Len())
			}
			if count.Tuples != int64(out.Len()) || emit.Tuples != int64(out.Len()) {
				t.Fatalf("seed %d csr=%v: count %d, emit stats %d, emitted %d", seed, csr, count.Tuples, emit.Tuples, out.Len())
			}
			if count.Probes != emit.Probes || count.Builds != emit.Builds || countRows != emitRows {
				t.Fatalf("seed %d csr=%v: count mode %+v rows %d, emission %+v rows %d", seed, csr, count, countRows, emit, emitRows)
			}
		}
	}
}

// wcojShape is a cyclic join pattern over edge atoms: atom i binds variable
// vars[i][0] on column F and vars[i][1] on column T.
type wcojShape struct {
	name    string
	numVars int
	order   []int
	vars    [][2]int
}

var wcojShapes = []wcojShape{
	{"triangle", 3, []int{0, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 0}}},
	{"triangle_order210", 3, []int{2, 1, 0}, [][2]int{{0, 1}, {1, 2}, {2, 0}}},
	{"diamond", 4, []int{0, 1, 2, 3}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
	{"clique4", 4, []int{0, 1, 2, 3}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
}

// wcojKeyPools are the endpoint values the differential draws from: a
// dense pool (small non-negative integers, one spelled as a float) and a
// sparse one that forces the dictionaries' bucket lookups — strings, NULL,
// NaN, negative and huge ids, and 1 and -3 spelled both as Int and Float.
var wcojKeyPools = map[string][]value.Value{
	"dense": {value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Int(4), value.Int(5), value.Int(6), value.Float(2)},
	"sparse": {value.Int(1), value.Float(1), value.Int(-3), value.Float(-3), value.Str("x"), value.Str("y"),
		value.Null, value.Float(math.NaN()), value.Int(1 << 40), value.Float(2.5)},
}

// renderExact spells every value of a relation, in row order, with its kind
// and exact bits, so two renderings are equal only when the relations are
// byte-identical, emission order included.
func renderExact(r *relation.Relation) string {
	var b []byte
	for _, tu := range r.Tuples {
		for _, v := range tu {
			b = strconv.AppendInt(append(b, byte(v.K)), v.I, 36)
			b = strconv.AppendUint(append(b, ':'), math.Float64bits(v.F), 36)
			b = strconv.AppendQuote(append(b, ':'), v.S)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// wcojRun is one execution's observable outcome.
type wcojRun struct {
	out   string
	stats WCOJStats
	rows  int64 // governor rows charged
}

// runShape executes the shape over the atoms' edge lists. csrMask selects
// the CSR-backed atoms (the typed probe); the rest build tries (the Value
// probe). With tail, each CSR is built over the first half of its rows and
// Extend encodes the rest into tail chains.
func runShape(t *testing.T, sh wcojShape, edges [][][2]value.Value, csrMask int, tail, count bool) wcojRun {
	t.Helper()
	pos := make([]int, sh.numVars)
	for i, v := range sh.order {
		pos[v] = i
	}
	spec := WCOJSpec{NumVars: sh.numVars, Order: sh.order, Count: count,
		Gov: govern.New(context.Background(), govern.Limits{})}
	for i, vs := range sh.vars {
		rel := relation.New(schema.Cols(value.KindInt, "F", "T").Qualify(fmt.Sprintf("E%d", i)))
		atom := WCOJAtom{Rel: rel, VarCols: []WCOJVarCol{{Var: vs[0], Col: 0}, {Var: vs[1], Col: 1}}}
		split := len(edges[i])
		if csrMask&(1<<i) != 0 && tail {
			split /= 2
		}
		for _, e := range edges[i][:split] {
			rel.AppendVals(e[0], e[1])
		}
		if csrMask&(1<<i) != 0 {
			// The CSR's source column is the atom's earlier variable.
			src, dst := 0, 1
			if pos[vs[1]] < pos[vs[0]] {
				src, dst = 1, 0
			}
			atom.CSR = relation.BuildCSR(rel, src, dst, -1)
		}
		for _, e := range edges[i][split:] {
			rel.AppendVals(e[0], e[1])
		}
		if atom.CSR != nil {
			atom.CSR.Extend(rel)
		}
		spec.Atoms = append(spec.Atoms, atom)
	}
	out, stats := WCOJ(spec)
	r := wcojRun{stats: stats, rows: spec.Gov.Rows()}
	if out != nil {
		r.out = renderExact(out)
	}
	return r
}

// TestWCOJTypedProbeMatchesValueProbe is the differential between the two
// probes: CSR-backed atoms intersect on dictionary ordinals, trie-backed
// atoms on Values. For every subset of CSR-backed atoms, with and without
// tail chains, over dense and sparse keys with duplicate edges, emission
// must match the all-trie run byte for byte (order included) with the same
// probes and the same governor rows, and count mode must answer its length
// with the same probes and rows.
func TestWCOJTypedProbeMatchesValueProbe(t *testing.T) {
	for _, sh := range wcojShapes {
		for pool, keys := range wcojKeyPools {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				gen := func() [][2]value.Value {
					var es [][2]value.Value
					for i := 0; i < 20; i++ {
						e := [2]value.Value{keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]}
						es = append(es, e)
						if rng.Intn(4) == 0 {
							es = append(es, e) // a duplicate edge
						}
					}
					return es
				}
				// Even seeds self-join one edge list, as the SQL corpus does.
				edges := make([][][2]value.Value, len(sh.vars))
				for i := range edges {
					if i == 0 || seed%2 == 1 {
						edges[i] = gen()
					} else {
						edges[i] = edges[0]
					}
				}
				ref := runShape(t, sh, edges, 0, false, false)
				all := 1<<len(sh.vars) - 1
				for mask := 0; mask <= all; mask++ {
					for _, tail := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/seed%d/csr%b/tail=%v", sh.name, pool, seed, mask, tail)
						got := runShape(t, sh, edges, mask, tail, false)
						if got.out != ref.out {
							t.Fatalf("%s: emission differs from the Value probe (%d vs %d tuples)", name, got.stats.Tuples, ref.stats.Tuples)
						}
						tries := int64(len(sh.vars))
						for m := mask; m != 0; m &= m - 1 {
							tries--
						}
						if got.stats.Probes != ref.stats.Probes || got.stats.Builds != tries || got.rows != ref.rows {
							t.Fatalf("%s: stats %+v rows %d, Value probe %+v rows %d, want %d builds", name, got.stats, got.rows, ref.stats, ref.rows, tries)
						}
						cnt := runShape(t, sh, edges, mask, tail, true)
						if cnt.stats.Tuples != ref.stats.Tuples || cnt.stats.Probes != ref.stats.Probes || cnt.rows != ref.rows {
							t.Fatalf("%s: count mode %+v rows %d, emission %+v rows %d", name, cnt.stats, cnt.rows, ref.stats, ref.rows)
						}
					}
				}
			}
		}
	}
}

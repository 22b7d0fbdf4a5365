package ra

import (
	"context"
	"math/rand"
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

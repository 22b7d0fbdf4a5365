package engine

import (
	"math"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/value"
)

func cycleEdges(n int) [][2]int64 {
	var out [][2]int64
	for i := int64(0); i < int64(n); i++ {
		out = append(out, [2]int64{i, (i + 1) % int64(n)})
		out = append(out, [2]int64{i, (i + 3) % int64(n)})
	}
	return out
}

func mvMap(r *relation.Relation) map[int64]float64 {
	m := make(map[int64]float64, r.Len())
	for _, t := range r.Tuples {
		m[t[0].AsInt()] = t[1].AsFloat()
	}
	return m
}

func mmMap(r *relation.Relation) map[[2]int64]float64 {
	m := make(map[[2]int64]float64, r.Len())
	for _, t := range r.Tuples {
		m[[2]int64{t[0].AsInt(), t[1].AsInt()}] = t[2].AsFloat()
	}
	return m
}

// TestMVJoinIndexCacheCounters is the tentpole's acceptance shape in miniature:
// across an iterative MV-join loop the matrix-side CSR is built once
// (CSRBuilds stays at 1) and every further iteration is a cache hit, even
// though the vector table is rewritten between iterations. The hash-index
// counters stay untouched because the CSR access path replaces the index
// build entirely.
func TestMVJoinIndexCacheCounters(t *testing.T) {
	for _, prof := range []Profile{OracleLike(), DB2Like()} {
		e := New(prof)
		if _, err := e.LoadBase("E", edgeRel(cycleEdges(8))); err != nil {
			t.Fatal(err)
		}
		vsch := schema.Schema{{Name: "ID", Type: value.KindInt}, {Name: "vw", Type: value.KindFloat}}
		if _, err := e.CreateTemp("V", vsch); err != nil {
			t.Fatal(err)
		}
		if err := e.StoreInto("V", nodeRel(8, func(int) float64 { return 1 })); err != nil {
			t.Fatal(err)
		}
		et, _ := e.Cat.Get("E")
		vt, _ := e.Cat.Get("V")
		const iters = 5
		for it := 0; it < iters; it++ {
			out, err := e.MVJoin(et, vt, ra.EdgeMat(), ra.NodeVec(), 0, 1, semiring.PlusTimes())
			if err != nil {
				t.Fatal(err)
			}
			// Rewrite the vector, as every iteration of Eq. (9) does.
			if err := e.StoreInto("V", out); err != nil {
				t.Fatal(err)
			}
		}
		if e.Cnt.CSRBuilds != 1 {
			t.Errorf("%s: CSRBuilds = %d over %d iterations, want 1 (O(1) per base table)",
				prof.Name, e.Cnt.CSRBuilds, iters)
		}
		if e.Cnt.CSRCacheHits != iters-1 {
			t.Errorf("%s: CSRCacheHits = %d, want %d", prof.Name, e.Cnt.CSRCacheHits, iters-1)
		}
		if e.Cnt.IndexBuilds != 0 {
			t.Errorf("%s: IndexBuilds = %d, want 0 (CSR path replaces the hash build)",
				prof.Name, e.Cnt.IndexBuilds)
		}
		if e.Cnt.TuplesMaterialized != 0 {
			t.Errorf("%s: fused loop materialized %d join tuples, want 0",
				prof.Name, e.Cnt.TuplesMaterialized)
		}
		// An append to the base table extends the cached CSR in place:
		// no rebuild, and the new edge participates in the join.
		if err := e.AppendInto("E", edgeRel([][2]int64{{0, 5}})); err != nil {
			t.Fatal(err)
		}
		if _, err := e.MVJoin(et, vt, ra.EdgeMat(), ra.NodeVec(), 0, 1, semiring.PlusTimes()); err != nil {
			t.Fatal(err)
		}
		if e.Cnt.CSRBuilds != 1 {
			t.Errorf("%s: CSRBuilds after base append = %d, want 1 (incremental maintenance)",
				prof.Name, e.Cnt.CSRBuilds)
		}
		if e.Cnt.CSRCacheHits != iters {
			t.Errorf("%s: CSRCacheHits after base append = %d, want %d",
				prof.Name, e.Cnt.CSRCacheHits, iters)
		}
		// A destructive rewrite (truncate + store) must still force a rebuild.
		er, err := e.Rel("E")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.StoreInto("E", er.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := e.MVJoin(et, vt, ra.EdgeMat(), ra.NodeVec(), 0, 1, semiring.PlusTimes()); err != nil {
			t.Fatal(err)
		}
		if e.Cnt.CSRBuilds != 2 {
			t.Errorf("%s: CSRBuilds after destructive rewrite = %d, want 2", prof.Name, e.Cnt.CSRBuilds)
		}
		// The A/B switch must restore the hash-index plan with identical output.
		nocsr := New(prof)
		nocsr.DisableCSR = true
		if _, err := nocsr.LoadBase("E", edgeRel(cycleEdges(8))); err != nil {
			t.Fatal(err)
		}
		if _, err := nocsr.CreateTemp("V", vsch); err != nil {
			t.Fatal(err)
		}
		if err := nocsr.StoreInto("V", nodeRel(8, func(int) float64 { return 1 })); err != nil {
			t.Fatal(err)
		}
		het, _ := nocsr.Cat.Get("E")
		hvt, _ := nocsr.Cat.Get("V")
		if _, err := nocsr.MVJoin(het, hvt, ra.EdgeMat(), ra.NodeVec(), 0, 1, semiring.PlusTimes()); err != nil {
			t.Fatal(err)
		}
		if nocsr.Cnt.CSRBuilds != 0 || nocsr.Cnt.IndexBuilds != 1 {
			t.Errorf("%s: DisableCSR engine: CSRBuilds=%d IndexBuilds=%d, want 0/1",
				prof.Name, nocsr.Cnt.CSRBuilds, nocsr.Cnt.IndexBuilds)
		}
	}
}

// TestFusedMatchesLegacyAcrossProfiles runs the same MV- and MM-joins
// through the engine on every profile (fused kernels on the hash profiles,
// the materializing sort-merge plan on the PostgreSQL-like one) and semiring,
// against the plain ra.MVJoin / ra.MMJoin operators as the reference; the
// results must agree (exactly for the discrete semirings, within 1e-9 for the
// float-summing one).
func TestFusedMatchesLegacyAcrossProfiles(t *testing.T) {
	edges := cycleEdges(12)
	eRel := edgeRel(edges)
	vRel := nodeRel(12, func(i int) float64 { return float64(i%3 + 1) })
	for _, prof := range allProfiles() {
		for _, sr := range semiring.All() {
			e := New(prof)
			if _, err := e.LoadBase("E", eRel); err != nil {
				t.Fatal(err)
			}
			if _, err := e.CreateTemp("V", vRel.Sch); err != nil {
				t.Fatal(err)
			}
			if err := e.StoreInto("V", vRel); err != nil {
				t.Fatal(err)
			}
			et, _ := e.Cat.Get("E")
			vt, _ := e.Cat.Get("V")
			mv, err := e.MVJoin(et, vt, ra.EdgeMat(), ra.NodeVec(), 1, 0, sr)
			if err != nil {
				t.Fatal(err)
			}
			mm, err := e.MMJoin(et, et, ra.EdgeMat(), ra.EdgeMat(), 1, 0, 0, 1, sr)
			if err != nil {
				t.Fatal(err)
			}
			refMV, err := ra.MVJoin(eRel, vRel, ra.EdgeMat(), ra.NodeVec(), 1, 0, sr, ra.HashJoin)
			if err != nil {
				t.Fatal(err)
			}
			refMM, err := ra.MMJoin(eRel, eRel, ra.EdgeMat(), ra.EdgeMat(), 1, 0, 0, 1, sr, ra.HashJoin)
			if err != nil {
				t.Fatal(err)
			}
			mvF, mvL, mmF, mmL := mvMap(mv), mvMap(refMV), mmMap(mm), mmMap(refMM)
			if len(mvF) != len(mvL) || len(mmF) != len(mmL) {
				t.Fatalf("%s/%s: group counts differ (mv %d vs %d, mm %d vs %d)",
					prof.Name, sr.Name, len(mvF), len(mvL), len(mmF), len(mmL))
			}
			for id, w := range mvL {
				if math.Abs(mvF[id]-w) > 1e-9 {
					t.Fatalf("%s/%s: mv[%d] = %g, want %g", prof.Name, sr.Name, id, mvF[id], w)
				}
			}
			for k, w := range mmL {
				if math.Abs(mmF[k]-w) > 1e-9 {
					t.Fatalf("%s/%s: mm[%v] = %g, want %g", prof.Name, sr.Name, k, mmF[k], w)
				}
			}
			// Path proof: the hash profiles fold without materializing, the
			// sort-merge profile keeps the materializing plan.
			if hash := prof.JoinAlgo(false) == ra.HashJoin; hash != (e.Cnt.TuplesMaterialized == 0) {
				t.Errorf("%s/%s: hash plan %v but %d join tuples materialized",
					prof.Name, sr.Name, hash, e.Cnt.TuplesMaterialized)
			}
		}
	}
}

// TestEnsureTempReshapeDropsStaleState re-creates a temp table with a new
// shape via EnsureTemp and checks the old table's cached index cannot leak
// into plans against the new one.
func TestEnsureTempReshapeDropsStaleState(t *testing.T) {
	e := New(OracleLike())
	sch2 := schema.Cols(value.KindInt, "a", "b")
	t1, err := e.EnsureTemp("t", sch2)
	if err != nil {
		t.Fatal(err)
	}
	t1.Insert(relation.Tuple{value.Int(1), value.Int(2)})
	if _, _, err := t1.EnsureHashIndex([]int{0}); err != nil {
		t.Fatal(err)
	}
	t2, err := e.EnsureTemp("t", schema.Cols(value.KindInt, "a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if t2 == t1 {
		t.Fatal("re-shape must produce a fresh table")
	}
	if t2.HashIndex([]int{0}) != nil {
		t.Error("fresh table must not inherit the old hash index")
	}
	if t2.Rows() != 0 {
		t.Error("fresh table must start empty")
	}
	// And the compatible path keeps the same table with its version intact.
	t3, err := e.EnsureTemp("t", schema.Cols(value.KindInt, "x", "y", "z"))
	if err != nil || t3 != t2 {
		t.Error("union-compatible EnsureTemp must return the existing table")
	}
}

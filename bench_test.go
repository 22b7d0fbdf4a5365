package repro

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks of the four operations. Run everything with
//
//	go test -bench=. -benchmem
//
// and regenerate the full formatted tables with cmd/bench.

import (
	"fmt"
	"testing"

	"repro/internal/algos"
	"repro/internal/bsp"
	"repro/internal/datalog"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/value"
	"repro/internal/withplus"
)

// benchNodes keeps each bench iteration in the millisecond range; scale up
// via cmd/bench for the full experiment.
const benchNodes = 400

func benchGraph(code string) *graph.Graph {
	d, err := dataset.ByCode(code)
	if err != nil {
		panic(err)
	}
	return d.Generate(benchNodes, 1)
}

// BenchmarkTable1Features covers Table 1 (feature-matrix construction).
func BenchmarkTable1Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.Table1(); len(t.Rows) != 21 {
			b.Fatal("table 1 shape")
		}
	}
}

// BenchmarkUnionByUpdate covers Tables 4 and 5: the four union-by-update
// implementations under PageRank on the Web Google stand-in.
func BenchmarkUnionByUpdate(b *testing.B) {
	g := benchGraph("WG")
	for _, impl := range []ra.UBUImpl{ra.UBUFullOuter, ra.UBUMerge, ra.UBUUpdateFrom, ra.UBUReplace} {
		b.Run(impl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := engine.New(engine.OracleLike())
				if _, err := algos.RunPageRank(e, g, algos.Params{Iters: 15, UBU: impl}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAntiJoin covers Tables 6 and 7: the three anti-join
// implementations under TopoSort.
func BenchmarkAntiJoin(b *testing.B) {
	g := graph.GenerateDAG(benchNodes, benchNodes*10, 3)
	for _, impl := range []ra.AntiJoinImpl{ra.AntiNotExists, ra.AntiLeftOuter, ra.AntiNotIn} {
		b.Run(impl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := engine.New(engine.OracleLike())
				if _, err := algos.RunTopoSort(e, g, algos.Params{Anti: impl}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphAlgos covers Figs. 7 and 8: each benchmarked algorithm ×
// each profile on one undirected (YT) and one directed (WG) stand-in.
func BenchmarkGraphAlgos(b *testing.B) {
	for _, code := range []string{"YT", "WG"} {
		g := benchGraph(code)
		d, _ := dataset.ByCode(code)
		for _, a := range algos.Benchmarked() {
			if a.DirectedOnly && !d.Directed {
				continue
			}
			for _, prof := range engine.Profiles() {
				b.Run(fmt.Sprintf("%s/%s/%s", code, a.Code, prof.Name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e := engine.New(prof)
						if _, err := a.Run(e, g, algos.Params{Iters: 15, Seed: 1}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkIndexing covers Exp-A / Fig. 10: PageRank on the
// PostgreSQL-like profile with and without temp-table indexes.
func BenchmarkIndexing(b *testing.B) {
	g := benchGraph("WG")
	for _, withIdx := range []bool{false, true} {
		name := "noindex"
		if withIdx {
			name = "index"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := engine.New(engine.PostgresLike(withIdx))
				if _, err := algos.RunPageRank(e, g, algos.Params{Iters: 15}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVsGraphSystems covers Exp-B / Fig. 11: PageRank on the RDBMS
// path versus the PowerGraph-like, SociaLite-like, and Giraph-like
// engines.
func BenchmarkVsGraphSystems(b *testing.B) {
	g := benchGraph("WV")
	b.Run("rdbms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.OracleLike())
			if _, err := algos.RunPageRank(e, g, algos.Params{Iters: 15}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("powergraph-gas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gas.PageRank(g, 0.85, 15)
		}
	})
	b.Run("socialite-datalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			datalog.SocialitePageRank(g, 0.85, 15)
		}
	})
	b.Run("giraph-bsp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bsp.PageRank(g, 0.85, 15)
		}
	})
}

// BenchmarkWithVsWithPlus covers Exp-C / Fig. 12: plain-WITH PageRank
// (Fig. 9, partition by + distinct) versus WITH+ PageRank (Fig. 3).
func BenchmarkWithVsWithPlus(b *testing.B) {
	g := benchGraph("WG")
	b.Run("with-partitionby-distinct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.PostgresLike(true))
			if _, err := algos.RunLegacyPageRank(e, g, algos.Params{Iters: 14}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("withplus-union-by-update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.PostgresLike(true))
			if _, err := algos.RunPageRank(e, g, algos.Params{Iters: 14}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCAPSP covers Exp-C / Fig. 13: depth-bounded linear TC and APSP
// by MM-join on the Wiki Vote stand-in.
func BenchmarkTCAPSP(b *testing.B) {
	// TC/APSP densify quadratically; the paper runs them on its smallest
	// dataset, and the bench uses a further-scaled Wiki Vote stand-in.
	small, _ := dataset.ByCode("WV")
	gSmall := small.Generate(benchNodes/4, 1)
	b.Run("tc-withplus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.OracleLike())
			if _, err := algos.RunTC(e, gSmall, algos.Params{Depth: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tc-with-postgres", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.PostgresLike(true))
			if _, err := algos.RunLegacyTC(e, gSmall, algos.Params{Depth: 4}, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apsp-mmjoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.OracleLike())
			if _, err := algos.RunAPSP(e, gSmall, algos.Params{Depth: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMVJoin micro-benchmarks the MV-join under the semirings the
// algorithms use (the inner loop of every iteration in Figs. 7/8).
func BenchmarkMVJoin(b *testing.B) {
	g := benchGraph("WG")
	eRel := g.EdgeRelation()
	vRel := g.NodeRelation(func(i int) float64 { return float64(i) })
	for _, sr := range []semiring.Semiring{semiring.PlusTimes(), semiring.MinPlus(), semiring.MaxTimes()} {
		b.Run(sr.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ra.MVJoin(eRel, vRel, ra.EdgeMat(), ra.NodeVec(), 0, 1, sr, ra.HashJoin); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFusedMVJoin is the ablation for the iteration-aware executor:
// the materializing EquiJoin+GroupBy plan versus the fused kernel probing a
// prebuilt (cached) build-side index. The fused rows also show what an iteration costs once the index build has been paid
// (the steady state of every iterative algorithm on the hash profiles).
func BenchmarkFusedMVJoin(b *testing.B) {
	g := benchGraph("WG")
	eRel := g.EdgeRelation()
	vRel := g.NodeRelation(func(i int) float64 { return float64(i) })
	sr := semiring.PlusTimes()
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ra.MVJoin(eRel, vRel, ra.EdgeMat(), ra.NodeVec(), 0, 1, sr, ra.HashJoin); err != nil {
				b.Fatal(err)
			}
		}
	})
	idx := relation.BuildHashIndex(eRel, []int{0})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ra.FusedMVJoin(eRel, vRel, idx, nil, ra.EdgeMat(), ra.NodeVec(), 1, sr, nil, nil)
		}
	})
	dict := relation.BuildColumnDict(eRel, 1)
	b.Run("fused-dict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ra.FusedMVJoin(eRel, vRel, idx, dict, ra.EdgeMat(), ra.NodeVec(), 1, sr, nil, nil)
		}
	})
}

// BenchmarkJoinAlgorithms compares the physical joins behind the profiles
// (hash vs sort-merge vs index-merge), the mechanism driving Fig. 10.
func BenchmarkJoinAlgorithms(b *testing.B) {
	g := benchGraph("WG")
	eRel := g.EdgeRelation()
	vRel := g.NodeRelation(nil)
	eIdx := relation.BuildSortedIndex(eRel, []int{0})
	vIdx := relation.BuildSortedIndex(vRel, []int{0})
	specs := map[string]ra.EquiJoinSpec{
		"hash":        {LeftCols: []int{0}, RightCols: []int{0}, Algo: ra.HashJoin},
		"sort-merge":  {LeftCols: []int{0}, RightCols: []int{0}, Algo: ra.SortMergeJoin},
		"index-merge": {LeftCols: []int{0}, RightCols: []int{0}, Algo: ra.IndexMergeJoin, LeftIdx: eIdx, RightIdx: vIdx},
	}
	for name, spec := range specs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ra.EquiJoin(eRel, vRel, spec)
			}
		})
	}
}

// BenchmarkStorage measures the paged-versus-memory temp table gap (the
// Oracle-vs-DB2 mechanism).
func BenchmarkStorage(b *testing.B) {
	g := benchGraph("WG")
	rel := g.EdgeRelation()
	b.Run("mem-temp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.OracleLike())
			t, _ := e.CreateTemp("t", rel.Sch)
			if err := t.InsertRelation(rel); err != nil {
				b.Fatal(err)
			}
			if _, err := t.Materialize(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paged-temp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.DB2Like())
			t, _ := e.CreateTemp("t", rel.Sch)
			if err := t.InsertRelation(rel); err != nil {
				b.Fatal(err)
			}
			if _, err := t.Materialize(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWithPlusCompile measures parsing + Theorem 5.1 checking +
// compilation of a WITH+ statement (no execution).
func BenchmarkWithPlusCompile(b *testing.B) {
	// Uses value import to build the tiny catalog below.
	_ = value.Int(0)
	src := `
with TC(F, T) as (
  (select F, T from E)
  union all
  (select TC.F, E.T from TC, E where TC.T = E.F)
  maxrecursion 4)
select F, T from TC`
	g := graph.New(3, true)
	g.AddEdge(0, 1, 1)
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.OracleLike())
		if _, err := e.LoadBase("E", g.EdgeRelation()); err != nil {
			b.Fatal(err)
		}
		p, err := prepareWith(e, src)
		if err != nil {
			b.Fatal(err)
		}
		_ = p
	}
}

// prepareWith wraps withplus.Prepare for the compile benchmark.
func prepareWith(e *engine.Engine, src string) (interface{ Cleanup() }, error) {
	p, err := withplus.Prepare(e, src)
	if err != nil {
		return nil, err
	}
	p.Cleanup()
	return p, nil
}

// BenchmarkEarlySelection is the ablation for the SQL-level optimization
// the paper cites for path-oriented algorithms: reachability from one
// source via the full TC + filter versus the pushed-down selection.
func BenchmarkEarlySelection(b *testing.B) {
	g := graph.Generate(graph.GenSpec{N: 300, M: 900, Directed: true, Skew: 2.4, Seed: 5})
	b.Run("full-tc-then-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.OracleLike())
			if _, err := algos.RunTC(e, g, algos.Params{Depth: 6}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("early-selection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.OracleLike())
			if _, err := algos.RunTCFrom(e, g, 0, algos.Params{Depth: 6}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBufferPool sweeps the buffer-pool size on the paged profile:
// the thrashing regime is the paper's I/O-bound Orkut observation.
func BenchmarkBufferPool(b *testing.B) {
	g := benchGraph("WG")
	for _, frames := range []int{8, 64, 4096} {
		b.Run(fmt.Sprintf("frames-%d", frames), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := engine.NewWithFrames(engine.DB2Like(), frames)
				if _, err := algos.RunPageRank(e, g, algos.Params{Iters: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

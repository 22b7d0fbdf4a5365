package exp

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/value"
)

// vectorAvgDegree shapes the edge table: the experiment measures tuple
// throughput, so the table just needs to be wide enough that per-row costs
// dominate.
const vectorAvgDegree = 16

// vectorEdgeRelation builds E(F, T, ew) from the generated graph with
// deterministic pseudo-random weights in [0, 1) — the generator's constant
// 1.0 weights would make every float filter all-or-nothing.
func vectorEdgeRelation(g *graph.Graph, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed + 1))
	r := relation.NewWithCap(graph.EdgeSchema(), len(g.Edges))
	for _, e := range g.Edges {
		r.Tuples = append(r.Tuples, relation.Tuple{
			value.Int(int64(e.F)), value.Int(int64(e.T)), value.Float(rng.Float64()),
		})
	}
	return r
}

// vectorExp runs the scan-heavy SQL shapes the vectorized kernels target with
// the batch kernels on (default) and off (-novector). The vectorized path
// must be byte-identical to the row path, and the vectorized_batches counter
// proves which path actually ran (these workloads compile fully to kernels,
// so row_fallbacks stays zero). The selection (FILTER) and aggregation (AGG)
// workloads carry the speedup; PROJECT is bound by output materialization
// (the boxed tuple build dominates either way) and REACH by join/dedup work,
// so those cells gate on correctness and counters, not speed.
var vectorExp = &Experiment{
	Name:  "vector",
	Title: "Vectorized execution: batch kernels vs row-at-a-time closures",
	Reps:  5,
	Knob:  func(c *Config) *bool { return &c.NoVector },
	Columns: []string{"name", "profile", "off", "queries", "ms", "ns_op", "rows_final", "checksum",
		"vectorized_batches", "row_fallbacks"},
	Gate: Rule{
		OnUsed:    []string{"vectorized_batches"},
		OnAtMost:  map[string]int64{"row_fallbacks": 0},
		OffUnused: []string{"vectorized_batches"},
		Speedup:   1.5,
		Carries:   hashProfile,
		MinFast:   2,
	},
	cells: func(cfg Config) ([]cell, error) {
		cfg = cfg.defaults()
		n := abNodes(cfg)
		g := graph.Generate(graph.GenSpec{N: n, M: n * vectorAvgDegree, Directed: true, Skew: 2.5, Seed: cfg.Seed})
		edges, nodes := vectorEdgeRelation(g, cfg.Seed), g.NodeRelation(nil)
		rec := func(name string, queries int) Record {
			return Record{Name: name, Nodes: g.N, Edges: g.M(), Queries: queries}
		}
		sel := func(query string) engineWork { return runSelect(query, edges, nodes) }
		return engineCells(cfg, profiles(), []workload{
			// Residual WHERE: one typed column⋈constant kernel and one
			// column⋈column kernel composed by selection-vector refinement.
			{rec("FILTER", 8), sel("select F, T from E where ew > 0.7 and F <> T")},
			// Computed projection: arithmetic kernels into one flat output array.
			{rec("PROJECT", 8), sel("select F + T as s, ew * 2.0 as w2, F from E")},
			// Integer-keyed aggregation: dense group ids, no per-row map probe.
			{rec("AGG", 8), sel("select F, sum(ew) as s, count(*) as n, max(ew) as mx from E group by F")},
			// WITH+ recursion with a non-equi residual in the recursive step: the
			// vectorized filter runs once per iteration inside the loop.
			{rec("REACH", 1), runWithPlus(`
with R(ID) as (
  (select ID from V where ID = 0)
  union all
  (select E.T from R, E where R.ID = E.F and E.ew > 0.2))
select ID from R`, edges, nodes)},
		}), nil
	},
}

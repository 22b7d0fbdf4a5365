package exp

import (
	"fmt"

	"repro/internal/algos"
	"repro/internal/graph"
)

// chainGraph is the worst case for naive accumulation: a path 0→1→…→n-1.
// Reachability from node 0 runs n-1 iterations with a one-row frontier, so
// full evaluation does O(n²) probe work where semi-naive does O(n).
func chainGraph(n int) *graph.Graph {
	g := graph.New(n, true)
	for i := 0; i < n-1; i++ {
		g.AddEdge(int32(i), int32(i+1), 1)
	}
	return g
}

// reachSQL is single-source reachability (BFS-shaped accumulation): the
// frontier-rewritable form of Eq. (5), growing the reached set by union.
func reachSQL(source int) string {
	return fmt.Sprintf(`
with R(ID) as (
  (select ID from V where ID = %d)
  union all
  (select E.T from R, E where R.ID = E.F))
select ID from R`, source)
}

// tcDepth bounds the transitive-closure workload so its cost scales with
// nodes × depth rather than nodes²; deep enough that the accumulated
// relation dwarfs each iteration's frontier.
const tcDepth = 40

// deltaExp runs accumulation-style recursion (transitive closure and
// single-source reachability — the workloads where semi-naive evaluation
// pays) through the WITH+ pipeline, and the paper's min/max-guarded
// union-by-update texts (SSSP and BFS on the chain, WCC on the symmetrized
// chain). With delta on, each iteration probes only the Δ frontier —
// for the union-by-update texts, the rows the previous update changed — and
// index_builds stays at one per base table (the build side is extended
// incrementally, never rebuilt); with -nodelta every iteration re-reads the
// full recursive relation — Fig. 9/12's plain-WITH baseline.
var deltaExp = &Experiment{
	Name:  "delta",
	Title: "Delta: semi-naive frontier evaluation vs naive re-evaluation",
	Reps:  3,
	Knob:  func(c *Config) *bool { return &c.NoDelta },
	Columns: []string{"name", "profile", "delta", "iterations", "ms", "rows_final", "delta_rows_total",
		"joins", "index_builds", "index_cache_hits", "tuples_materialized"},
	Gate: Rule{
		OnUsed:    []string{"delta"},
		OffUnused: []string{"delta"},
		// Zero build-side index rebuilds during the accumulation iterations.
		OnAtMost: map[string]int64{"index_builds": 1},
		Speedup:  2.0,
		// WCC on the chain changes all but one more label each iteration, so
		// its Δ holds half of R on average and Δ evaluation can save at most
		// half the work: its cells pin results, not the speedup.
		Carries: func(r Record) bool { return hashProfile(r) && r.Name != "WCC" },
	},
	cells: func(cfg Config) ([]cell, error) {
		cfg = cfg.defaults()
		// Floored at 600 nodes so the accumulation loops run long enough for
		// the frontier effect to dominate per-iteration fixed costs.
		g := chainGraph(max(cfg.Nodes, 600))
		edges, nodes := g.EdgeRelation(), g.NodeRelation(nil)
		// The union-by-update texts rewrite R's rows each step on the
		// PostgreSQL-like profile (sort-merge join, full-outer update), so a
		// fifth of the chain keeps their cells affordable.
		u := chainGraph(max(cfg.Nodes, 600) / 5)
		sym := u.Symmetrize()
		uEdges, uNodes := u.EdgeRelation(), u.NodeRelation(nil)
		return engineCells(cfg, profiles(), []workload{
			{Record{Name: "TC", Nodes: g.N, Edges: g.M()}, runWithPlus(algos.TCSQL(tcDepth), edges, nodes)},
			{Record{Name: "REACH", Nodes: g.N, Edges: g.M()}, runWithPlus(reachSQL(0), edges, nodes)},
			{Record{Name: "SSSP", Nodes: u.N, Edges: u.M()}, runWithPlus(algos.SSSPSQL(0), uEdges, uNodes)},
			{Record{Name: "BFS", Nodes: u.N, Edges: u.M()}, runWithPlus(algos.BFSSQL(0), uEdges, uNodes)},
			{Record{Name: "WCC", Nodes: sym.N, Edges: sym.M()}, runWithPlus(algos.WCCSQL(), sym.EdgeRelation(), uNodes)},
		}), nil
	},
}

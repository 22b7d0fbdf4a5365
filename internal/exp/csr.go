package exp

import (
	"repro/internal/algos"
	"repro/internal/graph"
)

// abNodes floors the csr, vector, and motif graphs at the reference scale of
// their committed baselines, high enough that the per-iteration join or scan
// dominates fixed costs (parse, plan, catalog lookups).
func abNodes(cfg Config) int { return max(cfg.Nodes, 5000) }

// csrAvgDegree shapes the random graph for the vector workloads. Frontiers
// here are thousands of rows wide (unlike the delta experiment's chains,
// whose one-row frontiers measure the Δ machinery, not the probe path), and
// the fused kernels fold join outputs straight into n dense groups, so the
// per-iteration fixed work is O(n) while probe work scales with the edge
// count — a denser graph makes the access path the dominant cost.
const csrAvgDegree = 16

// csrTCDegree and csrTCDepth shape the transitive-closure workload: the
// accumulated closure grows with reachable pairs, so TC runs on a sparser
// DAG with a shallow recursion bound — frontiers stay thousands of rows
// wide while |TC| stays near-linear instead of saturating toward n² the
// way it does on a strongly connected random graph.
const csrTCDegree = 3
const csrTCDepth = 3

// csrExp runs frontier-heavy workloads — recursions whose per-iteration work
// is dominated by probing an immutable edge table with a frontier — with the
// CSR adjacency access path on (default) and off (-nocsr). The CSR path must
// be byte-identical to the hash path, with one CSR build amortized over every
// iteration (appends extend it in place). The fused vector workloads (BFS,
// PR) carry the speedup; the SQL-path cells (TC, REACH) are dominated by
// join-output materialization and dedup, and the PostgreSQL-like profile
// plans sort-merge joins for unanalyzed temps, so those cells gate on
// correctness and build counts, not speed — the access path is
// plan-dependent, which is the point of keeping them in the table.
var csrExp = &Experiment{
	Name:  "csr",
	Title: "CSR: adjacency access path vs cached hash index",
	Reps:  5,
	Knob:  func(c *Config) *bool { return &c.NoCSR },
	Columns: []string{"name", "profile", "off", "iterations", "ms", "rows_final", "checksum",
		"joins", "csr_builds", "csr_cache_hits", "index_builds", "index_cache_hits"},
	Gate: Rule{
		OnAtMost:  map[string]int64{"csr_builds": 1},
		OffUnused: []string{"csr_builds", "csr_cache_hits"},
		Speedup:   1.5,
		Carries:   hashProfile,
		MinFast:   2,
	},
	cells: func(cfg Config) ([]cell, error) {
		cfg = cfg.defaults()
		n := abNodes(cfg)
		g := graph.Generate(graph.GenSpec{N: n, M: n * csrAvgDegree, Directed: true, Skew: 2.5, Seed: cfg.Seed})
		dag := graph.GenerateDAG(n/2, n/2*csrTCDegree, cfg.Seed)
		rec := func(name string, g *graph.Graph) Record { return Record{Name: name, Nodes: g.N, Edges: g.M()} }
		return engineCells(cfg, profiles(), []workload{
			// The SQL frontier path: Δ ⋈ E equi-joins inside WITH+ recursion.
			{rec("REACH", g), runWithPlus(reachSQL(0), g.EdgeRelation(), g.NodeRelation(nil))},
			{rec("TC", dag), runWithPlus(algos.TCSQL(csrTCDepth), dag.EdgeRelation(), dag.NodeRelation(nil))},
			// The fused MV-join path: vector × edge-matrix fixpoints.
			{rec("BFS", g), runAlgo(algos.RunBFS, g, algos.Params{Source: 0})},
			{rec("PR", g), runAlgo(algos.RunPageRank, g, algos.Params{Iters: cfg.Iters})},
		}), nil
	},
}

package exp

import (
	"repro/internal/algos"
	"repro/internal/dataset"
)

// perfExp runs the named iterative algorithms on the Web Google stand-in
// across the three profiles. The counters expose the iteration-aware
// executor: index and CSR builds stay O(1) per base table and
// tuples_materialized stays zero on the fused MV-/MM-join path. It is also
// the observer A/B: -observe attaches a counting sink to the same run.
var perfExp = &Experiment{
	Name:  "perf",
	Title: "Perf: iterative algorithms under the iteration-aware executor",
	Reps:  3,
	// The guard also runs it observed: the observability overhead A/B.
	ObserverAB: true,
	Columns: []string{"name", "profile", "iterations", "ms", "joins", "group_bys",
		"index_builds", "index_cache_hits", "csr_builds", "csr_cache_hits", "tuples_materialized", "spans"},
	Gate: Rule{Extra: perfTimings},
	cells: func(cfg Config) ([]cell, error) {
		cfg = cfg.defaults()
		d, err := dataset.ByCode("WG")
		if err != nil {
			return nil, err
		}
		g := d.Generate(cfg.Nodes, cfg.Seed)
		var ws []workload
		// The fixed-iteration MV-join loops (PR, HITS) and a converging
		// traversal (WCC) together cover the paths the fused kernels serve.
		for _, code := range []string{"PR", "HITS", "WCC"} {
			a, err := algos.ByCode(code)
			if err != nil {
				return nil, err
			}
			ws = append(ws, workload{Record{Name: code, Dataset: d.Code}, runAlgo(a.Run, g, algoParams(d.Code, cfg))})
		}
		return engineCells(cfg, profiles(), ws), nil
	},
}

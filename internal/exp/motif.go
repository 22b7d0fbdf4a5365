package exp

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/value"
)

// Graph shapes are tuned per motif: the binary baseline's intermediate
// grows with a higher power of the degree for each extra cycle edge
// (wedges ~ Σ in·out, open 4-paths ~ Σ d³), and hub nodes raise those
// moments steeply — the generator's Skew is a power-law exponent where
// values just above 1 are extreme and larger values are milder. The
// triangle keeps the heavy skew (binary materializes millions of wedges
// where the generic join intersects adjacency lists directly); the longer
// cycles get a milder exponent so the binary chain stays feasible. The
// experiment measures a crossover, not a timeout.
const (
	motifTriangleDegree = 16
	motifTriangleSkew   = 1.5
	motifDiamondDegree  = 8
	motifDiamondSkew    = 4
	motifCliqueDegree   = 6
	motifCliqueSkew     = 4
)

// Counting queries. count(*) keeps the output one row while still pinning
// the full multiplicity of the match — any missed or duplicated binding
// changes the count, and the checksum folds the rendered count.
const (
	triangleSQL = "select count(*) from E e1, E e2, E e3 " +
		"where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"
	diamondSQL = "select count(*) from E e1, E e2, E e3, E e4 " +
		"where e1.T = e2.F and e2.T = e3.F and e3.T = e4.F and e4.T = e1.F"
	clique4SQL = "select count(*) from E e1, E e2, E e3, E e4, E e5, E e6 " +
		"where e1.F = e2.F and e2.F = e3.F and e1.T = e4.F and e4.F = e5.F " +
		"and e2.T = e4.T and e4.T = e6.F and e3.T = e5.T and e5.T = e6.T"
)

// motifCliquePlants is the number of directed 4-cliques planted into the
// clique graph: the pattern needs a transitive tournament on four nodes,
// which a sparse random graph essentially never produces — a zero count
// would make the checksum gate vacuous. The planted node quadruples come
// from a deterministic LCG over the seed, so both committed baselines see
// the same graph.
const motifCliquePlants = 40

// plantCliques appends the six edges of a directed 4-clique (a transitive
// tournament a→b→c→d with all shortcuts) for k random node quadruples.
func plantCliques(edges *relation.Relation, n, k int, seed int64) {
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() int64 {
		x = x*6364136223846793005 + 1442695040888963407
		return int64((x >> 17) % uint64(n))
	}
	for i := 0; i < k; i++ {
		q := [4]int64{next(), next(), next(), next()}
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				if q[a] == q[b] {
					continue // degenerate quadruple: skip the self-loop edge
				}
				edges.AppendVals(value.Int(q[a]), value.Int(q[b]), value.Float(1))
			}
		}
	}
}

// motifExp counts small cyclic subgraphs — triangles, diamonds (directed
// 4-cycles), and directed 4-cliques — as plain multi-relation SELECTs, with
// the worst-case-optimal multiway join on (default) and off (-nowcoj). The
// cyclic cores are exactly where the binary hash-join chain materializes a
// super-linear intermediate (all wedges before closing the triangle) while
// the generic join's per-variable intersection stays within the AGM bound.
// The WCOJ path must count exactly what the binary chain counts, and the
// wcoj_probes counter proves which path ran. TRIANGLE carries the speedup (the
// skewed graph is where the binary chain materializes every wedge);
// DIAMOND/CLIQUE4 run on milder graphs and gate on correctness and path
// proof. Only the Oracle- and DB2-like profiles are measured: the
// PostgreSQL-like one sort-merges unanalyzed temps and is covered by the
// differential tests instead. Three repetitions, not five: the binary
// diamond/clique cells are the slow side of the crossover and dominate the
// wall clock.
var motifExp = &Experiment{
	Name:  "motif",
	Title: "Motif counting: worst-case-optimal multiway join vs binary hash-join chain",
	Reps:  3,
	Knob:  func(c *Config) *bool { return &c.NoWCOJ },
	Columns: []string{"name", "profile", "off", "ms", "count", "checksum", "joins",
		"wcoj_builds", "wcoj_probes"},
	Gate: Rule{
		OnUsed:    []string{"wcoj_probes"},
		OffUnused: []string{"wcoj_probes", "wcoj_builds"},
		// Every motif query is a global count(*) the multiway node folds:
		// the on-side materializes only the one result row.
		OnAtMost: map[string]int64{"tuples_materialized": 1},
		Speedup:  2.0,
		Carries:  func(r Record) bool { return r.Name == "TRIANGLE" },
	},
	cells: func(cfg Config) ([]cell, error) {
		cfg = cfg.defaults()
		n := abNodes(cfg)
		gen := func(deg int, skew float64) *relation.Relation {
			g := graph.Generate(graph.GenSpec{N: n, M: n * deg, Directed: true, Skew: skew, Seed: cfg.Seed})
			return g.EdgeRelation()
		}
		clique := gen(motifCliqueDegree, motifCliqueSkew)
		plantCliques(clique, n, motifCliquePlants, cfg.Seed)
		w := func(name, query string, edges *relation.Relation) workload {
			return workload{Record{Name: name, Nodes: n, Edges: edges.Len(), Queries: 1}, runSelect(query, edges, nil)}
		}
		return engineCells(cfg, []engine.Profile{engine.OracleLike(), engine.DB2Like()}, []workload{
			w("TRIANGLE", triangleSQL, gen(motifTriangleDegree, motifTriangleSkew)),
			w("DIAMOND", diamondSQL, gen(motifDiamondDegree, motifDiamondSkew)),
			w("CLIQUE4", clique4SQL, clique),
		}), nil
	},
}

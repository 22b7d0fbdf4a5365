package withplus

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ra"
	"repro/internal/refimpl"
	"repro/internal/relation"
	"repro/internal/value"
)

// unfolded puts a text's edge table behind a subquery: the step's join then
// has no catalog build side, so it never folds into an agg-join and runs
// the hash join and the group-by.
func unfolded(q string) string {
	q = strings.ReplaceAll(q, ", E where", ", (select F, T, ew from E) E where")
	return strings.ReplaceAll(q, ", En E", ", (select F, T, ew from En) E")
}

// floatBits renders rows in order with every float by its bits.
func floatBits(r *relation.Relation) string {
	var b strings.Builder
	for _, tu := range r.Tuples {
		for _, v := range tu {
			if v.K == value.KindFloat {
				fmt.Fprintf(&b, "f%016x ", math.Float64bits(v.F))
			} else {
				fmt.Fprintf(&b, "%v ", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestAggJoinTextsMatchUnfolded: the paper's texts whose step is a join
// plus a semiring group-by — SSSP, PageRank in both forms, WCC, BFS —
// return on every profile the rows, in order and to the bit, of the same
// text with the edge table behind a subquery, and agree with refimpl. The
// Oracle- and DB2-like profiles plan the step as an agg-join; the
// PostgreSQL-like profiles never do.
func TestAggJoinTextsMatchUnfolded(t *testing.T) {
	g := graph.Generate(graph.GenSpec{N: 60, M: 240, Directed: true, Skew: 2.0, Seed: 61})
	// SSSP reads weights 1, 2 and 3 — integral, so Bellman-Ford sums them
	// exactly in any order; WCC and BFS multiply by weight 1.
	weighted := graph.New(g.N, true)
	for i, e := range g.Edges {
		weighted.AddEdge(e.F, e.T, float64(1+i%3))
	}
	sym := g.Symmetrize()
	dist, labels, reach := refimpl.BellmanFord(weighted, 0), refimpl.WCC(sym), refimpl.BFS(g, 0)
	check := map[string]func(id int64, v value.Value) bool{
		"SSSP": func(id int64, v value.Value) bool {
			return v.AsFloat() == dist[id] || math.IsInf(dist[id], 1) && v.AsFloat() == 1e18
		},
		"WCC": func(id int64, v value.Value) bool { return v.AsInt() == labels[id] },
		"BFS": func(id int64, v value.Value) bool { return v.AsFloat() == reach[id] },
	}
	for _, prof := range engine.Profiles() {
		for _, tc := range []struct {
			name, q string
			g       *graph.Graph
		}{
			{"SSSP", algos.SSSPSQL(0), weighted},
			{"PR", algos.PageRankSQL(g.N, 8, 0.85), g},
			{"PR-fig3", algos.PageRankFig3SQL(g.N, 8, 0.85), g},
			{"WCC", algos.WCCSQL(), sym},
			{"BFS", algos.BFSSQL(0), g},
		} {
			run := func(q string) (*relation.Relation, string, []obs.Span) {
				eng := engine.New(prof)
				loadGraphDB(t, eng, tc.g)
				spans := obs.NewCollector()
				eng.SetObserver(spans)
				p, err := Prepare(eng, q)
				if err != nil {
					t.Fatal(err)
				}
				out, an, err := p.RunAnalyzed()
				if err != nil {
					t.Fatalf("%s %s: %v", prof.Name, tc.name, err)
				}
				return out, an.Render(), spans.Spans()
			}
			got, plan, spans := run(tc.q)
			want, _, _ := run(unfolded(tc.q))
			if floatBits(got) != floatBits(want) {
				t.Errorf("%s %s: folded rows differ from the join + group-by", prof.Name, tc.name)
			}
			planned := prof.JoinAlgo(false) == ra.HashJoin
			if strings.Contains(plan, "agg-join on") != planned {
				t.Errorf("%s %s: agg-join planned %v, want %v:\n%s", prof.Name, tc.name, !planned, planned, plan)
			}
			// Every folded step runs the CSR kernel's float lane — WCC's
			// integer labels too, widened to their float64.
			folded := 0
			for _, sp := range spans {
				if sp.Op == "agg-join" {
					folded++
					if sp.Algo != "fused-csr f64" {
						t.Errorf("%s %s: agg-join span algo %q", prof.Name, tc.name, sp.Algo)
					}
				}
			}
			if want := planned; (folded > 0) != want {
				t.Errorf("%s %s: %d folded steps, want folding %v", prof.Name, tc.name, folded, want)
			}
			if ok := check[tc.name]; ok != nil {
				for _, tu := range got.Tuples {
					if !ok(tu[0].AsInt(), tu[1]) {
						t.Fatalf("%s %s: row %v disagrees with refimpl", prof.Name, tc.name, tu)
					}
				}
			}
		}
	}
	// PageRank against refimpl (the Fig. 3 form leaves nodes without
	// in-edges at 0, so only the dangling-complete form compares).
	pr := refimpl.PageRank(g, 0.85, 8)
	eng := engine.New(engine.OracleLike())
	loadGraphDB(t, eng, g)
	out, _, err := Run(eng, algos.PageRankSQL(g.N, 8, 0.85))
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range out.Tuples {
		if d := math.Abs(tu[1].AsFloat() - pr[tu[0].AsInt()]); d > 1e-9 {
			t.Fatalf("PR[%v] = %v, refimpl %v", tu[0], tu[1], pr[tu[0].AsInt()])
		}
	}
}

package graphsql

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// matchDB loads a small weighted digraph with alternative paths (so
// shortest-path answers differ from hop counts) and defines a property
// graph pg over the V/E tables.
func matchDB(t *testing.T, profile string) *DB {
	t.Helper()
	db, err := Open(profile)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(5, true)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 3, 10)
	if err := db.LoadEdges("E", g); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadNodes("V", g, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.Query(ctx, `create property graph pg (
		vertex tables (V key (ID)),
		edge tables (E source key (F) references V destination key (T) references V))`); err != nil {
		t.Fatal(err)
	}
	return db
}

// diffProfiles are the profiles the acceptance criteria pin: the MATCH
// compilation must be profile-independent, producing byte-identical
// results to hand-written SQL under each optimizer model.
var diffProfiles = []string{"oracle", "db2", "postgres"}

// queryString runs text and returns the result relation's String().
func queryString(t *testing.T, db *DB, text string) string {
	t.Helper()
	res, err := db.Query(context.Background(), text)
	if err != nil {
		t.Fatalf("query %q: %v", text, err)
	}
	if res.Rows == nil {
		t.Fatalf("query %q: no rows", text)
	}
	return res.Rows.String()
}

// TestMatchDifferentialTC: unbounded {1,} MATCH against the hand-written
// transitive closure (the paper's TC query), byte-identical output.
func TestMatchDifferentialTC(t *testing.T) {
	for _, profile := range diffProfiles {
		t.Run(profile, func(t *testing.T) {
			db := matchDB(t, profile)
			got := queryString(t, db, `select * from graph_table(pg
				match (a)-[e]->{1,}(b)
				columns (a.ID F, b.ID T))`)
			want := queryString(t, db, `
				with TC(F, T) as (
				  (select F, T from E)
				  union all
				  (select TC.F, E.T from TC, E where TC.T = E.F))
				select F, T from TC`)
			if got != want {
				t.Fatalf("TC mismatch:\n--- match ---\n%s\n--- sql ---\n%s", got, want)
			}
		})
	}
}

// TestMatchDifferentialReachability: source-filtered {1,} MATCH (a BFS
// reachability query) against the hand-written seeded recursion — the
// source predicate must push into the seed branch.
func TestMatchDifferentialReachability(t *testing.T) {
	for _, profile := range diffProfiles {
		t.Run(profile, func(t *testing.T) {
			db := matchDB(t, profile)
			got := queryString(t, db, `select * from graph_table(pg
				match (a)-[e]->{1,}(b)
				where a.ID = 0
				columns (a.ID F, b.ID T))`)
			want := queryString(t, db, `
				with R(F, T) as (
				  (select F, T from E where F = 0)
				  union all
				  (select R.F, E.T from R, E where R.T = E.F))
				select F, T from R`)
			if got != want {
				t.Fatalf("reachability mismatch:\n--- match ---\n%s\n--- sql ---\n%s", got, want)
			}
		})
	}
}

// TestMatchDifferentialShortest: ANY SHORTEST against the paper's
// hand-written SSSP (union by update + least/min relaxation),
// byte-identical including the 1e18 unreachable sentinel rows.
func TestMatchDifferentialShortest(t *testing.T) {
	for _, profile := range diffProfiles {
		t.Run(profile, func(t *testing.T) {
			db := matchDB(t, profile)
			got := queryString(t, db, `select * from graph_table(pg
				match any shortest (a)-[e]->(b)
				where a.ID = 0
				columns (b.ID ID, path_cost() dist))`)
			want := queryString(t, db, `
				with
				D(ID, dist) as (
				  (select ID, 0.0 from V where ID = 0)
				  union all
				  (select ID, 1e18 from V where ID <> 0)
				  union by update ID
				  (select D.ID, least(D.dist, s.nd) from D,
				     (select E.T tid, min(dist + ew) nd from D, E where D.ID = E.F group by E.T) s
				   where D.ID = s.tid))
				select ID, dist from D`)
			if got != want {
				t.Fatalf("shortest mismatch:\n--- match ---\n%s\n--- sql ---\n%s", got, want)
			}
			// Spot-check: node 3 via 0→1→2→3 costs 3, not 0→1→3 (11) or
			// 0→2→3 (6); node 4 is unreachable (sentinel).
			res, err := db.Query(context.Background(), `select * from graph_table(pg
				match any shortest (a)-[e]->(b)
				where a.ID = 0 and path_cost() < 1e18
				columns (b.ID ID, path_cost() dist)) where ID = 3`)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows.Len() != 1 || res.Rows.At(0)[1].AsFloat() != 3 {
				t.Fatalf("shortest 0→3: %v", res.Rows)
			}
		})
	}
}

// TestGraphHandleMatch: the graph-first surface shares the Query path —
// same rows, options composing (trace on a variable-length pattern).
func TestGraphHandleMatch(t *testing.T) {
	db := matchDB(t, "oracle")
	ctx := context.Background()
	h := db.Graph("pg")
	if !h.Exists() || h.Name() != "pg" {
		t.Fatalf("handle: exists=%v name=%q", h.Exists(), h.Name())
	}
	if gs := db.Graphs(); len(gs) != 1 || gs[0] != "pg" {
		t.Fatalf("Graphs() = %v", gs)
	}
	res, err := h.Match(ctx, "(a)-[e]->(b) columns (a.ID aid, b.ID bid)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 5 {
		t.Fatalf("fixed match rows = %d, want 5", res.Rows.Len())
	}
	// Same statement through the generic Query path: identical bytes.
	direct := queryString(t, db,
		"select * from graph_table(pg match (a)-[e]->(b) columns (a.ID aid, b.ID bid))")
	if res.Rows.String() != direct {
		t.Fatalf("handle/query divergence:\n%s\nvs\n%s", res.Rows.String(), direct)
	}
	// Options compose: a variable-length pattern with trace and explain.
	res, err = h.Match(ctx, "match (a)-[e]->{1,4}(b) where a.ID = 0 columns (b.ID dst)",
		WithTrace(), WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Iterations == 0 {
		t.Fatal("variable-length match returned no trace")
	}
	if !strings.Contains(res.Plan, "Δ frontier") {
		t.Fatalf("variable-length match plan lacks Δ-frontier scan:\n%s", res.Plan)
	}
	// ExplainMatch without execution.
	plan, err := h.ExplainMatch("(a)-[e]->{1,}(b) columns (a.ID s, b.ID d)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "pg__paths") {
		t.Fatalf("ExplainMatch lacks recursion: %s", plan)
	}
	// Handle to a missing graph fails cleanly at Match time.
	if _, err := db.Graph("nope").Match(ctx, "(a)-[e]->(b) columns (a.ID x)"); err == nil {
		t.Fatal("match on missing graph should fail")
	}
}

// TestMatchExplainAnalyze pins that variable-length MATCH flows through
// the same delta semi-naive machinery as hand-written WITH+: the executed
// plan shows the Δ-frontier scan, and on the oracle profile the CSR
// chooser fires for the frontier-extension join.
func TestMatchExplainAnalyze(t *testing.T) {
	db := matchDB(t, "oracle")
	report, err := db.ExplainAnalyze(context.Background(), `select * from graph_table(pg
		match (a)-[e]->{1,}(b)
		columns (a.ID F, b.ID T))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Δ frontier", "via csr"} {
		if !strings.Contains(report, want) {
			t.Fatalf("variable-length MATCH report missing %q:\n%s", want, report)
		}
	}
}

// TestMatchExplainAnalyzeGolden pins the full EXPLAIN ANALYZE report for
// one fixed-length and one variable-length MATCH on the oracle profile:
// the fixed pattern must read as a plain join tree over the edge table,
// the variable-length one as the recursive procedure with Δ-frontier
// scans and the CSR-backed frontier-extension join, and a fixed pattern
// pinned to one vertex as an index lookup of its first edge under the
// CSR join.
func TestMatchExplainAnalyzeGolden(t *testing.T) {
	for _, tc := range []struct {
		name, query string
	}{
		{"match_fixed", `select * from graph_table(pg
			match (a)-[e1]->(b)-[e2]->(c)
			columns (a.ID aid, c.ID cid))`},
		{"match_varlen", `select * from graph_table(pg
			match (a)-[e]->{1,}(b)
			columns (a.ID F, b.ID T))`},
		{"match_pinned", `select * from graph_table(pg
			match (a)-[e1]->(b)-[e2]->(c) where a.ID = 0
			columns (c.ID cid))`},
		// The Bellman-Ford step folds its join and min-plus group-by into
		// one agg-join over E's weighted CSR.
		{"match_shortest", `select * from graph_table(pg
			match any shortest (a)-[e]->(b) where a.ID = 0
			columns (b.ID ID, path_cost() dist))`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := matchDB(t, "oracle")
			// One read of E since loading: the evidence of reuse the
			// lookup rule asks for before it builds E's CSR.
			if _, err := db.Query(context.Background(), "select count(*) from E"); err != nil {
				t.Fatal(err)
			}
			report, err := db.ExplainAnalyze(context.Background(), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			got := normalizeReport(report)
			path := filepath.Join("testdata", tc.name+"_oracle.golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test ./graphsql -run MatchExplainAnalyzeGolden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

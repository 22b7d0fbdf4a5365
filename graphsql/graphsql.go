// Package graphsql is the public API of the All-in-One reproduction: an
// embedded relational engine (with Oracle-, DB2-, and PostgreSQL-like
// profiles) that answers plain SQL and the paper's enhanced recursive WITH
// (WITH+) over graphs stored as relations, plus the catalog of built-in
// graph algorithms, datasets, and specialized-engine baselines.
//
// Quick start:
//
//	db, _ := graphsql.Open("oracle")
//	g := graphsql.MustGenerate("WV", 1000, 42)
//	db.LoadEdges("E", g)
//	db.LoadNodes("V", g, nil)
//	res, _ := db.Query(context.Background(), `with TC(F, T) as (
//	    (select F, T from E)
//	    union all
//	    (select TC.F, E.T from TC, E where TC.T = E.F)
//	    maxrecursion 4)
//	  select F, T from TC`)
//	fmt.Println(res.Rows.Len())
//
// Every statement runs under a context (cancellation, deadlines) and takes
// per-call options: WithLimits for resource budgets, WithObserver for
// per-operator execution spans, WithTrace for the WITH+ iteration trace,
// and WithExplain for an EXPLAIN ANALYZE report. See Query.
package graphsql

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/algos"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/withplus"
)

// Re-exported core types, so callers work with one package.
type (
	// Graph is a weighted directed graph (see Graph.EdgeRelation and
	// Graph.NodeRelation for the relational views).
	Graph = graph.Graph
	// Relation is a materialized query result.
	Relation = relation.Relation
	// Params carries per-algorithm knobs (source node, damping factor,
	// iteration counts, ...).
	Params = algos.Params
	// Result is an algorithm run with per-iteration traces.
	Result = algos.Result
	// Algorithm describes one built-in graph algorithm (a row of the
	// paper's Table 2).
	Algorithm = algos.Algorithm
	// Dataset describes one of the paper's 9 SNAP datasets plus its
	// scaled synthetic generator.
	Dataset = dataset.Info
	// Limits are the per-statement resource budgets (deadline, row budget,
	// memory budget) enforced by the statement governor; see DB.SetLimits
	// and WithLimits.
	Limits = govern.Limits
	// Trace records per-iteration progress of a WITH+ execution; see
	// WithTrace.
	Trace = withplus.Trace
	// CountersSnapshot is a point-in-time copy of the engine's operator
	// counters; see DB.Stats.
	CountersSnapshot = engine.CountersSnapshot
)

// DB is one embedded RDBMS instance, or one session of a shared Pool.
// Statements on a single DB are serialized: one DB runs one statement at a
// time, so per-statement options (limits, observers) never leak across
// concurrent callers. For parallel query streams over shared data, open a
// Pool and give each client its own Session; for fully independent
// databases, Open several DBs.
type DB struct {
	mu     sync.Mutex
	eng    *engine.Engine
	closed bool
}

// Open creates a database with the named profile: "oracle", "db2",
// "postgres" (temp-table indexes built, as in the paper's main runs), or
// "postgres-noindex". An unknown name returns an error matching
// ErrUnknownProfile.
func Open(profile string) (*DB, error) {
	eng, err := profileEngine(profile)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// profileEngine maps a profile name to a fresh root engine.
func profileEngine(profile string) (*engine.Engine, error) {
	switch strings.ToLower(profile) {
	case "oracle":
		return engine.New(engine.OracleLike()), nil
	case "db2":
		return engine.New(engine.DB2Like()), nil
	case "postgres", "postgresql":
		return engine.New(engine.PostgresLike(true)), nil
	case "postgres-noindex":
		return engine.New(engine.PostgresLike(false)), nil
	}
	return nil, fmt.Errorf("%w: %q (want oracle, db2, postgres, postgres-noindex)", ErrUnknownProfile, profile)
}

// Profiles lists the available profile names.
func Profiles() []string {
	return []string{"oracle", "db2", "postgres", "postgres-noindex"}
}

// LoadEdges stores g's edges as base table name(F, T, ew) and analyzes it.
func (db *DB) LoadEdges(name string, g *Graph) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, err := db.eng.LoadBase(name, g.EdgeRelation())
	return err
}

// LoadNodes stores g's nodes as base table name(ID, vw); weight may be nil
// (all zeros) — pass a closure to seed per-node values.
func (db *DB) LoadNodes(name string, g *Graph, weight func(i int) float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, err := db.eng.LoadBase(name, g.NodeRelation(weight))
	return err
}

// LoadRelation stores an arbitrary relation as a base table, so graphs can
// be queried together with ordinary application tables — the data
// management motivation of the paper's introduction.
func (db *DB) LoadRelation(name string, r *Relation) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, err := db.eng.LoadBase(name, r)
	return err
}

// SetLimits installs the session's default per-statement resource budgets:
// a deadline, a row budget (tuples processed by join probes), and a memory
// budget (join intermediates plus resident temp-table pages). Exceeding
// one returns an error matching ErrBudgetExceeded instead of letting the
// statement run away. The zero Limits removes all budgets; WithLimits
// overrides them for a single call.
func (db *DB) SetLimits(l Limits) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.eng.Limits = l
}

// Limits returns the session's default per-statement budgets.
func (db *DB) Limits() Limits {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.Limits
}

// Stats returns a point-in-time snapshot of the engine's operator counters
// (joins, group-bys, index and CSR builds and cache hits, tuples
// materialized).
func (db *DB) Stats() CountersSnapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.Cnt.Snapshot()
}

// MetricsJSON renders the process-wide metrics registry (statement counts
// and latencies, governor trips, temp-table footprint) as indented JSON.
// The registry is shared by every DB in the process.
func MetricsJSON() ([]byte, error) { return obs.Global.JSON() }

// TableInfo describes one catalog table.
type TableInfo struct {
	Name   string
	Schema string
	Rows   int
	Temp   bool
}

// Tables lists the catalog (base and temporary tables) sorted by name.
func (db *DB) Tables() []TableInfo {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []TableInfo
	for _, n := range db.eng.Cat.Names() {
		t, err := db.eng.Cat.Get(n)
		if err != nil {
			// Dropped between listing and lookup by a concurrent session.
			continue
		}
		name, sch, rows, temp := t.Info()
		out = append(out, TableInfo{Name: name, Schema: sch, Rows: rows, Temp: temp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TempTables lists the names of the temporary tables currently in the
// catalog (empty after well-behaved statements — recursive working tables
// are dropped when their statement ends).
func (db *DB) TempTables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.Cat.TempNames()
}

// HasTable reports whether the catalog holds a table with this name.
func (db *DB) HasTable(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.Cat.Has(name)
}

// Recover rebuilds committed base-table state from the write-ahead log, as
// a crash restart would: mutations after the last commit marker (and
// anything after a physical corruption point) are discarded, temporary
// tables vanish, and the log is checkpointed. See engine.(*Engine).Recover.
func (db *DB) Recover() (*RecoveryReport, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.Recover()
}

// Explain renders the execution strategy without running the statement:
// for a WITH+ statement, the compiled SQL/PSM procedure (the paper's
// Algorithm 1 output); for a plain SELECT, the physical plan (scans, join
// algorithms per the profile, filters, aggregation). For executed plans
// with actual rows and timings, see ExplainAnalyze.
func (db *DB) Explain(text string) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if isWith(text) {
		p, err := withplus.Prepare(db.eng, text)
		if err != nil {
			return "", parseErr(err)
		}
		defer p.Cleanup()
		return p.Proc.String(), nil
	}
	stmt, err := sql.ParseStatement(text)
	if err != nil {
		return "", parseErr(err)
	}
	stmt, err = sql.ExpandStatement(db.eng, stmt)
	if err != nil {
		return "", parseErr(err)
	}
	switch s := stmt.(type) {
	case *sql.QueryStmt:
		return sql.NewExec(db.eng).ExplainSelect(s.Select)
	case *sql.WithQueryStmt:
		// A variable-length MATCH lifted into a WITH+ recursion explains
		// like hand-written WITH+: the compiled procedure.
		p, err := withplus.PrepareStmt(db.eng, s.With)
		if err != nil {
			return "", parseErr(err)
		}
		defer p.Cleanup()
		return p.Proc.String(), nil
	}
	return "", fmt.Errorf("graphsql: Explain supports SELECT and WITH+ statements only")
}

func isWith(text string) bool {
	for _, line := range strings.Fields(strings.ToLower(text)) {
		return line == "with"
	}
	return false
}

// algosByCode resolves a Table 2 algorithm code.
func algosByCode(code string) (Algorithm, error) { return algos.ByCode(code) }

// Algorithms lists the built-in algorithms in the paper's order.
func Algorithms() []Algorithm { return algos.Registry() }

// Datasets lists the paper's 9 datasets (Table 3).
func Datasets() []Dataset { return dataset.All() }

// Generate builds the scaled synthetic stand-in of a dataset by its code
// ("YT", "LJ", "OK", "WV", "TT", "WG", "WT", "GP", "PC").
func Generate(code string, nodes int, seed int64) (*Graph, error) {
	d, err := dataset.ByCode(code)
	if err != nil {
		return nil, err
	}
	return d.Generate(nodes, seed), nil
}

// MustGenerate is Generate that panics on an unknown code.
func MustGenerate(code string, nodes int, seed int64) *Graph {
	g, err := Generate(code, nodes, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// NewGraph returns an empty graph with n nodes, for building custom inputs.
func NewGraph(n int, directed bool) *Graph { return graph.New(n, directed) }

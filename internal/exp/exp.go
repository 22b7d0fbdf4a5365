// Package exp regenerates every table and figure of the paper's evaluation
// (Section 7 and the appendix experiments) on the scaled synthetic
// datasets: the same rows and series, with measured milliseconds in place
// of the authors' testbed numbers.
package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/algos"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ra"
)

// Table is one experiment's output: a title, column headers, and rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	b.WriteString("== " + t.Title + " ==\n")
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Config controls experiment scale; zero values select paper-faithful
// defaults at bench scale.
type Config struct {
	Nodes int   // nodes per scaled dataset (default dataset.DefaultBenchNodes)
	Seed  int64 // generator seed
	Iters int   // fixed iterations for PR/HITS/LP (paper: 15)
	// NoDelta, NoCSR, NoVector and NoWCOJ set the engine's DisableDelta,
	// DisableCSR, DisableVectorized and DisableWCOJ (documented there). Each
	// selects the off side of one ablation experiment — delta, csr, vector,
	// motif — with byte-identical results; cmd/bench exposes them as
	// -nodelta, -nocsr, -novector and -nowcoj.
	NoDelta, NoCSR, NoVector, NoWCOJ bool
	// Observe attaches a counting span sink to every experiment engine, so
	// the observability hooks' overhead can be measured against an
	// unobserved run of the same experiment. cmd/bench exposes it as
	// -observe.
	Observe bool
}

func (c Config) defaults() Config {
	if c.Nodes == 0 {
		c.Nodes = dataset.DefaultBenchNodes
	}
	if c.Iters == 0 {
		c.Iters = 15
	}
	return c
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// profiles returns the three engine profiles in presentation order.
func profiles() []engine.Profile { return engine.Profiles() }

// newEngine builds an engine for an experiment run, applying the config's
// executor knobs uniformly so every table and figure can be regenerated
// under any of them.
func newEngine(prof engine.Profile, cfg Config) *engine.Engine {
	e := engine.New(prof)
	e.DisableDelta = cfg.NoDelta
	e.DisableCSR = cfg.NoCSR
	e.DisableVectorized = cfg.NoVector
	e.DisableWCOJ = cfg.NoWCOJ
	if cfg.Observe {
		e.SetObserver(&obs.CountingSink{})
	}
	return e
}

// Table1 reproduces the WITH-clause feature matrix.
func Table1() *Table {
	t := &Table{
		Title:  "Table 1: The WITH Clause Supported by RDBMSs",
		Header: []string{"Cat", "Feature", "PostgreSQL", "DB2", "Oracle"},
	}
	pg, db2, or := engine.PostgresLike(true).Features, engine.DB2Like().Features, engine.OracleLike().Features
	mark := func(v string) string {
		switch v {
		case "yes":
			return "yes"
		case "no":
			return "no"
		default:
			return "n/a"
		}
	}
	row := func(cat, name string, f func(engine.FeatureMatrix) string) {
		t.Rows = append(t.Rows, []string{cat, name, mark(f(pg)), mark(f(db2)), mark(f(or))})
	}
	row("A", "Linear Recursion", func(f engine.FeatureMatrix) string { return f.LinearRecursion })
	row("A", "Nonlinear Recursion", func(f engine.FeatureMatrix) string { return f.NonlinearRecursion })
	row("A", "Mutual Recursion", func(f engine.FeatureMatrix) string { return f.MutualRecursion })
	row("B", "Initial Step (multiple queries)", func(f engine.FeatureMatrix) string { return f.MultipleInitialQueries })
	row("B", "Recursive Step (multiple queries)", func(f engine.FeatureMatrix) string { return f.MultipleRecursiveQueries })
	row("C", "Set ops between initial queries", func(f engine.FeatureMatrix) string { return f.SetOpsBetweenInitial })
	row("C", "Set ops across initial & recursive", func(f engine.FeatureMatrix) string { return f.SetOpsAcrossInitRec })
	row("C", "Set ops between recursive queries", func(f engine.FeatureMatrix) string { return f.SetOpsBetweenRec })
	row("D", "Negation", func(f engine.FeatureMatrix) string { return f.Negation })
	row("D", "Aggregate functions", func(f engine.FeatureMatrix) string { return f.AggregateFunctions })
	row("D", "group by, having", func(f engine.FeatureMatrix) string { return f.GroupByHaving })
	row("D", "partition by", func(f engine.FeatureMatrix) string { return f.PartitionBy })
	row("D", "distinct", func(f engine.FeatureMatrix) string { return f.Distinct })
	row("D", "General functions", func(f engine.FeatureMatrix) string { return f.GeneralFunctions })
	row("D", "Analytical functions", func(f engine.FeatureMatrix) string { return f.AnalyticalFunctions })
	row("D", "Subqueries without recursive ref", func(f engine.FeatureMatrix) string { return f.SubqueriesNoRecRef })
	row("D", "Subqueries with recursive ref", func(f engine.FeatureMatrix) string { return f.SubqueriesRecRef })
	row("E", "Infinite loop detection", func(f engine.FeatureMatrix) string { return f.InfiniteLoopDetection })
	row("E", "Cycle detection", func(f engine.FeatureMatrix) string { return f.CycleDetection })
	row("E", "cycle clause", func(f engine.FeatureMatrix) string { return f.CycleClause })
	row("E", "search clause", func(f engine.FeatureMatrix) string { return f.SearchClause })
	return t
}

// Table2 reproduces the graph-algorithm matrix.
func Table2() *Table {
	t := &Table{
		Title:  "Table 2: Graph Algorithms",
		Header: []string{"Graph Algorithm", "Aggregation", "linear", "nonlinear", "operations"},
	}
	tick := func(b bool) string {
		if b {
			return "x"
		}
		return ""
	}
	for _, a := range algos.Registry() {
		t.Rows = append(t.Rows, []string{
			a.Name, a.Agg, tick(a.Linear), tick(a.Nonlinear), strings.Join(a.Ops, ", "),
		})
	}
	return t
}

// Table3 reproduces the dataset table, adding the scaled sizes actually
// used by the benchmarks.
func Table3(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		Title:  "Table 3: The Real Datasets (paper statistics + scaled stand-ins)",
		Header: []string{"Graph", "|V|", "|E|", "Diameter", "Avg.Degree", "scaled |V|", "scaled |E|", "scaled avg"},
	}
	for _, d := range dataset.All() {
		g := d.Generate(cfg.Nodes, cfg.Seed)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (%s)", d.Name, d.Code),
			fmt.Sprintf("%d", d.Nodes), fmt.Sprintf("%d", d.Edges),
			fmt.Sprintf("%d", d.Diameter), fmt.Sprintf("%.2f", d.AvgDeg),
			fmt.Sprintf("%d", g.N), fmt.Sprintf("%d", g.M()),
			fmt.Sprintf("%.2f", g.AvgDegree()),
		})
	}
	return t
}

// UnionByUpdateTable reproduces Tables 4 and 5: the four union-by-update
// implementations running PageRank for cfg.Iters iterations on the given
// dataset, across the three profiles.
func UnionByUpdateTable(code string, cfg Config) (*Table, error) {
	cfg = cfg.defaults()
	d, err := dataset.ByCode(code)
	if err != nil {
		return nil, err
	}
	g := d.Generate(cfg.Nodes, cfg.Seed)
	t := &Table{
		Title:  fmt.Sprintf("Tables 4/5: union-by-update implementations, PageRank x%d on %s", cfg.Iters, d.Name),
		Header: []string{"Time (ms)", "Oracle", "DB2", "PostgreSQL"},
	}
	impls := []ra.UBUImpl{ra.UBUUpdateFrom, ra.UBUMerge, ra.UBUFullOuter, ra.UBUReplace}
	for _, impl := range impls {
		row := []string{impl.String()}
		for _, prof := range profiles() {
			// The paper's support matrix: update-from is PostgreSQL-only,
			// merge is Oracle/DB2-only (PostgreSQL 9.4 predates MERGE).
			if (impl == ra.UBUUpdateFrom && prof.Name != "postgres") ||
				(impl == ra.UBUMerge && prof.Name == "postgres") {
				row = append(row, "-")
				continue
			}
			e := newEngine(prof, cfg)
			start := time.Now()
			if _, err := algos.RunPageRank(e, g, algos.Params{Iters: cfg.Iters, UBU: impl}); err != nil {
				return nil, err
			}
			row = append(row, ms(time.Since(start)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AntiJoinTable reproduces Tables 6 and 7: the three anti-join
// implementations running TopoSort on the given dataset across profiles.
func AntiJoinTable(code string, cfg Config) (*Table, error) {
	cfg = cfg.defaults()
	d, err := dataset.ByCode(code)
	if err != nil {
		return nil, err
	}
	// TopoSort needs an acyclic orientation; the scaled DAG mirrors the
	// dataset's size.
	g := graph.GenerateDAG(cfg.Nodes, int(float64(cfg.Nodes)*d.AvgDeg), cfg.Seed+int64(d.Code[0]))
	t := &Table{
		Title:  fmt.Sprintf("Tables 6/7: anti-join implementations, TopoSort on %s (DAG orientation)", d.Name),
		Header: []string{"Time (ms)", "Oracle", "DB2", "PostgreSQL"},
	}
	for _, impl := range []ra.AntiJoinImpl{ra.AntiNotExists, ra.AntiLeftOuter, ra.AntiNotIn} {
		row := []string{impl.String()}
		for _, prof := range profiles() {
			e := newEngine(prof, cfg)
			start := time.Now()
			if _, err := algos.RunTopoSort(e, g, algos.Params{Anti: impl}); err != nil {
				return nil, err
			}
			row = append(row, ms(time.Since(start)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// algoParams returns the paper's per-dataset parameters: k=10 for the
// dense Orkut, 5 elsewhere; KS with 3 labels, depth 4; 15 iterations for
// PR/HITS/LP.
func algoParams(code string, cfg Config) algos.Params {
	k := 5
	if code == "OK" {
		k = 10
	}
	return algos.Params{Iters: cfg.Iters, K: k, Depth: 4, Query: []int32{0, 1, 2}, Seed: cfg.Seed}
}

// GraphAlgosTable reproduces Fig. 7 (undirected=true: 9 algorithms × YT,
// LJ, OK) or Fig. 8 (undirected=false: 10 algorithms × the 6 directed
// datasets): one sub-table per dataset, rows = algorithms, columns =
// profiles, cells = milliseconds.
func GraphAlgosTable(undirected bool, cfg Config) ([]*Table, error) {
	cfg = cfg.defaults()
	var sets []dataset.Info
	var figure string
	if undirected {
		sets = dataset.Undirected()
		figure = "Fig. 7"
	} else {
		sets = dataset.DirectedSets()
		figure = "Fig. 8"
	}
	var out []*Table
	for _, d := range sets {
		g := d.Generate(cfg.Nodes, cfg.Seed)
		t := &Table{
			Title:  fmt.Sprintf("%s: graph algorithms on %s (scaled: %d nodes, %d edges)", figure, d.Name, g.N, g.M()),
			Header: []string{"Algorithm", "Oracle (ms)", "DB2 (ms)", "PostgreSQL (ms)"},
		}
		for _, a := range algos.Benchmarked() {
			if a.DirectedOnly && !d.Directed {
				continue
			}
			row := []string{a.Code}
			for _, prof := range profiles() {
				e := newEngine(prof, cfg)
				p := algoParams(d.Code, cfg)
				start := time.Now()
				if _, err := a.Run(e, g, p); err != nil {
					return nil, fmt.Errorf("%s on %s/%s: %w", a.Code, d.Code, prof.Name, err)
				}
				row = append(row, ms(time.Since(start)))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out, nil
}

// CSV renders the table as RFC-4180-style comma-separated values (cells
// containing commas or quotes are quoted), for plotting the figure series
// outside Go.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

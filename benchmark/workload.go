package main

import (
	"fmt"
	"strconv"
	"strings"
)

// workload is one served traffic mix: a repeating cycle of statement
// classes over one dataset size, driven by a fixed number of closed-loop
// clients. The cycle fixes the class shares, so they never change with the
// seed; only the vertex ids inside the statements do.
type workload struct {
	name    string
	why     string
	nodes   int // WV node count at scale 1
	clients int
	cycle   []string
	// edges and graph name the edge table and property graph the classes
	// address: the loaded base table E / pg, or the live copy L / pgl.
	edges, graph string
	// reloadEvery > 0 appends `truncate` + `insert … select` after every
	// that-many cycles, so the live table's size is a bounded sawtooth.
	reloadEvery int
	// traceCycles is the fixed length of the traced run.
	traceCycles int
}

const (
	insertRows = 16 // rows per `insert` statement
	khopDepth  = 3  // maxrecursion of the khop recursion
)

var workloads = []*workload{
	{
		name: "point", nodes: 2000, clients: 2, edges: "E", graph: "pg", traceCycles: 100,
		why: "sub-millisecond lookups: fixed per-statement cost (wire, parse, MATCH lowering, snapshot, serialization) dominates, operators are the smallest share",
		cycle: []string{"lookup", "vertex", "lookup", "onehop", "lookup",
			"lookup", "vertex", "lookup", "onehop", "lookup"},
	},
	{
		name: "traverse", nodes: 1000, clients: 1, edges: "E", graph: "pg", traceCycles: 10,
		why: "recursion and multi-hop joins do the work (WITH+ loop, delta frontier, CSR joins, union-by-update); results are small so wire cost is negligible",
		cycle: []string{"reach", "khop", "reach", "shortest", "khop", "reach", "reach", "khop", "shortest", "hop2",
			"reach", "khop", "reach", "shortest", "khop", "reach", "reach", "khop", "shortest", "hop2"},
	},
	{
		name: "analytics", nodes: 1000, clients: 1, edges: "E", graph: "pg", traceCycles: 3,
		why:   "whole-graph statements (PageRank x15, WCC, triangle count, group-by, full scan): operators and result materialization dominate, parse and framing are noise",
		cycle: []string{"pr", "scan", "pr", "filteragg", "pr", "wcc", "pr", "scan", "pr", "triangle"},
	},
	{
		name: "ingest", nodes: 1000, clients: 1, edges: "L", graph: "pgl", traceCycles: 30, reloadEvery: 64,
		why: "reads interleaved with 16-row inserts into a live table: every write invalidates the version-keyed index/CSR/materialization caches the other workloads hit warm",
		cycle: []string{"insert", "lookup", "onehop", "insert", "lookup",
			"lookup", "onehop", "insert", "lookup", "khop"},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// classes lists the distinct classes of the workload in first-use order,
// the reload class included.
func (w *workload) classes() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range w.cycle {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	if w.reloadEvery > 0 {
		out = append(out, "reload")
	}
	return out
}

// arc is one weighted out-edge.
type arc struct {
	to int32
	w  float64
}

// statement is one generated request.
type statement struct {
	class string
	verb  string // wire verb: query, match, run
	arg   string // wire argument (for match: "<graph> <pattern>")
	id    int32  // the vertex the statement is pinned to, when it has one
	// rows are the edges an insert adds (from → arc), in statement order.
	from []int32
	rows []arc
}

// lcg is the seeded statement-id source (Knuth's MMIX constants).
type lcg uint64

func newLCG(seed int64, stream int) lcg {
	l := lcg(uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + 1)
	l.next()
	return l
}

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 33
}

// generator yields one client's statement stream: the workload's cycle,
// forever, with ids drawn from the client's LCG.
type generator struct {
	wl      *workload
	n       int // node count ids are drawn from
	rng     lcg
	pos     int
	cycles  int
	pending []statement
}

func newGenerator(wl *workload, n int, seed int64, client int) *generator {
	return &generator{wl: wl, n: n, rng: newLCG(seed, client)}
}

func (g *generator) id() int32 { return int32(g.rng.next() % uint64(g.n)) }

func (g *generator) next() statement {
	if len(g.pending) > 0 {
		st := g.pending[0]
		g.pending = g.pending[1:]
		return st
	}
	st := g.build(g.wl.cycle[g.pos])
	g.pos++
	if g.pos == len(g.wl.cycle) {
		g.pos = 0
		g.cycles++
		if g.wl.reloadEvery > 0 && g.cycles%g.wl.reloadEvery == 0 {
			g.pending = reloadStatements(g.wl.edges)
		}
	}
	return st
}

// atCycleEnd reports whether the statement next returned last completed a
// whole cycle (the reload that follows a cycle belongs to it).
func (g *generator) atCycleEnd() bool { return g.pos == 0 && len(g.pending) == 0 }

// reloadStatements resets the live table to a copy of E.
func reloadStatements(table string) []statement {
	return []statement{
		{class: "reload", verb: "query", arg: "truncate table " + table},
		{class: "reload", verb: "query", arg: "insert into " + table + " select F, T, ew from E"},
	}
}

func (g *generator) build(class string) statement {
	e, pg := g.wl.edges, g.wl.graph
	st := statement{class: class, verb: "query"}
	switch class {
	case "lookup":
		st.id = g.id()
		st.arg = fmt.Sprintf("select T, ew from %s where F = %d", e, st.id)
	case "vertex":
		st.id = g.id()
		st.arg = fmt.Sprintf("select vw from V where ID = %d", st.id)
	case "onehop":
		st.id = g.id()
		st.verb = "match"
		st.arg = fmt.Sprintf("%s (a)-[e]->(b) where a.ID = %d columns (b.ID dst)", pg, st.id)
	case "hop2":
		st.id = g.id()
		st.verb = "match"
		st.arg = fmt.Sprintf("%s (a)-[e1]->(b)-[e2]->(c) where a.ID = %d columns (c.ID dst)", pg, st.id)
	case "reach":
		st.id = g.id()
		st.verb = "match"
		st.arg = fmt.Sprintf("%s (a)-[e]->{1,}(b) where a.ID = %d columns (b.ID dst)", pg, st.id)
	case "shortest":
		st.id = g.id()
		st.verb = "match"
		st.arg = fmt.Sprintf("%s any shortest (a)-[e]->(b) where a.ID = %d and path_cost() < 1e18 columns (b.ID ID, path_cost() dist)", pg, st.id)
	case "khop":
		// `distinct` in the seed branch: on a table with duplicate edges the
		// engine keeps the seed as a bag and only the recursive steps as a
		// set, so without it the count would depend on that quirk.
		st.id = g.id()
		st.arg = fmt.Sprintf("with R(T) as ((select distinct T from %[1]s where F = %[2]d) union all "+
			"(select %[1]s.T from R, %[1]s where R.T = %[1]s.F) maxrecursion %[3]d) select count(*) from R", e, st.id, khopDepth)
	case "pr":
		st.verb, st.arg = "run", "PR"
	case "wcc":
		st.verb, st.arg = "run", "WCC"
	case "triangle":
		st.arg = "select count(*) from E e1, E e2, E e3 where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F"
	case "filteragg":
		st.arg = "select F, count(*), sum(ew) from E where ew > 0.5 group by F"
	case "scan":
		st.arg = "select F, T, ew from E"
	case "insert":
		var b strings.Builder
		b.WriteString("insert into " + e + " values ")
		for i := 0; i < insertRows; i++ {
			f, t := g.id(), g.id()
			// Weights are odd multiples of 1/16: never integral (the literal
			// stays a float) and exact in binary, so the shortest decimal
			// form round-trips through the SQL literal.
			w := float64(1+2*(g.rng.next()%16)) / 16
			st.from = append(st.from, f)
			st.rows = append(st.rows, arc{to: t, w: w})
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %s)", f, t, strconv.FormatFloat(w, 'g', -1, 64))
		}
		st.arg = b.String()
	default:
		panic("benchmark: unknown statement class " + class)
	}
	return st
}

// onePerClass returns one statement of every class of the workload (both
// statements of a reload), the pass that warms a freshly loaded system.
func onePerClass(wl *workload, g *generator) []statement {
	var out []statement
	for _, class := range wl.classes() {
		if class == "reload" {
			out = append(out, reloadStatements(wl.edges)...)
		} else {
			out = append(out, g.build(class))
		}
	}
	return out
}

// write reports whether the statement changes the live table.
func (st statement) write() bool { return st.class == "insert" || st.class == "reload" }

// line renders the statement as its wire request, for stream comparisons.
func (st statement) line() string { return st.verb + " " + st.arg }

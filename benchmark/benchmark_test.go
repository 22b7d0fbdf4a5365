package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/graphsql"
)

func stream(wl *workload, seed int64, client, n int) []statement {
	g := newGenerator(wl, wl.nodes, seed, client)
	out := make([]statement, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// Same seed → byte-identical stream; another seed → other ids, same classes.
func TestStreamIsSeeded(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := stream(wl, 7, 0, 1500), stream(wl, 7, 0, 1500), stream(wl, 8, 0, 1500)
		differ := false
		for i := range a {
			if a[i].line() != b[i].line() {
				t.Fatalf("%s: statement %d differs under the same seed:\n%s\n%s", wl.name, i, a[i].line(), b[i].line())
			}
			if a[i].class != c[i].class {
				t.Fatalf("%s: statement %d changes class with the seed: %s vs %s", wl.name, i, a[i].class, c[i].class)
			}
			differ = differ || a[i].line() != c[i].line()
		}
		if !differ && wl.name != "analytics" { // analytics statements carry no id
			t.Errorf("%s: seeds 7 and 8 generate the same stream", wl.name)
		}
		if other := stream(wl, 7, 1, 50); wl.name != "analytics" && reflect.DeepEqual(a[:50], other) {
			t.Errorf("%s: clients 0 and 1 share one id stream", wl.name)
		}
	}
}

func TestCycleTables(t *testing.T) {
	want := map[string]map[string]int{
		"point":     {"lookup": 6, "vertex": 2, "onehop": 2},
		"traverse":  {"khop": 6, "reach": 8, "shortest": 4, "hop2": 2},
		"analytics": {"pr": 5, "wcc": 1, "triangle": 1, "filteragg": 1, "scan": 2},
		"ingest":    {"insert": 3, "lookup": 4, "onehop": 2, "khop": 1},
	}
	clients := map[string]int{"point": 2, "traverse": 1, "analytics": 1, "ingest": 1}
	if len(workloads) != len(want) {
		t.Fatalf("have %d workloads, want %d", len(workloads), len(want))
	}
	for _, wl := range workloads {
		got := map[string]int{}
		for _, c := range wl.cycle {
			got[c]++
		}
		if !reflect.DeepEqual(got, want[wl.name]) {
			t.Errorf("%s: cycle shares %v, want %v", wl.name, got, want[wl.name])
		}
		if wl.clients != clients[wl.name] {
			t.Errorf("%s: %d clients, want %d", wl.name, wl.clients, clients[wl.name])
		}
	}
	// The live workload reloads after every 64th cycle, and only then.
	wl := workloadByName("ingest")
	reloads := 0
	for _, st := range stream(wl, 1, 0, 64*len(wl.cycle)+2) {
		if st.class == "reload" {
			reloads++
		}
	}
	if reloads != 2 {
		t.Errorf("ingest: %d reload statements in the first 64 cycles + 2, want 2", reloads)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for p, want := range map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{3, 9}, 0.5); got != 3 {
		t.Errorf("percentile({3,9}, .5) = %v, want 3 (nearest rank)", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	w := newWindowed([]float64{12, 10, 17})
	if w.Value != 12 || w.Min != 10 || w.Max != 17 {
		t.Errorf("windowed(12,10,17) = %+v, want median 12, spread 10–17", w)
	}
}

// Two clients, three windows each between their own cycle-aligned
// boundaries: per-window rate, percentiles and allocation, and the median
// of the three as the value.
func TestTimingsSplitIntoWindows(t *testing.T) {
	sec := time.Second
	fill := func(run *clientRun, from, to time.Duration, n, latMs int, class string, bad int) {
		for i := 1; i <= n; i++ {
			run.samples = append(run.samples, sample{class: class, lat: time.Duration(latMs) * time.Millisecond,
				end: from + (to-from)*time.Duration(i)/time.Duration(n), ok: i > bad})
		}
	}
	// Client 0: windows of 1 s, 2 s, 1 s. Client 1: three windows of 2 s.
	a := clientRun{bounds: []time.Duration{2 * sec, 3 * sec, 5 * sec, 6 * sec}}
	fill(&a, 0, 2*sec, 5, 500, "x", 0) // warm-up: dropped
	fill(&a, 2*sec, 3*sec, 10, 1, "x", 0)
	fill(&a, 3*sec, 5*sec, 20, 2, "y", 1) // one wrong answer
	fill(&a, 5*sec, 6*sec, 30, 3, "x", 0)
	fill(&a, 6*sec, 7*sec, 3, 900, "x", 0) // past the last boundary: dropped
	b := clientRun{bounds: []time.Duration{2 * sec, 4 * sec, 6 * sec, 8 * sec}}
	fill(&b, 2*sec, 4*sec, 10, 10, "x", 0)
	fill(&b, 4*sec, 6*sec, 10, 10, "x", 0)
	fill(&b, 6*sec, 8*sec, 10, 10, "x", 0)
	ph := phase{clients: []clientRun{a, b}, alloc: []uint64{0, 15 << 10, 60 << 10, 140 << 10}}
	tm := ph.timings()
	if !reflect.DeepEqual(tm.WindowSamples, []int{20, 30, 40}) || tm.Samples != 90 {
		t.Fatalf("window samples %v (total %d), want [20 30 40]", tm.WindowSamples, tm.Samples)
	}
	// 10/1s + 10/2s, 19/2s + 10/2s, 30/1s + 10/2s.
	if !reflect.DeepEqual(tm.StmtPerS.Windows, []float64{15, 14.5, 35}) || tm.StmtPerS.Value != 15 {
		t.Errorf("stmt_per_s %+v, want windows [15 14.5 35], value 15", tm.StmtPerS)
	}
	if !reflect.DeepEqual(tm.P50Ms.Windows, []float64{1, 2, 3}) || tm.P50Ms.Value != 2 {
		t.Errorf("p50_ms %+v, want windows [1 2 3], value 2", tm.P50Ms)
	}
	if !reflect.DeepEqual(tm.P95Ms.Windows, []float64{10, 10, 10}) {
		t.Errorf("p95_ms windows %v, want [10 10 10]", tm.P95Ms.Windows)
	}
	// Between client 0's boundaries both clients completed 10+5, 20+10, 30+5.
	if !reflect.DeepEqual(tm.AllocKB.Windows, []float64{1, 1.5, 80.0 / 35}) {
		t.Errorf("alloc_kb_per_stmt windows %v, want [1 1.5 %v]", tm.AllocKB.Windows, 80.0/35)
	}
	if got := tm.ClassP50Ms["y"].Windows; !reflect.DeepEqual(got, []float64{2}) {
		t.Errorf("class y medians %v, want [2]", got)
	}
	if tm.ClassSamples["y"] != 20 || tm.ClassSamples["x"] != 70 {
		t.Errorf("class samples %v, want y=20 x=70", tm.ClassSamples)
	}
	if !reflect.DeepEqual(tm.WindowS, []float64{1, 2, 1}) {
		t.Errorf("window lengths %v, want client 0's [1 2 1]", tm.WindowS)
	}
}

// Self time = duration − the part of the interval covered by children:
// overlapping children count once, a child sticking out is clipped.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "stmt", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "wire", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "session", StartNs: 30, EndNs: 70}, // overlaps 2 by 10
		{ID: 4, Parent: 1, Name: "late", StartNs: 90, EndNs: 130},   // 30 outside the parent
		{ID: 5, Parent: 3, Name: "ra.join", StartNs: 35, EndNs: 45},
		{ID: 6, Parent: 3, Name: "ra.join", StartNs: 50, EndNs: 60},
	}
	want := map[int]int64{1: 100 - (30 + 30 + 10), 2: 30, 3: 40 - 20, 4: 40, 5: 10, 6: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestLayerMetricsFromSpans(t *testing.T) {
	us := int64(1000)
	spans := []span{
		{ID: 1, Name: "wire.ping", StartNs: 0, EndNs: 40 * us},
		{ID: 2, Stmt: 1, Name: "stmt", StartNs: 0, EndNs: 4000 * us},
		{ID: 3, Parent: 2, Stmt: 1, Name: "wire", StartNs: 0, EndNs: 1200 * us, Counts: map[string]int64{"rows": 10, "bytes_out": 50}},
		{ID: 4, Parent: 2, Stmt: 1, Name: "session", StartNs: 1200 * us, EndNs: 2200 * us,
			Counts: map[string]int64{"tuples_materialized": 30, "csr_cache_hits": 3, "csr_builds": 1}},
		{ID: 5, Parent: 4, Stmt: 1, Name: "ra.iteration", StartNs: 1300 * us, EndNs: 1900 * us},
		{ID: 6, Parent: 5, Stmt: 1, Name: "ra.join", StartNs: 1400 * us, EndNs: 1800 * us},
		{ID: 7, Parent: 2, Stmt: 1, Name: "decomposed", StartNs: 2200 * us, EndNs: 3200 * us, Counts: map[string]int64{"wal_bytes": 640}},
		{ID: 8, Parent: 7, Stmt: 1, Name: "sql.parse", StartNs: 2200 * us, EndNs: 2220 * us},
		{ID: 9, Parent: 7, Stmt: 1, Name: "withplus.run", StartNs: 2300 * us, EndNs: 3180 * us, Counts: map[string]int64{"iterations": 4}},
		{ID: 10, Stmt: 2, Name: "stmt", StartNs: 4000 * us, EndNs: 5000 * us, Counts: map[string]int64{"rows_written": 16}},
	}
	m := layerMetrics(spans)
	for name, want := range map[string]float64{
		"wire.rtt_us": 40, "wire.self_ms": 0.2, "wire.bytes_out_per_stmt": 25,
		"sql.parse_us": 10, "withplus.run_ms": 0.44, "withplus.iterations": 2,
		"engine.examined_per_returned": 3, "engine.csr_builds_per_stmt": 0.5,
		"ra.join_ms": 0.2, "ra.iteration_ms": 0.1, "catalog.cache_hit_ratio": 0.75,
		"storage.wal_bytes_per_row": 40, "session.self_us": 100, "trace.cover_frac": 0.9,
	} {
		if got := m[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	untraced := map[string]windowed{"": {Value: 1.0}}
	if got := overheadFrac(spans, untraced); got < 0.2-1e-9 || got > 0.2+1e-9 {
		t.Errorf("overhead_frac = %v, want 0.2", got)
	}
}

// handGraph: 0→1 0→2 1→2 2→0 2→3 3→4 1→3 (weight 1), 4→3 (2.5); 5 isolated.
func handGraph() *graphsql.Graph {
	g := graphsql.NewGraph(6, true)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {1, 3}} {
		g.AddEdge(e[0], e[1], 1)
	}
	g.AddEdge(4, 3, 2.5)
	return g
}

func handWorkload(classes ...string) *workload {
	return &workload{name: "hand", nodes: 6, clients: 1, edges: "E", graph: "pg", cycle: classes}
}

func TestOraclesOnHandGraph(t *testing.T) {
	g := handGraph()
	wl := handWorkload("lookup", "vertex", "onehop", "hop2", "reach", "khop", "shortest",
		"wcc", "triangle", "filteragg", "scan", "pr")
	o := newOracle(wl, g)
	cases := []struct {
		class string
		id    int32
		want  []string
	}{
		{"lookup", 0, []string{"1\t1", "2\t1"}},
		{"lookup", 4, []string{"3\t2.5"}},
		{"lookup", 5, nil},
		{"vertex", 3, []string{"0"}},
		{"onehop", 2, []string{"0", "3"}},
		{"hop2", 0, []string{"2", "3", "0", "3"}},
		{"hop2", 3, []string{"3"}},
		{"hop2", 5, nil},
		{"reach", 0, []string{"0", "1", "2", "3", "4"}}, // 0 lies on a cycle
		{"reach", 3, []string{"3", "4"}},
		{"reach", 5, nil},
		{"khop", 0, []string{"5"}}, // paths of 1..4 edges
		{"khop", 3, []string{"2"}},
		{"khop", 5, []string{"0"}},
		{"shortest", 0, []string{"0\t0", "1\t1", "2\t1", "3\t2", "4\t3"}},
		{"shortest", 4, []string{"4\t0", "3\t2.5"}},
		{"shortest", 5, []string{"5\t0"}},
		{"wcc", 0, []string{"0\t0", "1\t0", "2\t0", "3\t0", "4\t0", "5\t5"}},
		{"triangle", 0, []string{"3"}}, // the cycle 0→1→2→0, once per rotation
		{"filteragg", 0, []string{"0\t2\t2", "1\t2\t2", "2\t2\t2", "3\t1\t1", "4\t1\t2.5"}},
		{"scan", 0, []string{"0\t1\t1", "0\t2\t1", "1\t2\t1", "2\t0\t1", "2\t3\t1", "3\t4\t1", "1\t3\t1", "4\t3\t2.5"}},
	}
	for _, c := range cases {
		st := statement{class: c.class, id: c.id}
		if !o.check(st, c.want) {
			t.Errorf("%s(%d): oracle rejects the hand-computed answer %q", c.class, c.id, c.want)
		}
		wrong := append(append([]string(nil), c.want...), "9")
		if o.check(st, wrong) {
			t.Errorf("%s(%d): oracle accepts an answer with an extra row", c.class, c.id)
		}
		if len(c.want) > 0 {
			bad := append([]string(nil), c.want...)
			bad[0] += "0"
			if o.check(st, bad) {
				t.Errorf("%s(%d): oracle accepts a changed row", c.class, c.id)
			}
		}
	}
}

// Every class of every workload, over the wire-free engine, on the hand
// graph: the oracle accepts what the engine under test answers today.
func TestOraclesAgreeWithEngine(t *testing.T) {
	g := handGraph()
	db, err := graphsql.Open(profile)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadEdges("E", g); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadNodes("V", g, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := &replicas{g: g, sess: db}
	for _, wl := range workloads {
		hand := *wl
		hand.nodes = g.N
		for _, ddl := range schemaStatements(&hand) {
			if strings.Contains(ddl, " pg ") && db.Graph("pg").Exists() {
				continue
			}
			if _, err := db.Query(ctx, ddl); err != nil {
				t.Fatalf("%s: %v", ddl, err)
			}
		}
		o := newOracle(&hand, g)
		gen := newGenerator(&hand, g.N, 3, 0)
		for i := 0; i < 12*len(hand.cycle); i++ {
			st := gen.next()
			lines, err := sessionLines(r, st)
			if err != nil {
				t.Fatalf("%s: %s: %v", wl.name, st.line(), err)
			}
			if !o.check(st, lines) {
				t.Fatalf("%s: oracle rejects the engine's answer to %s: %q", wl.name, st.line(), lines)
			}
			if st.write() {
				o.apply(st)
			}
		}
		if wl.edges != "E" {
			for _, q := range []string{"drop property graph " + wl.graph, "drop table " + wl.edges} {
				if _, err := db.Query(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// sessionLines renders a session result the way internal/server does.
func sessionLines(r *replicas, st statement) ([]string, error) {
	ctx := context.Background()
	var rel *graphsql.Relation
	if st.verb == "run" {
		res, err := r.sess.Run(ctx, st.arg, r.g, graphsql.Params{})
		if err != nil {
			return nil, err
		}
		rel = res.Rel
	} else {
		res, err := r.sess.Query(ctx, statementText(st))
		if err != nil {
			return nil, err
		}
		rel = res.Rows
	}
	var lines []string
	if rel != nil {
		for _, tu := range rel.Tuples {
			cols := make([]string, len(tu))
			for i, v := range tu {
				cols[i] = v.String()
			}
			lines = append(lines, strings.Join(cols, "\t"))
		}
	}
	return lines, nil
}

func TestShadowReplaysWrites(t *testing.T) {
	wl := handWorkload("insert", "lookup")
	wl.edges, wl.graph, wl.reloadEvery = "L", "pgl", 1
	o := newOracle(wl, handGraph())
	lookup := statement{class: "lookup", id: 5}
	if !o.check(lookup, nil) {
		t.Fatal("vertex 5 starts without out-edges")
	}
	ins := statement{class: "insert", from: []int32{5, 5}, rows: []arc{{to: 0, w: 0.0625}, {to: 0, w: 0.0625}}}
	o.apply(ins)
	if !o.check(lookup, []string{"0\t0.0625", "0\t0.0625"}) {
		t.Error("inserted duplicate edges are not both visible")
	}
	if !o.check(statement{class: "khop", id: 5}, []string{"5"}) {
		t.Error("khop from 5 must count the distinct vertices 0..4 once")
	}
	reload := reloadStatements("L")
	o.apply(reload[0])
	if !o.check(statement{class: "lookup", id: 0}, nil) {
		t.Error("truncate left edges behind")
	}
	o.apply(reload[1])
	if !o.check(lookup, nil) || !o.check(statement{class: "lookup", id: 0}, []string{"1\t1", "2\t1"}) {
		t.Error("reload did not restore E")
	}
}

func TestOperatorSpansNestByContainment(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	root := tr.begin(0, 1, "c", "session")
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	ops := []graphsql.Span{
		{Op: "join", Start: at(12), Dur: 3 * time.Millisecond},
		{Op: "iteration", Start: at(10), Dur: 10 * time.Millisecond},
		{Op: "join", Start: at(30), Dur: 5 * time.Millisecond},
		{Op: "union-by-update", Start: at(16), Dur: 2 * time.Millisecond},
	}
	tr.addOperatorSpans(root, 1, "c", ops)
	got := map[string]int{}
	for _, s := range tr.spans[1:] {
		got[s.Name+"@"+time.Duration(s.StartNs).String()] = s.Parent
	}
	want := map[string]int{"ra.iteration@10ms": root, "ra.join@12ms": 2, "ra.union-by-update@16ms": 2, "ra.join@30ms": root}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parents %v, want %v", got, want)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics this package
// defines.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: listed %q / %q, defined %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: listed %+v, defined %+v", doc.EndToEnd, endToEnd)
	}
	byName := func(d []metricDef) []metricDef {
		d = append([]metricDef(nil), d...)
		sort.Slice(d, func(i, j int) bool { return d[i].Name < d[j].Name })
		return d
	}
	if !reflect.DeepEqual(byName(doc.PerLayer), byName(perLayer())) {
		t.Errorf("per_layer: listed %+v, defined %+v", doc.PerLayer, perLayer())
	}
}

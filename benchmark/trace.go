package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/graphsql"
	"repro/graphsql/client"
	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/withplus"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's exported functions. Spans of one statement share Stmt;
// Parent is the span that caused this one (0 for a statement's root).
// Counts carries the counters read at the same boundary.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Stmt    int              `json:"stmt"`
	Class   string           `json:"class"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(parent, stmt int, class, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Stmt: stmt,
		Class: class, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds() }

func (t *tracer) count(id int, key string, v int64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += v
}

// addOperatorSpans nests the operator spans one observed statement emitted
// under parent, as "ra.<op>": a span's parent is the innermost earlier span
// whose interval contains it (a loop iteration contains its joins).
func (t *tracer) addOperatorSpans(parent, stmt int, class string, ops []obs.Span) {
	sort.SliceStable(ops, func(i, j int) bool {
		if !ops[i].Start.Equal(ops[j].Start) {
			return ops[i].Start.Before(ops[j].Start)
		}
		return ops[i].Dur > ops[j].Dur
	})
	var open []int // ids of enclosing spans, outermost first
	for _, op := range ops {
		start := op.Start.Sub(t.t0).Nanoseconds()
		end := start + op.Dur.Nanoseconds()
		for len(open) > 0 && t.spans[open[len(open)-1]-1].EndNs < end {
			open = open[:len(open)-1]
		}
		p := parent
		if len(open) > 0 {
			p = open[len(open)-1]
		}
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: p, Stmt: stmt,
			Class: class, Name: "ra." + op.Op, StartNs: start, EndNs: end})
		open = append(open, len(t.spans))
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once, and only inside the parent's interval).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, upto := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := k.StartNs, k.EndNs
			if lo < upto {
				lo = upto
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// replicas are the two extra copies of the served data the traced run
// drives next to the wire path, with the identical statement stream: a
// session of a second pool (the statement without the wire), and a bare
// engine on which the statement is taken apart into the calls
// graphsql.(*DB).dispatch makes.
type replicas struct {
	g      *graphsql.Graph
	sess   *graphsql.DB
	mirror *engine.Engine
}

func newReplicas(wl *workload, g *graphsql.Graph) (*replicas, error) {
	pool, err := graphsql.OpenPool(profile)
	if err != nil {
		return nil, err
	}
	if err := pool.DB().LoadEdges("E", g); err != nil {
		return nil, err
	}
	if err := pool.DB().LoadNodes("V", g, nil); err != nil {
		return nil, err
	}
	r := &replicas{g: g, sess: pool.Session(), mirror: engine.New(engine.OracleLike())}
	if _, err := r.mirror.LoadBase("E", g.EdgeRelation()); err != nil {
		return nil, err
	}
	if _, err := r.mirror.LoadBase("V", g.NodeRelation(nil)); err != nil {
		return nil, err
	}
	for _, ddl := range schemaStatements(wl) {
		if _, err := r.sess.Query(context.Background(), ddl); err != nil {
			return nil, err
		}
		st, err := sql.ParseStatement(ddl)
		if err != nil {
			return nil, err
		}
		if _, err := sql.NewExec(r.mirror).ExecStatement(st); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// statementText is the SQL text the server hands to DB.Query for a query
// or match request (GraphHandle.Match wraps the pattern the same way).
func statementText(st statement) string {
	if st.verb != "match" {
		return st.arg
	}
	graph, pattern, _ := strings.Cut(st.arg, " ")
	return fmt.Sprintf("select * from graph_table(%s match %s)", graph, pattern)
}

// onSession runs the statement on the pool session, observed, and returns
// the row count and the operator spans it emitted.
func (r *replicas) onSession(st statement) (int, []obs.Span, error) {
	ctx := context.Background()
	col := graphsql.NewSpanCollector()
	if st.verb == "run" {
		res, err := r.sess.Run(ctx, st.arg, r.g, graphsql.Params{}, graphsql.WithObserver(col))
		if err != nil {
			return 0, nil, err
		}
		return res.Rel.Len(), col.Spans(), nil
	}
	res, err := r.sess.Query(ctx, statementText(st), graphsql.WithObserver(col))
	if err != nil {
		return 0, nil, err
	}
	if res.Rows == nil {
		return 0, col.Spans(), nil
	}
	return res.Rows.Len(), col.Spans(), nil
}

// decomposed runs the statement on the mirror engine as the sequence of
// layer calls DB.Query/DB.Run make, one span per call under parent, and
// returns the row count.
func (r *replicas) decomposed(t *tracer, parent, stmt int, st statement) (rows int, err error) {
	eng := r.mirror
	timed := func(name string, f func() error) error {
		id := t.begin(parent, stmt, st.class, name)
		err := f()
		t.end(id)
		return err
	}
	if err := timed("server.parse", func() error {
		_, err := server.ParseCommand(st.line())
		return err
	}); err != nil {
		return 0, err
	}
	_, walBefore, _, _ := eng.WAL().Counters()
	end := eng.BeginStatement(context.Background())
	defer func() {
		end()
		if _, walAfter, _, _ := eng.WAL().Counters(); walAfter > walBefore {
			t.count(parent, "wal_bytes", walAfter-walBefore)
		}
	}()
	if st.verb == "run" {
		return rows, timed("algos.run", func() error {
			a, err := algos.ByCode(st.arg)
			if err != nil {
				return err
			}
			res, err := a.Run(eng, r.g, algos.Params{})
			if err == nil {
				rows = res.Rel.Len()
			}
			return err
		})
	}
	text := statementText(st)
	var with *sql.WithStmt
	if first := strings.Fields(text); len(first) > 0 && strings.EqualFold(first[0], "with") {
		// Textual WITH+ goes straight to the withplus pipeline.
		if err := timed("sql.parse", func() (err error) {
			with, err = sql.ParseWith(text)
			return err
		}); err != nil {
			return 0, err
		}
	} else {
		var parsed sql.Statement
		if err := timed("sql.parse", func() (err error) {
			parsed, err = sql.ParseStatement(text)
			return err
		}); err != nil {
			return 0, err
		}
		if err := timed("sql.expand", func() (err error) {
			parsed, err = sql.ExpandStatement(eng, parsed)
			return err
		}); err != nil {
			return 0, err
		}
		wq, lifted := parsed.(*sql.WithQueryStmt)
		if !lifted {
			return rows, timed("sql.exec", func() error {
				out, err := sql.NewExec(eng).ExecStatement(parsed)
				if out != nil {
					rows = out.Len()
				}
				return err
			})
		}
		with = wq.With
	}
	var prog *withplus.Program
	if err := timed("withplus.prepare", func() (err error) {
		prog, err = withplus.PrepareStmt(eng, with)
		return err
	}); err != nil {
		return 0, err
	}
	defer prog.Cleanup()
	id := t.begin(parent, stmt, st.class, "withplus.run")
	out, tr, err := prog.Run()
	t.end(id)
	if err != nil {
		return 0, err
	}
	t.count(id, "iterations", int64(tr.Iterations))
	return out.Len(), nil
}

// counterMap keys an engine counter snapshot by its JSON names, so a counter
// added to the engine shows up here without an edit.
func counterMap(snap graphsql.CountersSnapshot) map[string]int64 {
	var m map[string]int64
	raw, err := json.Marshal(snap)
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err != nil {
		panic(err) // a struct of int64 fields always round-trips
	}
	return m
}

// counterDelta is after − before, field by field.
func counterDelta(before, after graphsql.CountersSnapshot) map[string]int64 {
	d := counterMap(after)
	for k, v := range counterMap(before) {
		d[k] -= v
	}
	return d
}

// traceStatement runs one statement three ways under one root span: over
// the wire, on the pool session, and decomposed on the mirror. Every
// replica's row count must agree with the verified wire reply.
func (e *env) traceStatement(t *tracer, r *replicas, cl *client.Client, stmt int, st statement) bool {
	root := t.begin(0, stmt, st.class, "stmt")
	defer t.end(root)

	wire := t.begin(root, stmt, st.class, "wire")
	lines, _, ok := e.send(cl, st)
	t.end(wire)
	if ok && st.write() {
		if st.class == "insert" {
			t.count(root, "rows_written", int64(len(st.rows)))
		} else if !strings.HasPrefix(st.arg, "truncate") {
			t.count(root, "rows_written", int64(e.g.M()))
		}
	}
	bytes := 0
	for _, l := range lines {
		bytes += len(l) + 1
	}
	t.count(wire, "rows", int64(len(lines)))
	t.count(wire, "bytes_out", int64(bytes))

	before := r.sess.Stats()
	sess := t.begin(root, stmt, st.class, "session")
	n, ops, err := r.onSession(st)
	t.end(sess)
	ok = ok && err == nil && n == len(lines)
	for k, v := range counterDelta(before, r.sess.Stats()) {
		t.count(sess, k, v)
	}
	t.addOperatorSpans(sess, stmt, st.class, ops)

	dec := t.begin(root, stmt, st.class, "decomposed")
	n, err = r.decomposed(t, dec, stmt, st)
	t.end(dec)
	return ok && err == nil && n == len(lines)
}

// tracedRun drives the fixed-length traced run on one client and returns
// its spans. The replicas are warmed with one statement per class first
// (spans discarded), like the server was in set-up.
func (e *env) tracedRun() ([]span, error) {
	r, err := newReplicas(e.wl, e.g)
	if err != nil {
		return nil, err
	}
	defer r.sess.Close()
	cl := e.clients[0]
	t := &tracer{t0: time.Now()}
	run := func(stmt int, st statement) {
		e.tally(e.traceStatement(t, r, cl, stmt, st))
	}
	var lead []statement
	if e.orc.live {
		// The timed phase left the served table ahead of the fresh replicas.
		lead = reloadStatements(e.wl.edges)
	}
	for _, st := range append(lead, onePerClass(e.wl, newGenerator(e.wl, e.g.N, e.seed, -2))...) {
		run(0, st)
	}
	t.spans = t.spans[:0]

	for i := 0; i < pings; i++ {
		id := t.begin(0, 0, "", "wire.ping")
		err := cl.Ping(context.Background())
		t.end(id)
		if err != nil {
			return nil, err
		}
	}
	gen := newGenerator(e.wl, e.g.N, e.seed, 0)
	for stmt := 1; gen.cycles < e.wl.traceCycles; stmt++ {
		run(stmt, gen.next())
	}
	return t.spans, nil
}

const pings = 200

// raOps are the operator span names internal/engine, internal/sql and
// internal/psm emit today.
var raOps = []string{"join", "mv-join", "mm-join", "anti-join", "union-by-update", "iteration"}

// layerMetrics derives every per-layer metric of the spans. Times and
// counts are totals over the traced statements divided by the number of
// traced statements, so classes weigh in by their share of the workload.
// The three metrics that subtract one replica's span from another's
// (wire.self_ms, session.self_us, trace.cover_frac) are medians over the
// statements instead: one slow statement on one replica would swamp a mean.
func layerMetrics(spans []span) map[string]float64 {
	self := selfTimes(spans)
	sum := map[string]float64{}    // span name → total ns
	selfNs := map[string]float64{} // span name → total self ns
	cnt := map[string]float64{}    // count key → total
	type stmtNs struct{ wire, session, layers float64 }
	byStmt := map[int]*stmtNs{}
	var pingNs []float64
	stmts := 0.0
	for _, s := range spans {
		if s.Name == "wire.ping" {
			pingNs = append(pingNs, float64(s.dur()))
			continue
		}
		sum[s.Name] += float64(s.dur())
		selfNs[s.Name] += float64(self[s.ID])
		for k, v := range s.Counts {
			cnt[k] += float64(v)
		}
		if byStmt[s.Stmt] == nil {
			byStmt[s.Stmt] = &stmtNs{}
		}
		switch s.Name {
		case "stmt":
			stmts++
		case "wire":
			byStmt[s.Stmt].wire += float64(s.dur())
		case "session":
			byStmt[s.Stmt].session += float64(s.dur())
		case "sql.parse", "sql.expand", "withplus.prepare", "withplus.run", "sql.exec", "algos.run":
			byStmt[s.Stmt].layers += float64(s.dur())
		}
	}
	stmts = max(1, stmts)
	var wireSelf, sessionSelf, cover []float64
	for _, st := range byStmt {
		if st.session > 0 {
			wireSelf = append(wireSelf, st.wire-st.session)
			sessionSelf = append(sessionSelf, st.session-st.layers)
			cover = append(cover, st.layers/st.session)
		}
	}
	m := map[string]float64{}
	per := func(ns float64, unitNs float64) float64 { return ns / unitNs / stmts }
	m["wire.rtt_us"] = median(pingNs) / 1e3
	m["wire.self_ms"] = median(wireSelf) / 1e6
	m["wire.bytes_out_per_stmt"] = cnt["bytes_out"] / stmts
	m["sql.parse_us"] = per(sum["server.parse"]+sum["sql.parse"], 1e3)
	m["sql.expand_us"] = per(sum["sql.expand"], 1e3)
	m["withplus.prepare_us"] = per(sum["withplus.prepare"], 1e3)
	m["withplus.run_ms"] = per(sum["withplus.run"], 1e6)
	m["withplus.iterations"] = cnt["iterations"] / stmts
	m["sql.exec_ms"] = per(sum["sql.exec"], 1e6)
	m["algos.run_ms"] = per(sum["algos.run"], 1e6)
	for _, k := range counterNames() {
		m["engine."+k+"_per_stmt"] = cnt[k] / stmts
	}
	m["engine.examined_per_returned"] = cnt["tuples_materialized"] / max(1, cnt["rows"])
	for _, op := range raOps {
		m["ra."+op+"_ms"] = per(selfNs["ra."+op], 1e6)
	}
	hits := cnt["index_cache_hits"] + cnt["csr_cache_hits"]
	builds := cnt["index_builds"] + cnt["csr_builds"]
	m["catalog.cache_hit_ratio"] = 1 // no index or CSR was asked for
	if hits+builds > 0 {
		m["catalog.cache_hit_ratio"] = hits / (hits + builds)
	}
	m["storage.wal_bytes_per_row"] = cnt["wal_bytes"] / max(1, cnt["rows_written"])
	m["session.self_us"] = median(sessionSelf) / 1e3
	m["trace.cover_frac"] = median(cover)
	return m
}

// counterNames lists the engine counters by their JSON names, sorted.
func counterNames() []string {
	var names []string
	for k := range counterMap(graphsql.CountersSnapshot{}) {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// wireMedians is the per-class median of the traced wire spans, in ms.
func wireMedians(spans []span) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		if s.Name == "wire" {
			by[s.Class] = append(by[s.Class], float64(s.dur())/1e6)
		}
	}
	out := map[string]float64{}
	for c, v := range by {
		out[c] = median(v)
	}
	return out
}

// overheadFrac compares the traced wire medians with the untraced per-class
// medians, weighting each class by its share of the traced statements.
func overheadFrac(spans []span, untraced map[string]windowed) float64 {
	traced := wireMedians(spans)
	n, total := 0.0, 0.0
	for _, s := range spans {
		if base := untraced[s.Class].Value; s.Name == "wire" && base > 0 {
			total += traced[s.Class]/base - 1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / n
}

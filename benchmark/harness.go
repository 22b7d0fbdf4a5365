package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/graphsql"
	"repro/graphsql/client"
	"repro/internal/server"
)

const (
	dataset        = "WV"
	profile        = "oracle"
	requestTimeout = 30 * time.Second // sent as the wire deadline token
	warmup         = 2 * time.Second  // unrecorded lead-in of the timed phase
	windows        = 3                // consecutive timing windows per run
	setupRepeats   = 5                // set-ups per run; setup_s is their median
)

const createGraphFmt = "create property graph %s (vertex tables (V key (ID)), " +
	"edge tables (%s source key (F) references V destination key (T) references V))"

// env is one served system under test: a pool loaded like cmd/gsqld loads
// it, internal/server on a loopback port with gsqld's default knobs, the
// workload's closed-loop clients, and the answer oracle.
type env struct {
	wl      *workload
	seed    int64
	g       *graphsql.Graph
	pool    *graphsql.Pool
	srv     *server.Server
	served  chan error
	clients []*client.Client
	orc     *oracle

	attempted, failed int
}

// setup builds the served system and leaves it warm: graph generation,
// LoadBase, listen and dial, DDL over the wire, oracle precomputation, and
// one verified serial pass over every statement class so that first-touch
// materialization and index/CSR builds happen before timing.
func setup(wl *workload, seed int64, scale int) (e *env, err error) {
	e = &env{wl: wl, seed: seed}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.g, err = graphsql.Generate(dataset, wl.nodes*scale, seed); err != nil {
		return e, err
	}
	if e.pool, err = graphsql.OpenPool(profile); err != nil {
		return e, err
	}
	if err = e.pool.DB().LoadEdges("E", e.g); err != nil {
		return e, err
	}
	if err = e.pool.DB().LoadNodes("V", e.g, nil); err != nil {
		return e, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	// cmd/gsqld's flag defaults.
	e.srv = server.New(e.pool, e.g)
	e.srv.WriteTimeout = 10 * time.Second
	e.srv.MaxDeadline = 30 * time.Second
	e.srv.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	e.srv.MaxQueue = 4 * e.srv.MaxInflight
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	for c := 0; c < wl.clients; c++ {
		cl, err := client.Dial(client.Config{Addr: ln.Addr().String(),
			RequestTimeout: requestTimeout, Seed: int64(c) + 1})
		if err != nil {
			return e, err
		}
		e.clients = append(e.clients, cl)
	}
	for _, ddl := range schemaStatements(wl) {
		if _, err = e.clients[0].Query(context.Background(), ddl, false); err != nil {
			return e, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	e.orc = newOracle(wl, e.g)
	// Stream -1 is the warm pass's own id stream, distinct from every
	// client's.
	for _, st := range onePerClass(wl, newGenerator(wl, e.g.N, seed, -1)) {
		_, _, ok := e.send(e.clients[0], st)
		e.tally(ok)
		if !ok {
			return e, fmt.Errorf("warm pass: %s answered wrong or failed: %s", st.class, st.line())
		}
	}
	return e, nil
}

// schemaStatements is the DDL sent once after dialing: the property graph
// over E, and for the live workload the table L, its graph, and its rows.
func schemaStatements(wl *workload) []string {
	ddl := []string{fmt.Sprintf(createGraphFmt, "pg", "E")}
	if wl.edges != "E" {
		ddl = append(ddl,
			"create table "+wl.edges+" (F int, T int, ew float)",
			fmt.Sprintf(createGraphFmt, wl.graph, wl.edges),
			"insert into "+wl.edges+" select F, T, ew from E")
	}
	return ddl
}

// send sends one statement and verifies the reply against the oracle,
// replaying an acknowledged write on the shadow. lat is the wire call alone:
// client.Do call to last payload line parsed.
func (e *env) send(cl *client.Client, st statement) (lines []string, lat time.Duration, ok bool) {
	t0 := time.Now()
	lines, err := cl.Do(context.Background(), client.Request{Verb: st.verb, Arg: st.arg, Idempotent: !st.write()})
	lat = time.Since(t0)
	ok = err == nil && e.orc.check(st, lines)
	if err == nil && st.write() {
		e.orc.apply(st)
	}
	return lines, lat, ok
}

// tally counts one attempted statement. Not safe for concurrent use.
func (e *env) tally(ok bool) {
	e.attempted++
	if !ok {
		e.failed++
	}
}

// close stops the clients and drains the server, waiting for Serve and
// every connection handler to return.
func (e *env) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.srv.Shutdown(ctx)
		cancel()
		<-e.served
	}
}

// sample is one timed statement.
type sample struct {
	class string
	lat   time.Duration
	end   time.Duration // completion, since the start of the phase
	ok    bool
}

// clientRun is one client's part of a timed phase: its statements in order,
// and its windows+1 window boundaries. A boundary is the completion of the
// first whole cycle at or after the nominal boundary time, so every window
// of every client holds whole cycles and the class mix inside a window is
// exactly the workload's.
type clientRun struct {
	samples []sample
	bounds  []time.Duration
}

// phase is the raw outcome of one timed phase.
type phase struct {
	clients []clientRun
	// alloc holds runtime.MemStats.TotalAlloc read by client 0 at each of
	// its boundaries (client and server share the process).
	alloc []uint64
}

// timedPhase runs the closed loop: every client sends its next statement
// only after verifying the previous reply, through an unrecorded warm-up
// and then `windows` back-to-back windows, without pausing in between.
func (e *env) timedPhase(window time.Duration) phase {
	ph := phase{clients: make([]clientRun, len(e.clients))}
	start := time.Now()
	var wg sync.WaitGroup
	for c, cl := range e.clients {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			run := &ph.clients[c]
			gen := newGenerator(e.wl, e.g.N, e.seed, c)
			var ms runtime.MemStats
			for len(run.bounds) <= windows {
				st := gen.next()
				_, lat, ok := e.send(cl, st)
				now := time.Since(start)
				run.samples = append(run.samples, sample{class: st.class, lat: lat, end: now, ok: ok})
				if gen.atCycleEnd() && now >= warmup+time.Duration(len(run.bounds))*window {
					run.bounds = append(run.bounds, now)
					if c == 0 {
						runtime.ReadMemStats(&ms)
						ph.alloc = append(ph.alloc, ms.TotalAlloc)
					}
				}
			}
		}(c, cl)
	}
	wg.Wait()
	for _, run := range ph.clients {
		for _, s := range run.samples {
			e.tally(s.ok)
		}
	}
	return ph
}

// timings are the metrics of one timed phase. Every windowed metric is the
// median of its per-window values.
type timings struct {
	StmtPerS windowed `json:"stmt_per_s"`
	P50Ms    windowed `json:"p50_ms"`
	P95Ms    windowed `json:"p95_ms"`
	P99Ms    windowed `json:"p99_ms"`
	AllocKB  windowed `json:"alloc_kb_per_stmt"`
	// ClassP50Ms is the per-class median latency, per window.
	ClassP50Ms map[string]windowed `json:"class_p50_ms"`
	// WindowS is the length of each window of client 0 in seconds.
	WindowS []float64 `json:"window_s"`
	// Samples counts the timed statements; WindowSamples splits them by
	// window, ClassSamples by class.
	Samples       int            `json:"samples"`
	WindowSamples []int          `json:"window_samples"`
	ClassSamples  map[string]int `json:"class_samples"`
}

func (ph phase) timings() timings {
	t := timings{ClassP50Ms: map[string]windowed{}, ClassSamples: map[string]int{}}
	var rate, p50, p95, p99, alloc []float64
	class := map[string][]float64{}
	for i := 0; i < windows; i++ {
		var lat []float64
		byClass := map[string][]float64{}
		perSecond := 0.0
		for _, run := range ph.clients {
			from, to := run.bounds[i], run.bounds[i+1]
			ok := 0
			for _, s := range run.samples {
				if s.end <= from || s.end > to {
					continue
				}
				ms := float64(s.lat.Nanoseconds()) / 1e6
				lat = append(lat, ms)
				byClass[s.class] = append(byClass[s.class], ms)
				t.ClassSamples[s.class]++
				if s.ok {
					ok++
				}
			}
			perSecond += float64(ok) / (to - from).Seconds()
		}
		// Allocation is process-wide: it is read at client 0's boundaries
		// and divided by what all clients completed between them.
		from, to := ph.clients[0].bounds[i], ph.clients[0].bounds[i+1]
		done := 0
		for _, run := range ph.clients {
			for _, s := range run.samples {
				if s.end > from && s.end <= to {
					done++
				}
			}
		}
		sort.Float64s(lat)
		rate = append(rate, perSecond)
		p50 = append(p50, percentile(lat, 0.50))
		p95 = append(p95, percentile(lat, 0.95))
		p99 = append(p99, percentile(lat, 0.99))
		alloc = append(alloc, float64(ph.alloc[i+1]-ph.alloc[i])/1024/float64(max(1, done)))
		for c, l := range byClass {
			class[c] = append(class[c], median(l))
		}
		t.WindowS = append(t.WindowS, (to - from).Seconds())
		t.WindowSamples = append(t.WindowSamples, len(lat))
		t.Samples += len(lat)
	}
	t.StmtPerS, t.P50Ms, t.P95Ms, t.P99Ms, t.AllocKB =
		newWindowed(rate), newWindowed(p50), newWindowed(p95), newWindowed(p99), newWindowed(alloc)
	for c, v := range class {
		t.ClassP50Ms[c] = newWindowed(v)
	}
	return t
}

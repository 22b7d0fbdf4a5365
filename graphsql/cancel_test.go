package graphsql

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/govern"
	"repro/internal/graph"
)

// loadPageRankDB loads the base tables PageRankSQL expects (E, En, V) for a
// scaled WV graph.
func loadPageRankDB(t *testing.T, nodes int) *DB {
	t.Helper()
	db, err := Open("oracle")
	if err != nil {
		t.Fatal(err)
	}
	g := MustGenerate("WV", nodes, 1)
	if err := db.LoadEdges("E", g); err != nil {
		t.Fatal(err)
	}
	deg := g.OutDegrees()
	norm := graph.New(g.N, g.Directed)
	for _, e := range g.Edges {
		norm.AddEdge(e.F, e.T, 1/float64(deg[e.F]))
	}
	if err := db.LoadRelation("En", norm.EdgeRelation()); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadNodes("V", g, nil); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryContextCancelMidFlight is the issue's acceptance scenario:
// cancelling a running 15-iteration PageRank through QueryContext returns
// context.Canceled promptly, with no temp tables and no goroutines left
// behind. Run it under -race to catch unsynchronized shutdown.
func TestQueryContextCancelMidFlight(t *testing.T) {
	const nodes = 4000 // big enough that 15 iterations far outlast the cancel delay
	db := loadPageRankDB(t, nodes)
	q := algos.PageRankSQL(nodes, 15, 0.85)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := db.Query(ctx, q)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	var err error
	select {
	case err = <-errCh:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled query did not return within 30s")
	}
	if err == nil {
		t.Fatal("query finished before the cancel fired — enlarge the graph or iteration count")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if tn := db.TempTables(); len(tn) != 0 {
		t.Fatalf("temp tables leaked after cancellation: %v", tn)
	}
	// Every goroutine the query started must have exited; allow the
	// runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked after cancellation: %d before, %d after", before, n)
	}
	// The statement governor is released: the same DB answers the next query.
	out, err := db.Query(context.Background(), "select count(*) from V")
	if err != nil || out.Rows.Len() != 1 {
		t.Fatalf("db unusable after cancelled statement: %v", err)
	}
}

// TestQueryContextPreCancelled: a context cancelled before the call fails
// fast at the first checkpoint.
func TestQueryContextPreCancelled(t *testing.T) {
	db := loadPageRankDB(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.Query(ctx, algos.PageRankSQL(100, 5, 0.85))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if tn := db.TempTables(); len(tn) != 0 {
		t.Fatalf("temp tables leaked: %v", tn)
	}
}

// TestSetLimitsTimeout: the governor's per-statement deadline trips as
// context.DeadlineExceeded even when the caller passes no deadline.
func TestSetLimitsTimeout(t *testing.T) {
	db := loadPageRankDB(t, 1000)
	db.SetLimits(Limits{Timeout: time.Nanosecond})
	_, err := db.Query(context.Background(), algos.PageRankSQL(1000, 10, 0.85))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	db.SetLimits(Limits{})
	if _, err := db.Query(context.Background(), "select count(*) from V"); err != nil {
		t.Fatalf("clearing limits should restore service: %v", err)
	}
}

// TestSetLimitsRowBudget: the row budget fails a runaway statement with the
// typed budget error.
func TestSetLimitsRowBudget(t *testing.T) {
	db := loadPageRankDB(t, 1000)
	db.SetLimits(Limits{MaxRows: 500})
	_, err := db.Query(context.Background(), algos.PageRankSQL(1000, 10, 0.85))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *govern.BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want a rows BudgetError, got %#v", err)
	}
	if tn := db.TempTables(); len(tn) != 0 {
		t.Fatalf("temp tables leaked after budget kill: %v", tn)
	}
}

// TestSetLimitsMemBudget: the memory budget (join intermediates plus temp
// footprint) trips with the typed budget error.
func TestSetLimitsMemBudget(t *testing.T) {
	db := loadPageRankDB(t, 1000)
	db.SetLimits(Limits{MaxBytes: 1 << 10})
	_, err := db.Query(context.Background(), algos.PageRankSQL(1000, 10, 0.85))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *govern.BudgetError
	if !errors.As(err, &be) || be.Resource != "bytes" {
		t.Fatalf("want a bytes BudgetError, got %#v", err)
	}
}

// TestGovernorIsolationAcrossSessions is the concurrency guarantee for the
// governor: two sessions of one shared engine run the same statement with
// different Limits; the starved one dies with ErrBudgetExceeded while the
// generous one completes, unaffected and uncorrupted.
func TestGovernorIsolationAcrossSessions(t *testing.T) {
	pool, err := OpenPool("oracle")
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 1000
	g := MustGenerate("WV", nodes, 1)
	if err := pool.DB().LoadEdges("E", g); err != nil {
		t.Fatal(err)
	}
	deg := g.OutDegrees()
	norm := graph.New(g.N, g.Directed)
	for _, e := range g.Edges {
		norm.AddEdge(e.F, e.T, 1/float64(deg[e.F]))
	}
	if err := pool.DB().LoadRelation("En", norm.EdgeRelation()); err != nil {
		t.Fatal(err)
	}
	if err := pool.DB().LoadNodes("V", g, nil); err != nil {
		t.Fatal(err)
	}

	starved, generous := pool.Session(), pool.Session()
	defer starved.Close()
	defer generous.Close()
	starved.SetLimits(Limits{MaxBytes: 1 << 10})

	q := algos.PageRankSQL(nodes, 10, 0.85)
	type outcome struct {
		rows int
		err  error
	}
	ch := make(chan outcome, 2)
	run := func(db *DB) {
		res, err := db.Query(context.Background(), q)
		n := 0
		if err == nil {
			n = res.Rows.Len()
		}
		ch <- outcome{n, err}
	}
	go run(starved)
	go run(generous)
	a, b := <-ch, <-ch
	killed, survived := a, b
	if killed.err == nil {
		killed, survived = b, a
	}
	if !errors.Is(killed.err, ErrBudgetExceeded) {
		t.Fatalf("starved session: want ErrBudgetExceeded, got %v", killed.err)
	}
	var be *govern.BudgetError
	if !errors.As(killed.err, &be) || be.Resource != "bytes" {
		t.Fatalf("want a bytes BudgetError, got %#v", killed.err)
	}
	if survived.err != nil {
		t.Fatalf("generous session was collateral damage: %v", survived.err)
	}
	if survived.rows != nodes {
		t.Fatalf("generous session returned %d rows, want %d", survived.rows, nodes)
	}

	// The budget kill must not poison either session or the shared tables.
	if tn := starved.TempTables(); len(tn) != 0 {
		t.Fatalf("starved session leaked temps: %v", tn)
	}
	starved.SetLimits(Limits{})
	for _, db := range []*DB{starved, generous} {
		out, err := db.Query(context.Background(), "select count(*) from V")
		if err != nil || out.Rows.Len() != 1 {
			t.Fatalf("session unusable after neighbor's budget kill: %v", err)
		}
	}
}

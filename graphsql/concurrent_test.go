package graphsql

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/refimpl"
)

// fingerprint renders an algorithm result byte-for-byte: tab-separated
// values, one tuple per line, in engine output order. Every statement runs
// serially, so serial and concurrent runs must produce identical bytes, not
// just identical sets.
func fingerprint(r *Relation) string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, tu := range r.Tuples {
		for i, v := range tu {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestConcurrentAlgosMatchSerial is the differential concurrency gate: for
// each engine profile, 32 goroutines — each in its own pool session — run
// the paper's 10 benchmarked algorithms against one shared engine, and
// every result must be byte-identical to a serial single-session run. The
// serial references are themselves cross-checked against the refimpl
// oracles for a ranking (PR) and a propagation (WCC) representative, so a
// bug that corrupts serial and concurrent runs alike still fails.
func TestConcurrentAlgosMatchSerial(t *testing.T) {
	g := MustGenerate("WV", 120, 5)
	p := Params{Iters: 8}
	var codes []string
	for _, a := range Algorithms()[:10] {
		codes = append(codes, a.Code)
	}

	for _, prof := range []string{"oracle", "db2", "postgres"} {
		t.Run(prof, func(t *testing.T) {
			// Serial references on a fresh engine.
			pool, err := OpenPool(prof)
			if err != nil {
				t.Fatal(err)
			}
			ref := make(map[string]string, len(codes))
			for _, code := range codes {
				s := pool.Session()
				res, err := s.Run(context.Background(), code, g, p)
				s.Close()
				if err != nil {
					t.Fatalf("serial %s: %v", code, err)
				}
				ref[code] = fingerprint(res.Rel)
				// TopoSort legitimately yields no rows on a cyclic graph;
				// every other algorithm must produce output.
				if ref[code] == "" && code != "TS" {
					t.Fatalf("serial %s returned no rows", code)
				}
			}
			checkOracles(t, pool, g, p)

			// 32 sessions on a second fresh engine, round-robin over the
			// algorithms so every algorithm runs concurrently with itself
			// and with the others.
			pool2, err := OpenPool(prof)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 32
			got := make([]string, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					s := pool2.Session()
					defer s.Close()
					res, err := s.Run(context.Background(), codes[i%len(codes)], g, p)
					if err != nil {
						errs[i] = err
						return
					}
					got[i] = fingerprint(res.Rel)
				}(i)
			}
			wg.Wait()
			for i := 0; i < goroutines; i++ {
				code := codes[i%len(codes)]
				if errs[i] != nil {
					t.Fatalf("concurrent %s (goroutine %d): %v", code, i, errs[i])
				}
				if got[i] != ref[code] {
					t.Errorf("concurrent %s (goroutine %d) diverged from serial run (%d vs %d bytes)",
						code, i, len(got[i]), len(ref[code]))
				}
			}
		})
	}
}

// checkOracles validates the serial references against refimpl: PageRank
// values within float tolerance and WCC component labels exactly.
func checkOracles(t *testing.T, pool *Pool, g *Graph, p Params) {
	t.Helper()
	s := pool.Session()
	defer s.Close()

	res, err := s.Run(context.Background(), "PR", g, p)
	if err != nil {
		t.Fatal(err)
	}
	wantPR := refimpl.PageRank(g, 0.85, p.Iters)
	for _, tu := range res.Rel.Tuples {
		if math.Abs(tu[1].AsFloat()-wantPR[tu[0].AsInt()]) > 1e-9 {
			t.Fatalf("serial PR diverges from refimpl at node %v", tu[0])
		}
	}

	res, err = s.Run(context.Background(), "WCC", g, p)
	if err != nil {
		t.Fatal(err)
	}
	wantWCC := refimpl.WCC(g)
	for _, tu := range res.Rel.Tuples {
		if got, want := tu[1].AsInt(), int64(wantWCC[tu[0].AsInt()]); got != want {
			t.Fatalf("serial WCC diverges from refimpl at node %v: %d != %d", tu[0], got, want)
		}
	}
	if res.Rel.Len() != g.N {
		t.Fatalf("WCC labeled %d of %d nodes", res.Rel.Len(), g.N)
	}
}

// TestSessionStatsIndependent pins per-session accounting: two sessions'
// counters reflect only their own statements, while both still observe the
// shared base data.
func TestSessionStatsIndependent(t *testing.T) {
	pool, err := OpenPool("oracle")
	if err != nil {
		t.Fatal(err)
	}
	g := MustGenerate("WV", 100, 2)
	if err := pool.DB().LoadEdges("E", g); err != nil {
		t.Fatal(err)
	}
	a, b := pool.Session(), pool.Session()
	defer a.Close()
	defer b.Close()
	if a.SessionID() == b.SessionID() {
		t.Fatalf("sessions share id %q", a.SessionID())
	}
	if _, err := a.Query(context.Background(), "select T from E where F = nope"); err == nil {
		t.Fatal("bad query should fail")
	}
	for i := 0; i < 3; i++ {
		stmt := fmt.Sprintf("with R(T) as ((select T from E where F = %d) union all "+
			"(select E.T from R, E where R.T = E.F) maxrecursion 2) select T from R", i)
		if _, err := a.Query(context.Background(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Stats().Joins; got != 0 {
		t.Errorf("idle session counted %d joins from its neighbor", got)
	}
	if got := a.Stats().Joins; got == 0 {
		t.Error("active session counted no joins")
	}
}

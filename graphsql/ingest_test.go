package graphsql

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestIngestReadersSeeAcknowledgedPrefix is the end-to-end contract of
// copy-on-write appends to a shared table: one pool session inserts 16-row
// batches into a base edge table L while three reader sessions run a
// lookup, a count, and the benchmark's k-hop WITH+ recursion against it.
// Every reader answer must equal a brute-force answer over E plus some
// prefix of the batches — at least the prefix acknowledged before the
// statement started, at most the prefix issued by the time it ended (an
// insert still in flight may already be visible). A header extended in
// place under the readers fails it: a recursion reading L once per
// iteration would mix prefixes, and -race flags the shared slice header.
func TestIngestReadersSeeAcknowledgedPrefix(t *testing.T) {
	const (
		nodes   = 120
		batches = 40
		batch   = 16
		depth   = 3 // maxrecursion of the k-hop statement
	)
	ctx := context.Background()
	g := MustGenerate("WV", nodes, 11)
	pool, err := OpenPool("oracle")
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.DB().LoadEdges("E", g); err != nil {
		t.Fatal(err)
	}
	writer := pool.Session()
	defer writer.Close()
	for _, stmt := range []string{
		"create table L (F int, T int, ew float)",
		"insert into L select F, T, ew from E",
	} {
		if _, err := writer.Query(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}

	// The inserts, and the adjacency after each prefix of them.
	type arc struct {
		to int
		w  float64
	}
	rng := rand.New(rand.NewSource(5))
	adj := make([][][]arc, batches+1) // adj[k][f]: out-arcs of f after k batches
	adj[0] = make([][]arc, nodes)
	for _, e := range g.Edges {
		adj[0][e.F] = append(adj[0][e.F], arc{int(e.T), e.W})
	}
	inserts := make([]string, batches)
	for k := range inserts {
		next := make([][]arc, nodes)
		for f := range next {
			next[f] = append([]arc(nil), adj[k][f]...)
		}
		var b strings.Builder
		b.WriteString("insert into L values ")
		for i := 0; i < batch; i++ {
			f, to := rng.Intn(nodes), rng.Intn(nodes)
			w := float64(1+2*rng.Intn(16)) / 16 // exact in binary and in decimal
			next[f] = append(next[f], arc{to, w})
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %s)", f, to, strconv.FormatFloat(w, 'g', -1, 64))
		}
		inserts[k] = b.String()
		adj[k+1] = next
	}

	// Brute-force answers per prefix, rendered as canonical strings.
	ids := []int{0, 1, 7, 42, 99}
	lookupAt := func(k, id int) string {
		var rows []string
		for _, a := range adj[k][id] {
			rows = append(rows, fmt.Sprintf("%d %g", a.to, a.w))
		}
		sort.Strings(rows)
		return strings.Join(rows, ";")
	}
	khopAt := func(k, id int) string {
		// Distinct vertices at the end of a path of 1..depth+1 edges.
		seen := make([]bool, nodes)
		frontier, n := []int{id}, 0
		for d := 0; d <= depth && len(frontier) > 0; d++ {
			var next []int
			for _, u := range frontier {
				for _, a := range adj[k][u] {
					if !seen[a.to] {
						seen[a.to] = true
						n++
						next = append(next, a.to)
					}
				}
			}
			frontier = next
		}
		return strconv.Itoa(n)
	}

	type reader struct {
		name   string
		stmt   func(id int) string
		render func(*Relation) string
		want   func(k, id int) string
	}
	single := func(r *Relation) string {
		if r.Len() != 1 {
			return fmt.Sprintf("%d rows", r.Len())
		}
		return strconv.FormatInt(r.At(0)[0].AsInt(), 10)
	}
	readers := []reader{
		{"lookup", func(id int) string { return fmt.Sprintf("select T, ew from L where F = %d", id) },
			func(r *Relation) string {
				var rows []string
				for _, tu := range r.Tuples {
					rows = append(rows, fmt.Sprintf("%d %g", tu[0].AsInt(), tu[1].AsFloat()))
				}
				sort.Strings(rows)
				return strings.Join(rows, ";")
			}, lookupAt},
		{"count", func(int) string { return "select count(*) from L" },
			single, func(k, _ int) string { return strconv.Itoa(len(g.Edges) + k*batch) }},
		{"khop", func(id int) string {
			return fmt.Sprintf("with R(T) as ((select distinct T from L where F = %d) union all "+
				"(select L.T from R, L where R.T = L.F) maxrecursion %d) select count(*) from R", id, depth)
		}, single, khopAt},
	}

	var issued, acked atomic.Int64
	sessions := make([]*DB, len(readers))
	for i := range sessions {
		sessions[i] = pool.Session()
		defer sessions[i].Close()
	}
	// One pass before the writer starts checks the prefix-0 answers and
	// warms L's materialization, so the writer's appends take the
	// copy-on-write arm rather than finding nothing cached.
	for i, rd := range readers {
		res, err := sessions[i].Query(ctx, rd.stmt(ids[0]))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rd.render(res.Rows), rd.want(0, ids[0]); got != want {
			t.Fatalf("%s before any insert = %q, want %q", rd.name, got, want)
		}
	}

	// The writer paces itself on the readers — every reader finishes at
	// least one statement between two inserts — so each batch overlaps reads
	// however fast inserts are; readers never wait on the writer.
	var wg sync.WaitGroup
	var failed atomic.Bool
	checked := make([]atomic.Int64, len(readers))
	done := make(chan struct{})
	wg.Add(1 + len(readers))
	go func() {
		defer wg.Done()
		defer close(done)
		mark := make([]int64, len(readers))
		for _, stmt := range inserts {
			for i := range mark {
				for checked[i].Load() == mark[i] && !failed.Load() {
					time.Sleep(50 * time.Microsecond)
				}
				mark[i] = checked[i].Load()
			}
			issued.Add(1)
			if _, err := writer.Query(ctx, stmt); err != nil {
				t.Error(err)
				return
			}
			acked.Add(1)
		}
	}()
	for i, rd := range readers {
		go func() {
			defer wg.Done()
			fail := func(format string, args ...any) {
				t.Errorf(format, args...)
				failed.Store(true)
			}
			for n := 0; ; n++ {
				finished := false
				select {
				case <-done:
					finished = true
				default:
				}
				id := ids[n%len(ids)]
				lo := int(acked.Load())
				res, err := sessions[i].Query(ctx, rd.stmt(id))
				hi := int(issued.Load())
				if err != nil {
					fail("%s: %v", rd.name, err)
					return
				}
				got, ok := rd.render(res.Rows), false
				for k := lo; k <= hi && !ok; k++ {
					ok = got == rd.want(k, id)
				}
				if !ok {
					fail("%s id=%d = %q matches no prefix of %d..%d batches", rd.name, id, got, lo, hi)
					return
				}
				checked[i].Add(1)
				if finished {
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := acked.Load(); got != batches && !failed.Load() {
		t.Errorf("writer acknowledged %d of %d inserts", got, batches)
	}
}

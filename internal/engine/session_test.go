package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestSessionSharesBaseTables: sessions read the root's base tables, keep
// their temps private, count their own statements, and CloseSession reaps
// leftover temps without touching the root.
func TestSessionSharesBaseTables(t *testing.T) {
	root := New(OracleLike())
	if _, err := root.LoadBase("E", edgeRel([][2]int64{{1, 2}, {2, 3}})); err != nil {
		t.Fatal(err)
	}
	s := root.NewSession("s1")

	r, err := s.Rel("E")
	if err != nil || r.Len() != 2 {
		t.Fatalf("session read of shared base = %v, %v", r, err)
	}
	if s.Root() != root || root.Root() != root {
		t.Error("Root() wiring wrong")
	}
	if s.Session() != "s1" || root.Session() != "" {
		t.Error("session labels wrong")
	}

	if _, err := s.CreateTemp("scratch", schema.Cols(value.KindInt, "x")); err != nil {
		t.Fatal(err)
	}
	if root.Cat.Has("scratch") {
		t.Error("session temp visible from the root")
	}
	s2 := root.NewSession("s2")
	if s2.Cat.Has("scratch") {
		t.Error("session temp visible from a sibling session")
	}
	s2.CloseSession()

	// Session counters are private; the root's stay untouched.
	if _, err := s.Rel("E"); err != nil {
		t.Fatal(err)
	}
	if root.Cnt.Snapshot() != (CountersSnapshot{}) && root.Cnt.Snapshot().Joins != 0 {
		t.Error("session work leaked into root counters")
	}

	s.CloseSession()
	if s.Cat.Has("scratch") {
		t.Error("CloseSession left the temp behind")
	}
	if !root.Cat.Has("E") {
		t.Error("CloseSession touched shared tables")
	}

	// CloseSession also released both session slots: a root append to a
	// warm base table is back on the in-place path, index kept.
	tab, err := root.Cat.Get("E")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.EnsureHashIndex([]int{0}); err != nil {
		t.Fatal(err)
	}
	if err := root.AppendInto("E", edgeRel([][2]int64{{3, 4}})); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := tab.EnsureHashIndex([]int{0}); !hit {
		t.Error("after CloseSession of every session, a root append still dropped the hash index")
	}
}

// TestEnsureBaseRace: concurrent sessions racing EnsureBase on one name get
// one generator call and one shared table — the check-then-load cycle the
// named table lock exists for.
func TestEnsureBaseRace(t *testing.T) {
	root := New(OracleLike())
	var gens int32
	const sessions = 16
	tables := make([]string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.NewSession(fmt.Sprintf("s%d", i))
			defer s.CloseSession()
			tab, err := s.EnsureBase("PR_E", func() *relation.Relation {
				atomic.AddInt32(&gens, 1)
				return edgeRel([][2]int64{{1, 2}})
			})
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = fmt.Sprintf("%p", tab)
		}(i)
	}
	wg.Wait()
	if gens != 1 {
		t.Fatalf("generator ran %d times, want 1", gens)
	}
	for i := 1; i < sessions; i++ {
		if tables[i] != tables[0] {
			t.Fatalf("sessions got different tables: %s vs %s", tables[i], tables[0])
		}
	}
}

// TestStatementSnapshotIsolation: within one session statement, every read
// of a shared table serves the image pinned at first touch, even if another
// session appends mid-statement; the next statement sees the new rows.
func TestStatementSnapshotIsolation(t *testing.T) {
	root := New(OracleLike())
	if _, err := root.LoadBase("E", edgeRel([][2]int64{{1, 2}, {2, 3}})); err != nil {
		t.Fatal(err)
	}
	reader := root.NewSession("r")
	defer reader.CloseSession()
	writer := root.NewSession("w")
	defer writer.CloseSession()

	end := reader.BeginStatement(context.Background())
	r1, err := reader.Rel("E")
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.AppendInto("E", edgeRel([][2]int64{{3, 4}})); err != nil {
		t.Fatal(err)
	}
	r2, err := reader.Rel("E")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 2 || r2.Len() != 2 {
		t.Fatalf("mid-statement reads saw %d then %d rows, want 2 and 2", r1.Len(), r2.Len())
	}
	end()

	end = reader.BeginStatement(context.Background())
	r3, err := reader.Rel("E")
	end()
	if err != nil || r3.Len() != 3 {
		t.Fatalf("next statement saw %d rows, want 3 (%v)", r3.Len(), err)
	}

	// The root engine never snapshots: it reads the live table directly.
	if live, _ := root.Rel("E"); live.Len() != 3 {
		t.Fatalf("root read %d rows, want 3", live.Len())
	}
}

package catalog

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// TestSessionOverlay pins the namespace rules: temps are private to the
// session that created them, base tables are shared through fall-through,
// and a session's non-temp DDL lands in the shared root.
func TestSessionOverlay(t *testing.T) {
	root := newCat()
	base, err := root.Create("base", sch(), StoreMem, false)
	if err != nil {
		t.Fatal(err)
	}
	base.Insert(tu(1, 2))

	s1, s2 := root.Session(), root.Session()
	defer s1.Release()
	defer s2.Release()

	// Shared base visible through the overlay, same object.
	got, err := s1.Get("base")
	if err != nil || got != base {
		t.Fatalf("session Get(base) = %v, %v", got, err)
	}

	// Same-named temps coexist, one per session, invisible elsewhere.
	if _, err := s1.Create("tmp", sch(), StoreMem, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Create("tmp", sch(), StoreMem, true); err != nil {
		t.Fatalf("second session's same-named temp: %v", err)
	}
	if root.Has("tmp") {
		t.Error("session temp leaked into the root namespace")
	}
	t1, _ := s1.Get("tmp")
	t2, _ := s2.Get("tmp")
	if t1 == t2 {
		t.Error("sessions share a temp table object")
	}

	// A temp may not shadow a shared name, and session temps stay out of
	// the root's listings.
	if _, err := s1.Create("base", sch(), StoreMem, true); err == nil {
		t.Error("temp shadowing a shared table should fail")
	}
	if names := root.TempNames(); len(names) != 0 {
		t.Errorf("root lists session temps: %v", names)
	}
	if names := s1.TempNames(); len(names) != 1 || names[0] != "tmp" {
		t.Errorf("session TempNames = %v", names)
	}

	// Non-temp DDL from a session is shared DDL.
	if _, err := s1.Create("published", sch(), StoreMem, false); err != nil {
		t.Fatal(err)
	}
	if !root.Has("published") || !s2.Has("published") {
		t.Error("session's base CREATE not visible everywhere")
	}

	// Dropping one session's temp leaves its namesake alone.
	if err := s1.Drop("tmp"); err != nil {
		t.Fatal(err)
	}
	if s1.Has("tmp") || !s2.Has("tmp") {
		t.Error("drop crossed session namespaces")
	}
}

// scanCounter is a TupleStore that counts full scans — the store decodes a
// materialization cache exists to avoid.
type scanCounter struct {
	storage.TupleStore
	scans int
}

func (s *scanCounter) Scan(fn func(relation.Tuple) bool) error {
	s.scans++
	return s.TupleStore.Scan(fn)
}

// TestSessionCountGatesInPlaceAppend pins the copy-on-write gate: while no
// sessions are live, appends to a warm base table extend its caches in
// place (the incremental index maintenance fast path); once any session is
// live, a pinned view could exist, so the same append publishes a new
// materialization header instead — no store rescan, a new version, access
// structures rebuilt, and the pinned view's rows untouched.
func TestSessionCountGatesInPlaceAppend(t *testing.T) {
	root := newCat()
	tab, err := root.Create("t", sch(), StoreMem, false)
	if err != nil {
		t.Fatal(err)
	}
	store := &scanCounter{TupleStore: tab.Store}
	tab.Store = store
	tab.Insert(tu(1, 2))

	warm := func() {
		if _, err := tab.Materialize(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.EnsureHashIndex([]int{0}); err != nil {
			t.Fatal(err)
		}
	}

	// Zero live sessions: the index rides the append to the new version.
	warm()
	tab.Insert(tu(3, 4))
	if _, hit, _ := tab.EnsureHashIndex([]int{0}); !hit {
		t.Error("single-session append should extend the hash index in place")
	}

	// One live session: the same append is copy-on-write.
	s := root.Session()
	warm()
	if _, _, err := tab.EnsureCSR(0, 1, -1); err != nil {
		t.Fatal(err)
	}
	pinned, err := tab.NewView()
	if err != nil {
		t.Fatal(err)
	}
	old := pinned.Rel.Clone()
	scans, ver := store.scans, tab.Version()
	tab.Insert(tu(5, 6))
	if tab.Version() <= ver {
		t.Errorf("copy-on-write append left the version at %d", tab.Version())
	}
	if _, hit, _ := tab.EnsureHashIndex([]int{0}); hit {
		t.Error("append with live sessions must drop the shared hash index")
	}
	if _, hit, _ := tab.EnsureCSR(0, 1, -1); hit {
		t.Error("append with live sessions must drop the shared CSR")
	}
	if pinned.Rel.Len() != old.Len() {
		t.Fatalf("pinned view grew to %d rows, want %d", pinned.Rel.Len(), old.Len())
	}
	for i, row := range old.Tuples {
		if !pinned.Rel.Tuples[i].Equal(row) {
			t.Errorf("pinned row %d = %v, want %v", i, pinned.Rel.Tuples[i], row)
		}
	}
	fresh, err := tab.NewView()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Rel == pinned.Rel || fresh.Rel.Len() != old.Len()+1 || !fresh.Rel.Tuples[old.Len()].Equal(tu(5, 6)) {
		t.Errorf("fresh view = %d rows (same header %v), want a new header with %d rows ending in (5, 6)",
			fresh.Rel.Len(), fresh.Rel == pinned.Rel, old.Len()+1)
	}
	if store.scans != scans {
		t.Errorf("copy-on-write append cost %d store rescan(s), want 0", store.scans-scans)
	}

	// Overlay-private temps stay on the fast path even with sessions live.
	tmp, err := s.Create("tmp", sch(), StoreMem, true)
	if err != nil {
		t.Fatal(err)
	}
	tmp.Insert(tu(1, 1))
	if _, err := tmp.Materialize(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tmp.EnsureHashIndex([]int{0}); err != nil {
		t.Fatal(err)
	}
	tmp.Insert(tu(2, 2))
	if _, hit, _ := tmp.EnsureHashIndex([]int{0}); !hit {
		t.Error("session-private temp append should extend in place")
	}

	// Releasing the last session reopens the in-place gate.
	s.Release()
	warm()
	tab.Insert(tu(7, 8))
	if _, hit, _ := tab.EnsureHashIndex([]int{0}); !hit {
		t.Error("append after last release should extend in place again")
	}
}

// TestSnapshotPinsViews pins statement-snapshot semantics: the first touch
// of a table pins its image; concurrent writers move the table on without
// disturbing the pinned view; Forget re-pins at the current version.
func TestSnapshotPinsViews(t *testing.T) {
	root := newCat()
	tab, err := root.Create("t", sch(), StoreMem, false)
	if err != nil {
		t.Fatal(err)
	}
	tab.Insert(tu(1, 2))
	tab.Insert(tu(3, 4))

	s := root.Session() // a live session forces writers onto the COW path
	defer s.Release()

	snap := NewSnapshot()
	v, err := snap.View(tab)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rel.Len() != 2 {
		t.Fatalf("pinned view has %d rows, want 2", v.Rel.Len())
	}

	// A writer appends after the pin: the snapshot must keep the old image,
	// a fresh view must see the new one.
	tab.Insert(tu(5, 6))
	again, err := snap.View(tab)
	if err != nil {
		t.Fatal(err)
	}
	if again != v || again.Rel.Len() != 2 {
		t.Errorf("snapshot re-read returned %d rows at a different pin, want the original 2", again.Rel.Len())
	}
	fresh, err := tab.NewView()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Rel.Len() != 3 {
		t.Errorf("fresh view has %d rows, want 3", fresh.Rel.Len())
	}

	// Index requests on the moved-past view build privately but stay
	// consistent with the pinned materialization.
	idx, hit, err := v.EnsureHashIndex([]int{0})
	if err != nil || hit {
		t.Fatalf("first private index build: hit=%v err=%v", hit, err)
	}
	if idx == nil {
		t.Fatal("no index built")
	}
	if _, hit, _ := v.EnsureHashIndex([]int{0}); !hit {
		t.Error("second request should hit the view-private cache")
	}

	// Forget is read-your-own-writes: the next touch re-pins.
	snap.Forget("t")
	repinned, err := snap.View(tab)
	if err != nil {
		t.Fatal(err)
	}
	if repinned.Rel.Len() != 3 {
		t.Errorf("re-pinned view has %d rows, want 3", repinned.Rel.Len())
	}
}

// TestCopyOnWriteAppendRace races one writer appending batches to a shared
// table against readers that pin views and walk v.Rel.Tuples in full;
// meaningful under -race. Row i holds (i, batch of i), so every walk checks
// that no reader ever sees a row below its header's length overwritten —
// neither in a fresh pin nor in a pin re-walked after the writer moved on.
func TestCopyOnWriteAppendRace(t *testing.T) {
	root := newCat()
	tab, err := root.Create("t", sch(), StoreMem, false)
	if err != nil {
		t.Fatal(err)
	}
	s := root.Session()
	defer s.Release()

	const batches, batch, readers = 200, 16, 3
	check := func(v *View) bool {
		for i, row := range v.Rel.Tuples {
			if row[0].AsInt() != int64(i) || row[1].AsInt() != int64(i/batch) {
				t.Errorf("row %d of a %d-row view = %v", i, v.Rel.Len(), row)
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		defer close(done)
		for b := 0; b < batches; b++ {
			r := relation.New(sch())
			for i := 0; i < batch; i++ {
				r.Append(tu(int64(b*batch+i), int64(b)))
			}
			if err := tab.InsertRelation(r); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		go func() {
			defer wg.Done()
			var prev *View
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := tab.NewView()
				if err != nil {
					t.Error(err)
					return
				}
				if !check(v) {
					return
				}
				if prev != nil {
					if v.Rel.Len() < prev.Rel.Len() {
						t.Errorf("view shrank from %d to %d rows", prev.Rel.Len(), v.Rel.Len())
						return
					}
					if !check(prev) {
						return
					}
				}
				prev = v
			}
		}()
	}
	wg.Wait()
	v, err := tab.NewView()
	if err != nil {
		t.Fatal(err)
	}
	if v.Rel.Len() != batches*batch || !check(v) {
		t.Errorf("final view has %d rows, want %d", v.Rel.Len(), batches*batch)
	}
}

// TestCatalogListingRace drives Names/TempNames/Has while another goroutine
// churns DDL — the unsafe-map-iteration regression test; fails under -race
// if listings walk the live map unlocked.
func TestCatalogListingRace(t *testing.T) {
	root := newCat()
	root.Create("base", sch(), StoreMem, false)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := root.Session()
		defer s.Release()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("t%d", i%8)
			if s.Has(name) {
				s.Drop(name)
			} else {
				s.Create(name, sch(), StoreMem, true)
			}
		}
	}()
	for i := 0; i < 500; i++ {
		root.Names()
		root.TempNames()
		root.Has("base")
		s2 := root.Session()
		s2.Names()
		s2.Release()
	}
	close(stop)
	wg.Wait()
}

package catalog

import (
	"sync"

	"repro/internal/relation"
)

// View is a statement-consistent read handle on one table: the
// materialization, analyzed flag, and version captured in a single locked
// read. Index and dictionary requests are served from the table's shared
// version-keyed caches while the table still is at the pinned version —
// so concurrent sessions share one build of each index — and fall back to
// view-private builds over the pinned materialization once a writer has
// moved the table on. Either way every structure a View serves is
// consistent with View.Rel, which is what the join executor's identity
// checks (index.Rel() == probe-time relation) require.
type View struct {
	// Rel is the pinned materialization. Immutable for shared tables; for
	// a session's own temp tables it is the live cache, which the same
	// session may extend in place between statements' operator calls (the
	// incremental index maintenance path).
	Rel *relation.Relation
	// Name and Analyzed are the table identity and optimizer-statistics
	// flag at pin time; Temp distinguishes session temporaries from base
	// tables (the kernel chooser's CSR affordability rule reads it).
	Name     string
	Analyzed bool
	Temp     bool

	tab *Table
	ver uint64

	// view-private caches, used only after the table moved past ver.
	mu     sync.Mutex
	hash   map[string]*relation.HashIndex
	sorted map[string]*relation.SortedIndex
	dicts  map[int]*relation.ColumnDict
	csrs   map[csrKey]*relation.CSR
}

// NewView captures a read view of the table at its current version.
func (t *Table) NewView() (*View, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, err := t.materializeLocked()
	if err != nil {
		return nil, err
	}
	return &View{Rel: r, Name: t.Name, Analyzed: t.Stats.Analyzed, Temp: t.Temp, tab: t, ver: t.version}, nil
}

// Version returns the table version the view is pinned at.
func (v *View) Version() uint64 { return v.ver }

// EnsureHashIndex returns a build-side hash index on cols consistent with
// v.Rel. While the table is still at the pinned version the shared cache
// serves (or stores) the index; afterwards the build is private to the
// view. hit reports whether any cache — shared or private — served the
// request.
func (v *View) EnsureHashIndex(cols []int) (*relation.HashIndex, bool, error) {
	t := v.tab
	t.mu.Lock()
	if t.version == v.ver {
		defer t.mu.Unlock()
		return t.ensureHashIndexLocked(cols, v.ver)
	}
	t.mu.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	key := indexKey(cols)
	if idx, ok := v.hash[key]; ok {
		return idx, true, nil
	}
	idx := relation.BuildHashIndex(v.Rel, cols)
	if v.hash == nil {
		v.hash = make(map[string]*relation.HashIndex)
	}
	v.hash[key] = idx
	return idx, false, nil
}

// EnsureSortedIndex mirrors EnsureHashIndex for the sorted (B+-tree
// stand-in) index cache.
func (v *View) EnsureSortedIndex(cols []int) (*relation.SortedIndex, bool, error) {
	t := v.tab
	t.mu.Lock()
	if t.version == v.ver {
		defer t.mu.Unlock()
		return t.ensureSortedIndexLocked(cols, v.ver)
	}
	t.mu.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	key := indexKey(cols)
	if idx, ok := v.sorted[key]; ok {
		return idx, true, nil
	}
	idx := relation.BuildSortedIndex(v.Rel, cols)
	if v.sorted == nil {
		v.sorted = make(map[string]*relation.SortedIndex)
	}
	v.sorted[key] = idx
	return idx, false, nil
}

// EnsureColumnDict mirrors EnsureHashIndex for the column-dictionary cache.
func (v *View) EnsureColumnDict(col int) (*relation.ColumnDict, bool, error) {
	t := v.tab
	t.mu.Lock()
	if t.version == v.ver {
		defer t.mu.Unlock()
		return t.ensureColumnDictLocked(col, v.ver)
	}
	t.mu.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	if d, ok := v.dicts[col]; ok {
		return d, true, nil
	}
	d := relation.BuildColumnDict(v.Rel, col)
	if v.dicts == nil {
		v.dicts = make(map[int]*relation.ColumnDict)
	}
	v.dicts[col] = d
	return d, false, nil
}

// EnsureCSR mirrors EnsureHashIndex for the CSR adjacency-index cache: a
// snapshot-pinned reader keeps its own CSR over the pinned materialization
// once a writer moves the table past the pinned version, so it never
// observes the writer's extended or rebuilt CSR.
func (v *View) EnsureCSR(srcCol, dstCol, wCol int) (*relation.CSR, bool, error) {
	t := v.tab
	t.mu.Lock()
	if t.version == v.ver {
		defer t.mu.Unlock()
		return t.ensureCSRLocked(srcCol, dstCol, wCol, v.ver)
	}
	t.mu.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	key := csrKey{srcCol, dstCol, wCol}
	if c, ok := findCSR(v.csrs, key, anyCSR); ok {
		return c, true, nil
	}
	c := relation.BuildCSR(v.Rel, srcCol, dstCol, wCol)
	if v.csrs == nil {
		v.csrs = make(map[csrKey]*relation.CSR)
	}
	v.csrs[key] = c
	return c, false, nil
}

// CSR peeks for a CSR on the column triple that is already consistent with
// the view — the shared cache at the pinned version, or a view-private build
// — without building one. The kernel chooser uses it to treat an
// already-paid CSR as free.
func (v *View) CSR(srcCol, dstCol, wCol int) *relation.CSR {
	t := v.tab
	t.mu.Lock()
	if t.version == v.ver {
		if e, ok := findCSR(t.csrs, csrKey{srcCol, dstCol, wCol}, t.current); ok {
			t.mu.Unlock()
			return e.csr
		}
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	c, _ := findCSR(v.csrs, csrKey{srcCol, dstCol, wCol}, anyCSR)
	return c
}

// anyCSR accepts every view-private CSR: they are all built at the view's
// version.
func anyCSR(*relation.CSR) bool { return true }

// Snapshot is the per-statement catalog snapshot a session engine arms at
// statement start: the first read of each shared table pins a View at the
// table's then-current version, and every further read of that name within
// the statement is served from the same View — scans, cached
// materializations, hash indexes, and column dicts all at one version,
// regardless of concurrent writers. Writers never block on a snapshot:
// they bump versions copy-on-write and the snapshot keeps the old image.
type Snapshot struct {
	mu    sync.Mutex
	views map[string]*View
}

// NewSnapshot returns an empty statement snapshot.
func NewSnapshot() *Snapshot { return &Snapshot{} }

// View returns the statement's pinned view of t, pinning it on first use.
// Views are keyed by name: a table dropped and recreated mid-statement by
// another session keeps serving the image pinned at first touch.
func (s *Snapshot) View(t *Table) (*View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.views[t.Name]; ok {
		return v, nil
	}
	v, err := t.NewView()
	if err != nil {
		return nil, err
	}
	if s.views == nil {
		s.views = make(map[string]*View)
	}
	s.views[t.Name] = v
	return v, nil
}

// Forget drops the pinned view of name, so the statement's next read of it
// re-pins at the current version — the read-your-own-writes rule for the
// rare statement that writes a shared table it also reads.
func (s *Snapshot) Forget(name string) {
	s.mu.Lock()
	delete(s.views, name)
	s.mu.Unlock()
}

// Package catalog manages named base and temporary tables over the storage
// substrate, with the per-table statistics whose presence or absence drives
// plan choice in the engine (the paper attributes PostgreSQL's plans on
// temporary tables to missing statistics).
//
// Concurrency model. A Catalog is safe for concurrent use by many sessions:
// the name→table map is guarded by a read/write mutex, and every Table
// guards its storage, caches, and statistics with its own mutex. Session
// catalogs (see Session) overlay a private temp-table namespace on a shared
// root, so concurrent recursions never collide on working-table names.
// Cached materializations are copy-on-write for tables other sessions can
// read: while any session is live, an append bumps the version and installs
// a new materialization header over the same backing rows plus the appended
// ones (O(appended), no store re-decode), while readers holding the old,
// shorter header (pinned in a View) keep a consistent image. The access
// structures built on it — hash, sorted, dict, CSR — are dropped on such an
// append and rebuilt by the next reader; destructive writes drop everything.
// Session-private temporary tables, and every table while no session is
// live, keep the cheaper in-place append path that incremental index
// maintenance relies on.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
)

// Stats carries optimizer statistics for a table. Temporary tables start
// with Analyzed=false; base tables are analyzed on load.
type Stats struct {
	Rows     int
	Analyzed bool
}

// Table is a named relation with physical storage, optional sorted and hash
// indexes, and statistics. All methods are safe for concurrent use; the
// exported fields other than Stats are immutable after creation (Name moves
// only through Catalog.RenameTable, which is restricted to session-private
// tables in concurrent settings). Read Stats through Analyzed/Info when the
// table may be shared.
type Table struct {
	Name  string
	Sch   schema.Schema
	Store storage.TupleStore
	Temp  bool
	Kind  StoreKind
	Stats Stats

	// mu guards version, the caches below, Stats, and all Store mutations.
	// Scans run under it too, so a paged store's page walk never interleaves
	// with a writer reusing the encode scratch buffer.
	mu sync.Mutex

	// owner is the catalog the table was created in — the root for base
	// tables, a session overlay for that session's temps. The engine uses it
	// to decide whether a read needs snapshot pinning (shared table) or can
	// serve the live cache (session-private).
	owner *Catalog

	// version counts writes: every write (insert, truncate, rename) bumps
	// it. Cached access structures are keyed on it, so an index built for
	// one version is never served after the table changes — the mechanism
	// behind iteration-aware join execution: a hash index built on an
	// immutable base table survives every iteration of a WITH+ loop.
	// Appends are special-cased (noteAppendLocked): on private tables the
	// version moves forward *with* the materialization cache, hash indexes,
	// column dicts, and CSRs, so accumulation-only recursion never rebuilds
	// its build sides; on tables live sessions can read, the version moves
	// to a new materialization header (copy-on-write) and the access
	// structures drop, so concurrent readers' pinned images survive
	// untouched. Destructive writes drop everything (invalidate).
	version uint64

	indexes     map[string]*relation.SortedIndex
	hashIndexes map[string]hashIndexEntry
	dicts       map[int]dictEntry
	csrs        map[csrKey]csrEntry
	cache       *relation.Relation // materialization cache: carried forward by appends, dropped by destructive writes
}

// hashIndexEntry pairs a cached build-side hash index with the table version
// it was built at. The map is dropped wholesale on invalidation; the stored
// version is a second line of defense against serving a stale index.
type hashIndexEntry struct {
	idx     *relation.HashIndex
	version uint64
}

// dictEntry caches a column dictionary the same way hashIndexEntry caches a
// hash index: dropped on invalidation, version-checked on serve.
type dictEntry struct {
	dict    *relation.ColumnDict
	version uint64
}

// csrEntry caches a CSR adjacency index under the same rules: dropped on
// invalidation, version-checked on serve, extended in place (tail chains) on
// the append fast path.
type csrEntry struct {
	csr     *relation.CSR
	version uint64
}

// Catalog is a set of tables sharing a buffer pool and WAL.
//
// FaultPlan and Retry, when set, wrap every store the catalog creates from
// that point on: faults are injected below the retry layer, so transient
// faults are absorbed and hard faults surface to the engine. Wrapping at the
// catalog is what lets the chaos sweep reach temp tables created mid-
// procedure — they do not exist yet when the test starts.
type Catalog struct {
	Pool *storage.BufferPool
	WAL  *storage.WAL

	FaultPlan *storage.FaultPlan
	Retry     storage.RetryPolicy

	mu     sync.RWMutex
	tables map[string]*Table

	// parent is the shared root for session overlay catalogs (nil on the
	// root itself). Temp tables live in the overlay; base tables and lookups
	// that miss locally fall through to the root.
	parent *Catalog

	// named write locks, kept on the root so every session contends on the
	// same lock for the same table name (idempotent base loads, union-by-
	// update read-modify-write cycles).
	lmu   sync.Mutex
	locks map[string]*sync.Mutex

	// sessions counts live session overlays (root only, atomic). While it is
	// zero no snapshot can be pinned anywhere, so appends to shared tables may
	// extend cached structures in place — the exact single-session fast path;
	// once a session exists, shared-table appends publish a copy-on-write
	// materialization header and drop the access structures. Session()
	// increments it, Release() decrements.
	sessions int64

	// Property-graph definitions (root only, shared like non-temp DDL);
	// see graph.go.
	gmu    sync.Mutex
	graphs map[string]*GraphDef
}

// New returns an empty catalog over the given pool and log.
func New(pool *storage.BufferPool, wal *storage.WAL) *Catalog {
	return &Catalog{Pool: pool, WAL: wal, tables: make(map[string]*Table)}
}

// Session returns a per-session overlay catalog: temp tables created through
// it are private to the session (shadowing nothing — creation fails on a
// name the root already holds), while base tables and name lookups fall
// through to the shared root. The overlay inherits the root's pool, WAL,
// and fault-injection configuration at call time.
func (c *Catalog) Session() *Catalog {
	root := c.root()
	atomic.AddInt64(&root.sessions, 1)
	return &Catalog{
		Pool:      root.Pool,
		WAL:       root.WAL,
		FaultPlan: root.FaultPlan,
		Retry:     root.Retry,
		tables:    make(map[string]*Table),
		parent:    root,
	}
}

// Release retires a session overlay: the root's live-session count drops,
// and when it reaches zero shared-table appends regain the in-place
// extension fast path. Call exactly once per Session(); no-op on the root.
func (c *Catalog) Release() {
	if c.parent != nil {
		atomic.AddInt64(&c.parent.sessions, -1)
	}
}

// concurrent reports whether any session overlay is live on this catalog's
// root — the moment shared-table caches must stop being mutated in place.
func (c *Catalog) concurrent() bool {
	return atomic.LoadInt64(&c.root().sessions) > 0
}

func (c *Catalog) root() *Catalog {
	if c.parent != nil {
		return c.parent
	}
	return c
}

// Owns reports whether t was created in this catalog (as opposed to a
// parent it is shared with). Session engines use it to decide between live
// reads of their private temps and snapshot-pinned reads of shared tables.
func (c *Catalog) Owns(t *Table) bool { return t != nil && t.owner == c }

// LockTable acquires a process-wide named lock for the table name, shared
// across every session of the same root catalog, and returns the unlock
// func. It serializes multi-step read-modify-write cycles that per-table
// mutexes cannot make atomic: idempotent base-table loads (check-then-load)
// and union-by-update rewrites of shared tables.
func (c *Catalog) LockTable(name string) func() {
	r := c.root()
	r.lmu.Lock()
	if r.locks == nil {
		r.locks = make(map[string]*sync.Mutex)
	}
	m, ok := r.locks[name]
	if !ok {
		m = &sync.Mutex{}
		r.locks[name] = m
	}
	r.lmu.Unlock()
	m.Lock()
	return m.Unlock
}

// StoreKind selects the physical storage for a new table.
type StoreKind int

// The available store kinds.
const (
	// StoreMem keeps tuples in memory (Oracle-AMM-like temp space).
	StoreMem StoreKind = iota
	// StorePaged serializes tuples into buffer-pool pages, unlogged
	// (temp tables bypass the redo log in all three RDBMSs).
	StorePaged
	// StorePagedLogged additionally appends every insert to the WAL
	// (base tables; "it still needs to log").
	StorePagedLogged
)

// Create adds a table. It fails if the name exists. On a session overlay,
// non-temp tables are created in the shared root; temp tables are created
// locally and must not shadow a root name.
func (c *Catalog) Create(name string, sch schema.Schema, kind StoreKind, temp bool) (*Table, error) {
	if c.parent != nil && !temp {
		return c.parent.Create(name, sch, kind, temp)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if c.parent != nil && c.parent.Has(name) {
		return nil, fmt.Errorf("catalog: table %q already exists (shared)", name)
	}
	var store storage.TupleStore
	switch kind {
	case StoreMem:
		store = storage.NewMemStore()
	case StorePaged:
		store = storage.NewPagedStore(c.Pool, nil, name)
	case StorePagedLogged:
		store = storage.NewPagedStore(c.Pool, c.WAL, name)
	default:
		return nil, fmt.Errorf("catalog: unknown store kind %d", kind)
	}
	if c.FaultPlan != nil {
		store = &storage.FaultyStore{Inner: store, Plan: c.FaultPlan}
	}
	if c.Retry.Attempts > 1 {
		store = &storage.RetryingStore{Inner: store, Policy: c.Retry}
	}
	if kind == StorePagedLogged && c.WAL != nil {
		c.WAL.AppendCreate(name, storage.EncodeSchema(nil, sch))
	}
	t := &Table{Name: name, Sch: sch, Store: store, Temp: temp, Kind: kind, owner: c}
	c.tables[name] = t
	return t, nil
}

// Get returns the named table, consulting the session overlay first and
// falling through to the shared root.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	if ok {
		return t, nil
	}
	if c.parent != nil {
		return c.parent.Get(name)
	}
	return nil, fmt.Errorf("catalog: no table %q", name)
}

// Has reports whether the table exists in this catalog or its root.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	_, ok := c.tables[name]
	c.mu.RUnlock()
	if ok {
		return true
	}
	if c.parent != nil {
		return c.parent.Has(name)
	}
	return false
}

// Drop removes a table, releasing its storage. The table leaves the catalog
// even when releasing storage fails — an injected fault mid-procedure must
// not strand a half-dropped table in the namespace (the chaos sweep asserts
// no temp-table debris survives a failed run). On a session overlay, a name
// not held locally is dropped from the shared root.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	t, ok := c.tables[name]
	if !ok {
		c.mu.Unlock()
		if c.parent != nil {
			return c.parent.Drop(name)
		}
		return fmt.Errorf("catalog: no table %q", name)
	}
	delete(c.tables, name)
	c.mu.Unlock()
	t.mu.Lock()
	err := t.Store.Truncate()
	t.mu.Unlock()
	if t.Kind == StorePagedLogged && c.WAL != nil {
		c.WAL.AppendDrop(name)
	}
	return err
}

// RenameTable renames old to new (the ALTER TABLE ... RENAME used by the
// drop/alter union-by-update implementation). The new name must be free in
// the catalog holding the table. The rename invalidates the table's caches:
// the materialization cache holds a schema qualified with the old name, and
// any column references resolved against it would silently keep resolving
// post-rename. Renaming a table shared between sessions is not
// concurrency-safe (readers identify pinned views by name); the engine only
// renames session-private temps.
func (c *Catalog) RenameTable(old, new string) error {
	c.mu.Lock()
	t, ok := c.tables[old]
	if !ok {
		c.mu.Unlock()
		if c.parent != nil {
			return c.parent.RenameTable(old, new)
		}
		return fmt.Errorf("catalog: no table %q", old)
	}
	if _, ok := c.tables[new]; ok {
		c.mu.Unlock()
		return fmt.Errorf("catalog: table %q already exists", new)
	}
	delete(c.tables, old)
	t.mu.Lock()
	t.Name = new
	t.invalidateLocked()
	t.mu.Unlock()
	c.tables[new] = t
	c.mu.Unlock()
	return nil
}

// Names returns all table names visible to this catalog (overlay plus
// root), sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	c.mu.RUnlock()
	if c.parent != nil {
		out = append(out, c.parent.Names()...)
	}
	sort.Strings(out)
	return out
}

// TempNames returns the names of this catalog's own temporary tables,
// sorted. On a session overlay that is exactly the session's private temps:
// cleanup paths iterate it, and must not reach across sessions.
func (c *Catalog) TempNames() []string {
	c.mu.RLock()
	var out []string
	for n, t := range c.tables {
		if t.Temp {
			out = append(out, n)
		}
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// TempBytes reports the storage footprint of this catalog's own temporary
// tables — the resident-memory figure the resource governor checks against
// MaxBytes at statement checkpoints. Session overlays account only their
// private temps, which is what makes the governor's memory budget
// per-session.
func (c *Catalog) TempBytes() int64 {
	c.mu.RLock()
	tabs := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		if t.Temp {
			tabs = append(tabs, t)
		}
	}
	c.mu.RUnlock()
	var n int64
	for _, t := range tabs {
		t.mu.Lock()
		n += t.Store.BytesUsed()
		t.mu.Unlock()
	}
	return n
}

// Insert appends one tuple to the table.
func (t *Table) Insert(tu relation.Tuple) error {
	if len(tu) != t.Sch.Arity() {
		return fmt.Errorf("catalog: insert arity %d into %s%s", len(tu), t.Name, t.Sch)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.Store.Insert(tu); err != nil {
		t.invalidateLocked()
		return err
	}
	t.noteAppendLocked([]relation.Tuple{tu})
	t.Stats.Rows++
	return nil
}

// InsertRelation bulk-appends all tuples of r.
func (t *Table) InsertRelation(r *relation.Relation) error {
	if !r.Sch.UnionCompatible(t.Sch) {
		return fmt.Errorf("catalog: insert arity %d into %s%s", r.Sch.Arity(), t.Name, t.Sch)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tu := range r.Tuples {
		if err := t.Store.Insert(tu.Clone()); err != nil {
			// The store may hold a prefix of r; drop the caches rather than
			// leave them diverged from storage.
			t.invalidateLocked()
			return err
		}
	}
	t.noteAppendLocked(r.Tuples)
	t.Stats.Rows += r.Len()
	return nil
}

// noteAppendLocked records an append of tuples (already in the store) in
// the table's caches. It has three outcomes; every one bumps the version
// (appends are writes — statistics go stale, sorted indexes drop):
//
//   - Invalidate, when nothing is materialized since the last write: no
//     current-version access structure can exist, so there is nothing to
//     carry forward and the next reader decodes the store.
//   - Extend in place, for session-private temps and for every table while
//     no session overlay is live: the materialization cache, hash indexes,
//     column dictionaries, and CSRs move forward *with* the version. The
//     cache header itself grows, so every holder of it — including cached
//     hash indexes, whose validity the join executor checks by identity
//     against the probe-time materialization — observes the appended rows
//     without a rebuild. This keeps build-side indexes alive across the
//     accumulation-only iterations of semi-naive recursion.
//   - Copy-on-write header, for tables other sessions can read while any
//     session overlay is live: the next version's materialization is a new
//     relation header over the same backing rows plus clones of the
//     appended tuples, built in O(appended), so the next reader skips the
//     store decode. Views pinned before the write keep their shorter header,
//     whose rows are never overwritten. Hash, sorted, dict, and CSR caches
//     are dropped, because the structures may be held by concurrent readers
//     and are not safe to extend under them.
//
// The rule that makes the last two arms sound together: rows are appended
// only through the table's latest cache header, and only under t.mu. An
// older header is a prefix of the latest one, so equal length over the same
// backing array means the same rows (relation.SameRows, CSR.Covers).
// Destructive writes (truncate, rename, a failed insert) invalidate for
// every table kind.
func (t *Table) noteAppendLocked(tuples []relation.Tuple) {
	if t.cache == nil {
		t.invalidateLocked()
		return
	}
	rows := t.cache.Tuples
	for _, tu := range tuples {
		rows = append(rows, tu.Clone())
	}
	if t.sharedLocked() {
		next := &relation.Relation{Sch: t.cache.Sch, Tuples: rows}
		t.invalidateLocked()
		t.cache = next
		return
	}
	t.version++
	t.cache.Tuples = rows
	from := t.cache.Len() - len(tuples)
	for key, e := range t.hashIndexes {
		if e.version != t.version-1 {
			delete(t.hashIndexes, key)
			continue
		}
		for row := from; row < t.cache.Len(); row++ {
			e.idx.Add(row)
		}
		t.hashIndexes[key] = hashIndexEntry{idx: e.idx, version: t.version}
	}
	for col, e := range t.dicts {
		if e.version != t.version-1 {
			delete(t.dicts, col)
			continue
		}
		e.dict.Extend(t.cache)
		t.dicts[col] = dictEntry{dict: e.dict, version: t.version}
	}
	for key, e := range t.csrs {
		if e.version != t.version-1 {
			delete(t.csrs, key)
			continue
		}
		e.csr.Extend(t.cache)
		t.csrs[key] = csrEntry{csr: e.csr, version: t.version}
	}
	// Sorted indexes have no cheap extension: appended rows break the order.
	t.indexes = nil
	t.Stats.Analyzed = false
}

// UpdateRows overwrites the rows at positions pos (ascending, in the
// materialization's order) with rows and keeps every other row where it is:
// the write of a keyed union-by-update merge, which touches only the rows it
// changed. The table keeps rows themselves; the caller hands them over and
// never changes them. The store is updated in place where it can be
// (rowUpdater), else rewritten from the updated image. The materialization
// cache is updated in place unless other sessions may hold it
// (sharedLocked), so a cache header a caller holds — and the key index built
// over it — stays current; a shared table's next version gets a new header
// over the updated rows and pinned readers keep the old one. Access
// structures drop: the updated columns may be any.
func (t *Table) UpdateRows(pos []int, rows []relation.Tuple) error {
	if len(pos) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, err := t.materializeLocked()
	if err != nil {
		return err
	}
	next, shared := cur.Tuples, t.sharedLocked()
	if shared {
		next = append([]relation.Tuple(nil), cur.Tuples...)
	}
	inPlace := true
	u, ok := t.Store.(rowUpdater)
	for i, p := range pos {
		next[p] = rows[i]
		if ok && inPlace {
			if inPlace, err = u.UpdateAt(p, next[p]); err != nil {
				t.invalidateLocked()
				return err
			}
		}
	}
	if !ok || !inPlace {
		if err := t.Store.Truncate(); err != nil {
			t.invalidateLocked()
			return err
		}
		for _, tu := range next {
			if err := t.Store.Insert(tu); err != nil {
				t.invalidateLocked()
				return err
			}
		}
	}
	t.invalidateLocked()
	t.cache = cur
	if shared {
		t.cache = &relation.Relation{Sch: cur.Sch, Tuples: next}
	}
	return nil
}

// rowUpdater is a store that can overwrite a stored tuple in place:
// UpdateAt replaces tuple i (in Scan order) with t, or reports false,
// having changed nothing, when it cannot do so in place.
type rowUpdater interface {
	UpdateAt(i int, t relation.Tuple) (bool, error)
}

// sharedLocked reports whether sessions other than the table's own may hold
// its cache header — a root table while a session overlay is live — so a
// write must publish a new header instead of changing the one they read.
func (t *Table) sharedLocked() bool {
	private := t.owner != nil && t.owner.parent != nil
	return !private && t.owner != nil && t.owner.concurrent()
}

// Truncate removes all tuples and invalidates indexes and statistics.
func (t *Table) Truncate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.invalidateLocked()
	t.Stats.Rows = 0
	return t.Store.Truncate()
}

// Materialize scans the store into a relation qualified with the table
// name. The result is cached and carried forward by appends
// (noteAppendLocked) until the next destructive write; paged tables pay
// decode cost on every full (re)materialization. Callers must treat the
// result as immutable: for shared tables it may be served concurrently to
// other sessions.
func (t *Table) Materialize() (*relation.Relation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.materializeLocked()
}

func (t *Table) materializeLocked() (*relation.Relation, error) {
	if t.cache != nil {
		return t.cache, nil
	}
	// The scanned rows are the store's own copies (InsertRelation clones
	// what it stores, UpdateRows takes rows over, a paged store decodes
	// afresh), and the table replaces rows rather than writing into them,
	// so the materialization shares them.
	out := relation.NewWithCap(t.Sch.Qualify(t.Name), t.Store.Len())
	err := t.Store.Scan(func(tu relation.Tuple) bool {
		out.Tuples = append(out.Tuples, tu)
		return true
	})
	if err != nil {
		return nil, err
	}
	t.cache = out
	return out, nil
}

// Materialized reports whether the table's rows are decoded in its
// materialization cache — that some reader has read this content since the
// table was loaded, truncated or rewritten (appends carry the cache
// forward). A metadata peek: it reads and decodes nothing.
func (t *Table) Materialized() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cache != nil
}

// Rows returns the stored tuple count.
func (t *Table) Rows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Store.Len()
}

// Analyze marks statistics as current (ANALYZE / RUNSTATS).
func (t *Table) Analyze() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Stats.Rows = t.Store.Len()
	t.Stats.Analyzed = true
}

// Analyzed reports whether statistics are current, without racing a
// concurrent Analyze or invalidation.
func (t *Table) Analyzed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Stats.Analyzed
}

// Info returns the name, rendered schema, row count, and temp flag in one
// locked read — the catalog-listing snapshot (e.g. graphsql.DB.Tables)
// that must not race concurrent loads.
func (t *Table) Info() (name, sch string, rows int, temp bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Name, t.Sch.String(), t.Store.Len(), t.Temp
}

func indexKey(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// EnsureIndex builds (or returns a cached) sorted index on the columns.
func (t *Table) EnsureIndex(cols []int) (*relation.SortedIndex, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, _, err := t.ensureSortedIndexLocked(cols, t.version)
	return idx, err
}

func (t *Table) ensureSortedIndexLocked(cols []int, ver uint64) (*relation.SortedIndex, bool, error) {
	key := indexKey(cols)
	// The sorted-index map is dropped on every write, so presence implies
	// the current version; the explicit check keeps View serving honest.
	if idx, ok := t.indexes[key]; ok && t.version == ver {
		return idx, true, nil
	}
	r, err := t.materializeLocked()
	if err != nil {
		return nil, false, err
	}
	idx := relation.BuildSortedIndex(r, cols)
	if t.indexes == nil {
		t.indexes = make(map[string]*relation.SortedIndex)
	}
	t.indexes[key] = idx
	return idx, false, nil
}

// Index returns a previously built index on cols, or nil.
func (t *Table) Index(cols []int) *relation.SortedIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.indexes[indexKey(cols)]
}

// Version returns the table's write counter. It increases monotonically on
// every content or identity change (insert, truncate, rename).
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// EnsureHashIndex returns a build-side hash index on cols, building it only
// when no index for the current table version is cached. hit reports whether
// the cache served the request — the counter feed for the engine's
// IndexBuilds/IndexCacheHits statistics. For an immutable base table inside
// an iterative algorithm this makes the hash join's build phase run once per
// table instead of once per iteration.
func (t *Table) EnsureHashIndex(cols []int) (idx *relation.HashIndex, hit bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ensureHashIndexLocked(cols, t.version)
}

func (t *Table) ensureHashIndexLocked(cols []int, ver uint64) (*relation.HashIndex, bool, error) {
	key := indexKey(cols)
	if e, ok := t.hashIndexes[key]; ok && e.version == ver && t.version == ver {
		return e.idx, true, nil
	}
	r, err := t.materializeLocked()
	if err != nil {
		return nil, false, err
	}
	built := relation.BuildHashIndex(r, cols)
	if t.hashIndexes == nil {
		t.hashIndexes = make(map[string]hashIndexEntry)
	}
	t.hashIndexes[key] = hashIndexEntry{idx: built, version: t.version}
	return built, false, nil
}

// HashIndex returns a previously built hash index on cols valid for the
// current table version, or nil.
func (t *Table) HashIndex(cols []int) *relation.HashIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.hashIndexes[indexKey(cols)]; ok && e.version == t.version {
		return e.idx
	}
	return nil
}

// EnsureColumnDict returns a dictionary encoding of the column, built only
// when none is cached for the current table version. hit reports whether the
// cache served the request. The fused aggregate-join kernels use the dict of
// the build side's group column, so like the hash index it is built once per
// version of an immutable base table and reused by every iteration.
func (t *Table) EnsureColumnDict(col int) (dict *relation.ColumnDict, hit bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ensureColumnDictLocked(col, t.version)
}

func (t *Table) ensureColumnDictLocked(col int, ver uint64) (*relation.ColumnDict, bool, error) {
	if e, ok := t.dicts[col]; ok && e.version == ver && t.version == ver {
		return e.dict, true, nil
	}
	r, err := t.materializeLocked()
	if err != nil {
		return nil, false, err
	}
	built := relation.BuildColumnDict(r, col)
	if t.dicts == nil {
		t.dicts = make(map[int]dictEntry)
	}
	t.dicts[col] = dictEntry{dict: built, version: t.version}
	return built, false, nil
}

// ColumnDict returns a previously built dictionary on col valid for the
// current table version, or nil.
func (t *Table) ColumnDict(col int) *relation.ColumnDict {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.dicts[col]; ok && e.version == t.version {
		return e.dict
	}
	return nil
}

// csrKey identifies a CSR by its column triple; dstCol and wCol may be -1.
type csrKey struct{ src, dst, w int }

// findCSR looks up the cached CSR that serves a column triple among the
// entries usable reports current: the exact triple, or — for a request
// without a weight column — one over the same (src, dst) with any weight
// column, which encodes everything the request reads (the lowest weight
// column wins, so the choice does not depend on map order).
func findCSR[E any](m map[csrKey]E, k csrKey, usable func(E) bool) (E, bool) {
	if e, ok := m[k]; ok && usable(e) {
		return e, true
	}
	var best E
	found, bestW := false, 0
	if k.w < 0 {
		for mk, e := range m {
			if mk.src == k.src && mk.dst == k.dst && (!found || mk.w < bestW) && usable(e) {
				best, found, bestW = e, true, mk.w
			}
		}
	}
	return best, found
}

// EnsureCSR returns a CSR adjacency index grouping rows by srcCol (dstCol
// and wCol optionally dict-encode the target and weight columns; pass -1 to
// skip), building it only when none is cached for the current table version
// (findCSR: a request without a weight column is also served by one with).
// hit reports whether the cache served the request — the counter feed for
// the engine's CSRBuilds/CSRCacheHits statistics. Like the hash-index cache,
// an immutable edge table inside an iterative algorithm builds its CSR once
// and serves every iteration's adjacency extends from it; appends to
// session-private temps extend it in place (noteAppend).
func (t *Table) EnsureCSR(srcCol, dstCol, wCol int) (csr *relation.CSR, hit bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ensureCSRLocked(srcCol, dstCol, wCol, t.version)
}

func (t *Table) ensureCSRLocked(srcCol, dstCol, wCol int, ver uint64) (*relation.CSR, bool, error) {
	key := csrKey{srcCol, dstCol, wCol}
	if t.version == ver {
		if e, ok := findCSR(t.csrs, key, t.current); ok {
			return e.csr, true, nil
		}
	}
	r, err := t.materializeLocked()
	if err != nil {
		return nil, false, err
	}
	built := relation.BuildCSR(r, srcCol, dstCol, wCol)
	if t.csrs == nil {
		t.csrs = make(map[csrKey]csrEntry)
	}
	t.csrs[key] = csrEntry{csr: built, version: t.version}
	return built, false, nil
}

// current reports whether a cached CSR entry is valid for the table's
// current version.
func (t *Table) current(e csrEntry) bool { return e.version == t.version }

// CSR returns a previously built CSR serving the column triple (findCSR)
// valid for the current table version, or nil. The engine's kernel chooser
// peeks with it: a cached CSR makes the access path free even when the
// table would not justify a fresh build.
func (t *Table) CSR(srcCol, dstCol, wCol int) *relation.CSR {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := findCSR(t.csrs, csrKey{srcCol, dstCol, wCol}, t.current); ok {
		return e.csr
	}
	return nil
}

func (t *Table) invalidateLocked() {
	t.version++
	t.cache = nil
	t.indexes = nil
	t.hashIndexes = nil
	t.dicts = nil
	t.csrs = nil
	t.Stats.Analyzed = false
}

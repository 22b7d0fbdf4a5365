package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/value"
)

// Counters accumulate execution statistics for experiments and tests. All
// increments go through atomic adds, so the counters are race-clean under
// concurrent use; read the fields directly only after the operations being
// measured have returned.
type Counters struct {
	Joins     int64
	GroupBys  int64
	AntiJoins int64
	UBUs      int64
	Inserts   int64
	// IndexBuilds counts hash- or sorted-index construction; IndexCacheHits
	// counts joins served from the catalog's version-keyed index caches.
	// In an iterative algorithm over an immutable base table, builds are
	// O(1) per table and every further iteration is a hit.
	IndexBuilds    int64
	IndexCacheHits int64
	// CSRBuilds and CSRCacheHits account the CSR adjacency access path the
	// same way: a build per (table version, column triple), a hit for every
	// join served from the cached CSR. Joins taken via CSR charge these
	// counters instead of IndexBuilds/IndexCacheHits.
	CSRBuilds    int64
	CSRCacheHits int64
	// TuplesMaterialized counts tuples allocated for join intermediates
	// (the EquiJoin output feeding GroupBy, plain engine joins). The fused
	// MV-/MM-join kernels contribute zero here — the point of fusion.
	TuplesMaterialized int64
	// VectorizedBatches counts batches executed by the vectorized operator
	// kernels (selection-vector filters, batch projections, integer-keyed
	// group-bys); RowFallbacks counts the batches among them that carried at
	// least one row-fallback subtree (an expression shape without a
	// dedicated kernel, run row-at-a-time inside the batch loop). With
	// DisableVectorized both stay zero.
	VectorizedBatches int64
	RowFallbacks      int64
	// WCOJBuilds counts per-execution hash-trie builds inside the
	// worst-case-optimal multiway join (atoms served from a cached CSR
	// contribute to CSRBuilds/CSRCacheHits instead); WCOJProbes counts its
	// candidate-intersection probes. Both stay zero with DisableWCOJ, which
	// is how the differential tests prove which path ran.
	WCOJBuilds int64
	WCOJProbes int64
	// Commits counts WAL commit markers requested by this engine. Session
	// engines carry their own Counters, so the shared log's write traffic
	// is attributed per session here even though the WAL itself is shared.
	Commits int64
}

func (c *Counters) add(field *int64, n int64) { atomic.AddInt64(field, n) }

// CountersSnapshot is a point-in-time copy of the execution counters, read
// with atomic loads so it is safe to take while statements run. This is the
// public face of Counters: graphsql.DB.Stats returns it, so callers never
// touch the live atomics.
type CountersSnapshot struct {
	Joins              int64 `json:"joins"`
	GroupBys           int64 `json:"group_bys"`
	AntiJoins          int64 `json:"anti_joins"`
	UBUs               int64 `json:"ubus"`
	Inserts            int64 `json:"inserts"`
	IndexBuilds        int64 `json:"index_builds"`
	IndexCacheHits     int64 `json:"index_cache_hits"`
	CSRBuilds          int64 `json:"csr_builds"`
	CSRCacheHits       int64 `json:"csr_cache_hits"`
	TuplesMaterialized int64 `json:"tuples_materialized"`
	VectorizedBatches  int64 `json:"vectorized_batches"`
	RowFallbacks       int64 `json:"row_fallbacks"`
	WCOJBuilds         int64 `json:"wcoj_builds"`
	WCOJProbes         int64 `json:"wcoj_probes"`
	Commits            int64 `json:"commits"`
}

// Snapshot reads every counter atomically.
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		Joins:              atomic.LoadInt64(&c.Joins),
		GroupBys:           atomic.LoadInt64(&c.GroupBys),
		AntiJoins:          atomic.LoadInt64(&c.AntiJoins),
		UBUs:               atomic.LoadInt64(&c.UBUs),
		Inserts:            atomic.LoadInt64(&c.Inserts),
		IndexBuilds:        atomic.LoadInt64(&c.IndexBuilds),
		IndexCacheHits:     atomic.LoadInt64(&c.IndexCacheHits),
		CSRBuilds:          atomic.LoadInt64(&c.CSRBuilds),
		CSRCacheHits:       atomic.LoadInt64(&c.CSRCacheHits),
		TuplesMaterialized: atomic.LoadInt64(&c.TuplesMaterialized),
		VectorizedBatches:  atomic.LoadInt64(&c.VectorizedBatches),
		RowFallbacks:       atomic.LoadInt64(&c.RowFallbacks),
		WCOJBuilds:         atomic.LoadInt64(&c.WCOJBuilds),
		WCOJProbes:         atomic.LoadInt64(&c.WCOJProbes),
		Commits:            atomic.LoadInt64(&c.Commits),
	}
}

// PlanKnobs are the engine's plan-shaping switches. They are one value so
// that a session inherits all of its root's at once (NewSession): a knob
// added here cannot be forgotten there.
type PlanKnobs struct {
	// DisableCSR turns off the CSR adjacency access path: every join that
	// would extend over a cached CSR probes the hash index instead — the
	// A/B baseline for cmd/bench -nocsr. Results are byte-identical either
	// way; only the access path (and the CSR vs index counters) change.
	DisableCSR bool

	// DisableDelta turns off delta-driven semi-naive evaluation in the
	// WITH+ compiler: every recursive branch re-reads the full recursive
	// relation each iteration (the naive loop) — the A/B baseline for
	// cmd/bench -nodelta. It does not affect result correctness, only the
	// amount of work per iteration.
	DisableDelta bool

	// DisableVectorized turns off the vectorized operator kernels in the
	// SQL executor (selection-vector filters, batch projections, the
	// integer-keyed vector group-by): every filter, projection, and
	// aggregation runs the row-at-a-time closures — the A/B baseline for
	// cmd/bench -novector. Results are byte-identical either way; only the
	// execution shape (and the vectorized/row-fallback counters) change.
	DisableVectorized bool

	// DisableWCOJ turns off the worst-case-optimal multiway join: cyclic
	// equi-join cores that would lower to the generic-join operator run the
	// left-deep binary join chain instead — the A/B baseline for cmd/bench
	// -nowcoj and the differential suite. Results are bag-identical either
	// way; only the intermediate sizes (and the WCOJ counters) change.
	DisableWCOJ bool
}

// Engine is one RDBMS instance: a profile, a catalog over its own buffer
// pool and WAL, and execution helpers that apply the profile's plan choices.
type Engine struct {
	Prof Profile
	Cat  *catalog.Catalog
	Cnt  Counters
	PlanKnobs

	// Limits are the per-statement resource budgets; BeginStatement arms a
	// governor with them. The zero value means ungoverned.
	Limits govern.Limits

	gov    *govern.Governor
	sink   obs.Sink
	disk   *storage.Disk
	pool   *storage.BufferPool
	wal    *storage.WAL
	frames int

	// session labels a per-session engine created by NewSession ("" on the
	// root engine). Session engines share the root's catalog (through a
	// per-session overlay), buffer pool, WAL, and disk, but carry their own
	// counters, governor, observer, and limits — per-session accounting.
	session string
	// snap is the statement snapshot of a session engine's statement in
	// flight: reads of shared (root-owned) tables pin a view per table at
	// first touch. nil on root engines and between statements, making the
	// single-session read path identical to the pre-session engine.
	snap *catalog.Snapshot
	// root points at the engine this session was created from (nil on the
	// root itself).
	root *Engine
}

// DefaultBufferFrames sizes the buffer pool; large enough that the working
// set of the scaled datasets fits, as the paper configures each system with
// most of RAM.
const DefaultBufferFrames = 4096

// New returns an engine with the given profile.
func New(prof Profile) *Engine {
	return NewWithFrames(prof, DefaultBufferFrames)
}

// NewWithFrames returns an engine whose buffer pool holds the given number
// of frames — the memory_target / shared_buffers knob the paper tunes per
// system. Small pools thrash on paged temp tables (the I/O-bound regime of
// Section 7.2).
func NewWithFrames(prof Profile, frames int) *Engine {
	disk := storage.NewDisk()
	pool := storage.NewBufferPool(disk, frames)
	wal := storage.NewWAL()
	return &Engine{
		Prof:   prof,
		Cat:    catalog.New(pool, wal),
		disk:   disk,
		pool:   pool,
		wal:    wal,
		frames: frames,
	}
}

// WAL exposes the engine's write-ahead log (for experiments that measure
// logging volume).
func (e *Engine) WAL() *storage.WAL { return e.wal }

// Disk exposes the simulated disk (for I/O counters).
func (e *Engine) Disk() *storage.Disk { return e.disk }

// BeginStatement arms a per-statement resource governor from ctx and the
// engine's Limits. Every operator the statement runs checkpoints against it:
// cancellation, deadline, and budget violations surface as typed errors at
// the engine boundary. The returned func ends the statement — releasing the
// governor and restoring the previous one (statements may nest through the
// PSM loop driver) — and must be called exactly once, normally by defer.
func (e *Engine) BeginStatement(ctx context.Context) func() {
	prev := e.gov
	g := govern.New(ctx, e.Limits)
	e.gov = g
	prevSnap := e.snap
	if e.session != "" && prevSnap == nil {
		// Session engines read shared tables through a statement snapshot;
		// nested statements (the PSM loop driver) share the outer pin so one
		// top-level statement sees one version per table.
		e.snap = catalog.NewSnapshot()
	}
	obs.Global.Counter("engine.statements").Inc()
	if e.session != "" {
		// Per-session label. Cardinality is bounded by the number of
		// sessions actually opened, so keep labels to long-lived sessions.
		obs.Global.Counter("engine.statements{session=" + e.session + "}").Inc()
	}
	start := time.Now()
	return func() {
		g.Close()
		e.gov = prev
		e.snap = prevSnap
		obs.Global.Histogram("engine.statement_us").Observe(time.Since(start).Microseconds())
	}
}

// BeginObserved is BeginStatement plus a statement-scoped span sink: sink
// receives every operator span the statement emits, and the previous sink
// (a persistent one installed by SetObserver, or none) is restored when the
// statement ends. A nil sink inherits the current one, so BeginObserved(ctx,
// nil) is exactly BeginStatement. Statements on one engine are sequential
// (the graphsql layer serializes them), which is what makes the swap sound.
func (e *Engine) BeginObserved(ctx context.Context, sink obs.Sink) func() {
	prevSink := e.sink
	if sink != nil {
		e.sink = sink
	}
	end := e.BeginStatement(ctx)
	return func() {
		end()
		e.sink = prevSink
	}
}

// SetObserver installs a persistent span sink that stays attached across
// statements (the benchmark harness runs algorithms without statement
// boundaries). nil detaches. Per-statement sinks from BeginObserved shadow
// it for their statement's duration.
func (e *Engine) SetObserver(sink obs.Sink) { e.sink = sink }

// Observer returns the currently attached sink (nil when unobserved).
func (e *Engine) Observer() obs.Sink { return e.sink }

// Observing reports whether a sink is attached — the guard every hook
// checks before constructing a span or reading the clock.
func (e *Engine) Observing() bool { return e.sink != nil }

// Emit delivers a completed span to the attached sink, if any. Callers
// outside the engine (the SQL executor, the PSM loop driver) build their
// spans only after checking Observing, preserving the zero-cost contract.
func (e *Engine) Emit(sp obs.Span) {
	if e.sink != nil {
		e.sink.Span(sp)
	}
}

// Gov returns the governor of the statement in flight, or nil when
// ungoverned. Nil is safe to use: every govern method is a no-op on it.
func (e *Engine) Gov() *govern.Governor { return e.gov }

// CheckStatement is the coarse checkpoint for statement and iteration
// boundaries: context/budget state plus the resident temp-table footprint
// against the memory budget (the fed-by-BytesUsed accounting the governor
// can't see from inside an operator).
func (e *Engine) CheckStatement() error {
	if err := e.gov.Check(); err != nil {
		return err
	}
	resident := e.Cat.TempBytes()
	obs.Global.Gauge("engine.temp_bytes").Set(resident)
	return e.gov.CheckMem(resident)
}

// Commit appends a commit marker delimiting the base-table mutations logged
// so far — the boundary Recover replays to. Elided when nothing was logged
// since the last marker, so temp-only statements stay free. The call is
// charged to this engine's Commits counter, which on a session engine
// attributes shared-WAL traffic per session.
func (e *Engine) Commit() {
	e.Cnt.add(&e.Cnt.Commits, 1)
	e.wal.AppendCommit()
}

// CreateBase creates a logged, paged base table.
func (e *Engine) CreateBase(name string, sch schema.Schema) (*catalog.Table, error) {
	return e.Cat.Create(name, sch, catalog.StorePagedLogged, false)
}

// CreateTemp creates a temporary table with the profile's temp storage
// (in-memory for OracleLike, paged-unlogged otherwise).
func (e *Engine) CreateTemp(name string, sch schema.Schema) (*catalog.Table, error) {
	return e.Cat.Create(name, sch, e.Prof.TempStore, true)
}

// EnsureTemp returns the named temp table, creating (or truncating and
// re-shaping) it as needed — the CREATE TEMPORARY TABLE IF NOT EXISTS used
// by the PSM procedures.
func (e *Engine) EnsureTemp(name string, sch schema.Schema) (*catalog.Table, error) {
	if e.Cat.Has(name) {
		t, err := e.Cat.Get(name)
		if err != nil {
			return nil, err
		}
		if !t.Sch.UnionCompatible(sch) {
			if err := e.Cat.Drop(name); err != nil {
				return nil, err
			}
			return e.CreateTemp(name, sch)
		}
		return t, nil
	}
	return e.CreateTemp(name, sch)
}

// LoadBase creates a base table from a relation and analyzes it. The load
// commits as one unit: a crash mid-load leaves no trace of the table after
// Recover.
func (e *Engine) LoadBase(name string, r *relation.Relation) (t *catalog.Table, err error) {
	defer govern.RecoverTo(&err)
	t, err = e.CreateBase(name, r.Sch)
	if err != nil {
		return nil, err
	}
	if err := t.InsertRelation(r); err != nil {
		return nil, err
	}
	e.Cnt.add(&e.Cnt.Inserts, int64(r.Len()))
	t.Analyze()
	e.Commit()
	return t, nil
}

// view returns the engine's read view of t: on a session engine with a
// statement in flight, reads of shared (root-owned) tables are pinned in
// the statement snapshot; the session's own temps — and everything on a
// root engine — serve the live table, preserving read-your-own-writes for
// recursion working tables and the exact single-session fast path.
func (e *Engine) view(t *catalog.Table) (*catalog.View, error) {
	if e.snap != nil && !e.Cat.Owns(t) {
		return e.snap.View(t)
	}
	return t.NewView()
}

// viewOf resolves a name to its read view.
func (e *Engine) viewOf(name string) (*catalog.View, error) {
	t, err := e.Cat.Get(name)
	if err != nil {
		return nil, err
	}
	return e.view(t)
}

// snapForget drops the statement snapshot's pinned view of name (if any)
// after this session wrote the table, so later reads in the same statement
// see the session's own write.
func (e *Engine) snapForget(name string) {
	if e.snap != nil {
		e.snap.Forget(name)
	}
}

// Rel materializes the named table (snapshot-pinned on session engines).
func (e *Engine) Rel(name string) (*relation.Relation, error) {
	v, err := e.viewOf(name)
	if err != nil {
		return nil, err
	}
	return v.Rel, nil
}

// EnsureBase returns the named base table, loading it from gen exactly once
// even when many sessions race on the first use — the check-then-load made
// atomic under the catalog's named lock. gen is only invoked by the loading
// session.
func (e *Engine) EnsureBase(name string, gen func() *relation.Relation) (*catalog.Table, error) {
	unlock := e.Cat.LockTable(name)
	defer unlock()
	if e.Cat.Has(name) {
		return e.Cat.Get(name)
	}
	return e.LoadBase(name, gen())
}

// StoreInto truncates the table and inserts r (the PSM "truncate + insert
// ... select" step between iterations). Base-table targets commit on
// success; temp targets log nothing so the commit is elided.
func (e *Engine) StoreInto(name string, r *relation.Relation) (err error) {
	defer govern.RecoverTo(&err)
	t, err := e.Cat.Get(name)
	if err != nil {
		return err
	}
	e.snapForget(name)
	if err := t.Truncate(); err != nil {
		return err
	}
	e.Cnt.add(&e.Cnt.Inserts, int64(r.Len()))
	if err := t.InsertRelation(r); err != nil {
		return err
	}
	e.Commit()
	return nil
}

// AppendInto inserts r into the table without truncating (UNION ALL
// accumulation).
func (e *Engine) AppendInto(name string, r *relation.Relation) (err error) {
	defer govern.RecoverTo(&err)
	t, err := e.Cat.Get(name)
	if err != nil {
		return err
	}
	e.snapForget(name)
	e.Cnt.add(&e.Cnt.Inserts, int64(r.Len()))
	if err := t.InsertRelation(r); err != nil {
		return err
	}
	e.Commit()
	return nil
}

// ensureHashIndex serves a view's build-side hash index (the table's shared
// version-keyed cache while the pinned version is current, a view-private
// build afterwards), charging the build or the cache hit to the counters
// and reporting which happened.
func (e *Engine) ensureHashIndex(v *catalog.View, cols []int) (*relation.HashIndex, bool, error) {
	idx, hit, err := v.EnsureHashIndex(cols)
	if err != nil {
		return nil, false, err
	}
	if hit {
		e.Cnt.add(&e.Cnt.IndexCacheHits, 1)
	} else {
		e.Cnt.add(&e.Cnt.IndexBuilds, 1)
	}
	return idx, hit, nil
}

// ensureCSR serves a view's CSR adjacency index (shared cache at the pinned
// version, view-private build afterwards — same serving rules as
// ensureHashIndex), charging the build or the hit to the CSR counters and
// the process-wide metrics registry.
func (e *Engine) ensureCSR(v *catalog.View, srcCol, dstCol, wCol int) (*relation.CSR, bool, error) {
	csr, hit, err := v.EnsureCSR(srcCol, dstCol, wCol)
	if err != nil {
		return nil, false, err
	}
	if hit {
		e.Cnt.add(&e.Cnt.CSRCacheHits, 1)
		obs.Global.Counter("engine.csr_cache_hits").Inc()
	} else {
		e.Cnt.add(&e.Cnt.CSRBuilds, 1)
		obs.Global.Counter("engine.csr_builds").Inc()
	}
	return csr, hit, nil
}

// csrPeeker is the one thing the CSR cost rule asks of its table handle: is
// a CSR on this column triple already paid for. A pinned *catalog.View (the
// executor's read handle) and a *catalog.Table (the planner's, which must
// not read the table) both answer it without building anything.
type csrPeeker interface {
	CSR(srcCol, dstCol, wCol int) *relation.CSR
}

// csrUsable is the kernel chooser's cost rule for the CSR access path: the
// build side must be an edge-shaped table whose CSR is affordable — a base
// table or an analyzed one (stable across the recursion, so one build
// amortizes over every iteration, exactly like the cached hash index) or
// already carrying a current-version CSR (peeked, never built here — a sunk
// cost is free). An unanalyzed temp rewritten every iteration (e.g.
// Floyd-Warshall's working matrix) fails every arm and keeps the hash path:
// a CSR built per iteration would cost more than the probes it saves.
func (e *Engine) csrUsable(temp, analyzed bool, t csrPeeker, srcCol, dstCol, wCol int) bool {
	return !e.DisableCSR && (!temp || analyzed || t.CSR(srcCol, dstCol, wCol) != nil)
}

// AccessPath is how a hash join (or a multiway-join atom) reaches the rows
// of a catalog table on its build side.
type AccessPath uint8

const (
	// FreshBuild builds a hash index (or trie) inside the operator: the build
	// side is not a catalog table, so there is no cache to serve it from.
	FreshBuild AccessPath = iota
	// CachedHash probes the table's version-keyed hash index.
	CachedHash
	// CachedCSR reads the table's CSR adjacency index: no build at all, one
	// contiguous row block per probe.
	CachedCSR
)

// buildSide is the engine's one build-side rule, for its own joins and the
// SQL planner alike: a covering CSR on a single-column key when affordable
// (csrUsable), else the cached hash index. dstCol is -1 for binary joins; a
// multiway-join atom passes the (src, dst) shape it needs.
func (e *Engine) buildSide(temp, analyzed bool, t csrPeeker, keyCols []int, dstCol int) AccessPath {
	if len(keyCols) == 1 && e.csrUsable(temp, analyzed, t, keyCols[0], dstCol, -1) {
		return CachedCSR
	}
	return CachedHash
}

// openBuildSide serves the structure buildSide chose from a read view,
// charging the build or the cache hit to the counters.
func (e *Engine) openBuildSide(v *catalog.View, path AccessPath, keyCols []int, dstCol int) (csr *relation.CSR, idx *relation.HashIndex, hit bool, err error) {
	switch path {
	case CachedCSR:
		csr, hit, err = e.ensureCSR(v, keyCols[0], dstCol, -1)
	case CachedHash:
		idx, hit, err = e.ensureHashIndex(v, keyCols)
	}
	return csr, idx, hit, err
}

// ChooseLookup is the access-path rule for a pinned selection col = key on
// a catalog table: the structure ChooseBuildSide picks for a join on {col}
// — so a lookup and the joins over the same column share one cached CSR or
// hash index — when it is affordable to read. It is when the structure is
// already cached at the current version (a peek, never a build — a sunk
// cost is free), or when a build will amortize over the statements that
// follow: the table's statistics are current (loaded or analyzed, and not
// appended since — the content is stable) and it has been read since it
// was loaded or rewritten (Materialized — the evidence that statements come
// back to it). Otherwise it returns FreshBuild: no lookup, the scan is
// filtered. A table appended to between its statements thus keeps the
// filtered scan instead of paying a build per statement, and a statement
// that is the only reader of a freshly loaded table does not pay a build it
// cannot amortize. Like ChooseBuildSide it reads catalog metadata only.
func (e *Engine) ChooseLookup(t *catalog.Table, col int) AccessPath {
	path := e.ChooseBuildSide(t, []int{col}, -1)
	switch {
	case path == CachedCSR && t.CSR(col, -1, -1) != nil:
	case path == CachedHash && t.HashIndex([]int{col}) != nil:
	case t.Analyzed() && t.Materialized():
	default:
		return FreshBuild
	}
	return path
}

// Lookup serves what ChooseLookup chose: the rows of the named table whose
// column col equals key, read from the statement's one view of the table —
// rows and structure of the same snapshot, the structure ensured (built,
// extended or hit) the way OpenBuildSide ensures a build side. The result
// carries the view's schema and the matching rows, shared with the view, in
// ascending row order: the bag and order a filtered scan yields. Key
// equality is value.Equal's, under which NULL matches NULL; callers pass a
// key that is neither NULL nor NaN, for which it is SQL's =.
func (e *Engine) Lookup(name string, path AccessPath, col int, key value.Value) (*relation.Relation, error) {
	v, err := e.viewOf(name)
	if err != nil {
		return nil, err
	}
	if col >= v.Rel.Sch.Arity() {
		return nil, fmt.Errorf("engine: lookup on column %d of %s%s", col, name, v.Rel.Sch)
	}
	csr, idx, _, err := e.openBuildSide(v, path, []int{col}, -1)
	if err != nil {
		return nil, err
	}
	rows := v.Rel.Tuples
	out := relation.New(v.Rel.Sch)
	switch {
	case csr != nil:
		if ord, ok := csr.SrcOrd(key); ok {
			matches := csr.EdgeRows(ord, nil)
			out.Tuples = make([]relation.Tuple, len(matches))
			for i, row := range matches {
				out.Tuples[i] = rows[row]
			}
		}
	case idx != nil:
		idx.ProbeEach(relation.Tuple{key}, []int{0}, func(row int) bool {
			out.Tuples = append(out.Tuples, rows[row])
			return true
		})
	}
	return out, nil
}

// ChooseBuildSide applies the build-side rule to a table from its catalog
// metadata alone — nothing is read, built, or charged — for planners that
// join over materialized relations rather than catalog tables (the SQL
// executor's FROM chain).
func (e *Engine) ChooseBuildSide(t *catalog.Table, keyCols []int, dstCol int) AccessPath {
	return e.buildSide(t.Temp, t.Analyzed(), t, keyCols, dstCol)
}

// OpenBuildSide serves what ChooseBuildSide chose, from the statement's read
// view of the named table: at most one of the two results is non-nil, and
// both are nil — the join builds fresh — for FreshBuild or when the table
// is gone.
func (e *Engine) OpenBuildSide(name string, path AccessPath, keyCols []int, dstCol int) (*relation.CSR, *relation.HashIndex) {
	if path == FreshBuild {
		return nil, nil
	}
	v, err := e.viewOf(name)
	if err != nil {
		return nil, nil
	}
	csr, idx, _, err := e.openBuildSide(v, path, keyCols, dstCol)
	if err != nil {
		return nil, nil
	}
	return csr, idx
}

// joinSpec resolves the physical algorithm and the pre-built indexes for an
// equi-join between two tables: sorted indexes for
// PostgreSQL-with-temp-indexes, and for the hash-join profiles the cached
// build-side structure buildSide picks (built once per table version, hit
// thereafter; over a CSR, csrJoin stamps the span's Algo when it runs).
// sp, when non-nil, is attached to the spec so the join loops record their
// phase timings and index provenance into it.
func (e *Engine) joinSpec(a, b *catalog.View, aCols, bCols []int, sp *obs.Span) (ra.EquiJoinSpec, error) {
	spec := ra.EquiJoinSpec{LeftCols: aCols, RightCols: bCols, Gov: e.gov, Span: sp}
	spec.Algo = e.Prof.JoinAlgo(a.Analyzed && b.Analyzed)
	if spec.Algo == ra.IndexMergeJoin {
		li, err := e.ensureSortedIndex(a, aCols)
		if err != nil {
			return spec, err
		}
		ri, err := e.ensureSortedIndex(b, bCols)
		if err != nil {
			return spec, err
		}
		spec.LeftIdx, spec.RightIdx = li, ri
	}
	if spec.Algo == ra.HashJoin {
		path := e.buildSide(b.Temp, b.Analyzed, b, bCols, -1)
		csr, idx, hit, err := e.openBuildSide(b, path, bCols, -1)
		if err != nil {
			return spec, err
		}
		spec.RightCSR, spec.RightHash = csr, idx
		if sp != nil {
			sp.IndexBuilt, sp.IndexCacheHit = !hit, hit
		}
	}
	if sp != nil {
		sp.Algo = spec.Algo.String()
	}
	return spec, nil
}

// ensureSortedIndex mirrors ensureHashIndex for the sorted (B+-tree
// stand-in) index cache.
func (e *Engine) ensureSortedIndex(v *catalog.View, cols []int) (*relation.SortedIndex, error) {
	idx, hit, err := v.EnsureSortedIndex(cols)
	if err != nil {
		return nil, err
	}
	if hit {
		e.Cnt.add(&e.Cnt.IndexCacheHits, 1)
	} else {
		e.Cnt.add(&e.Cnt.IndexBuilds, 1)
	}
	return idx, nil
}

// Join computes the equi-join of two tables under the profile's plan.
func (e *Engine) Join(a, b *catalog.Table, aCols, bCols []int) (out *relation.Relation, err error) {
	defer govern.RecoverTo(&err)
	av, err := e.view(a)
	if err != nil {
		return nil, err
	}
	bv, err := e.view(b)
	if err != nil {
		return nil, err
	}
	ar, br := av.Rel, bv.Rel
	var sp *obs.Span
	if e.sink != nil {
		sp = &obs.Span{Op: "join", Note: av.Name + " ⋈ " + bv.Name, Start: time.Now()}
	}
	spec, err := e.joinSpec(av, bv, aCols, bCols, sp)
	if err != nil {
		return nil, err
	}
	e.Cnt.add(&e.Cnt.Joins, 1)
	out = ra.EquiJoin(ar, br, spec)
	if err := e.ChargeMaterialized(out); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.LeftRows, sp.RightRows, sp.OutRows = int64(ar.Len()), int64(br.Len()), int64(out.Len())
		sp.BytesMaterialized = int64(out.Len()) * int64(out.Sch.Arity()) * 16
		sp.Dur = time.Since(sp.Start)
		e.Emit(*sp)
	}
	return out, nil
}

// ChargeMaterialized counts a join intermediate and charges its estimated
// footprint to the statement's memory budget (16 bytes per value slot — the
// Value struct's order of magnitude — so MaxBytes caps runaway
// intermediates, not exact allocations). The SQL executor calls it after
// every join it runs outside the engine's own operator wrappers.
func (e *Engine) ChargeMaterialized(r *relation.Relation) error {
	e.Cnt.add(&e.Cnt.TuplesMaterialized, int64(r.Len()))
	return e.gov.ChargeBytes(int64(r.Len()) * int64(r.Sch.Arity()) * 16)
}

// MVJoin computes the aggregate-join of a matrix table and a vector table
// (Eq. (4)) under the profile's plan. On the hash-join profiles the fused
// kernel runs: a cached hash index on the matrix side's join column (built
// once per table version — for the immutable edge table, once per
// algorithm) is probed by the iteration's vector, and products fold
// straight into the group table without materializing the join.
func (e *Engine) MVJoin(a, c *catalog.Table, ac ra.MatCols, cc ra.VecCols, aJoin, aKeep int, sr semiring.Semiring) (out *relation.Relation, err error) {
	defer govern.RecoverTo(&err)
	av, err := e.view(a)
	if err != nil {
		return nil, err
	}
	cv, err := e.view(c)
	if err != nil {
		return nil, err
	}
	ar, cr := av.Rel, cv.Rel
	var sp *obs.Span
	if e.sink != nil {
		sp = &obs.Span{Op: "mv-join", Note: av.Name + " ⋈ " + cv.Name, Start: time.Now()}
	}
	sch := schema.Schema{{Name: "ID", Type: ar.Sch[aKeep].Type}, {Name: "vw"}}
	if e.fusible(av, cv) {
		path := e.mvSide(av.Temp, av.Analyzed, av, aJoin, aKeep, ac.W)
		out, _, err := e.mvFold(av, path, cr, ac, cc, aJoin, aKeep, sr, false, sp)
		if err != nil {
			return nil, err
		}
		out.Sch = sch
		return out, nil
	}
	e.Cnt.add(&e.Cnt.Joins, 1)
	e.Cnt.add(&e.Cnt.GroupBys, 1)
	spec, err := e.joinSpec(av, cv, []int{aJoin}, []int{cc.ID}, sp)
	if err != nil {
		return nil, err
	}
	out, err = e.aggJoin(ar, cr, spec, ac.W, ar.Sch.Arity()+cc.W, []int{aKeep}, sch, sr)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.LeftRows, sp.RightRows, sp.OutRows = int64(ar.Len()), int64(cr.Len()), int64(out.Len())
		sp.Dur = time.Since(sp.Start)
		e.Emit(*sp)
	}
	return out, nil
}

// mvSide is the build-side rule of the fused MV-join, for MVJoin and the SQL
// planner's agg-join alike: the CSR over (aJoin, aKeep, w) when affordable
// (csrUsable), else the cached hash index on {aJoin} with aKeep's column
// dictionary.
func (e *Engine) mvSide(temp, analyzed bool, t csrPeeker, aJoin, aKeep, w int) AccessPath {
	if e.csrUsable(temp, analyzed, t, aJoin, aKeep, w) {
		return CachedCSR
	}
	return CachedHash
}

// ChooseAggJoinSide applies mvSide to a catalog table from its metadata
// alone, like ChooseBuildSide: the access path an agg-join over the table
// reads, joining on aJoin, grouping on aKeep and folding weight column w.
func (e *Engine) ChooseAggJoinSide(t *catalog.Table, aJoin, aKeep, w int) AccessPath {
	return e.mvSide(t.Temp, t.Analyzed(), t, aJoin, aKeep, w)
}

// mvFold is the fused MV-join dispatch MVJoin and AggJoin share. It opens
// matrix view av on path — the CSR over (aJoin, aKeep, ac.W), which carries
// the adjacency, the group dictionary (Dst) and the weights; or the hash
// index on {aJoin} with aKeep's column dictionary — and folds vector c into
// groups on aKeep with the matching kernel (the CSR kernel names its lane in
// sp.Algo, "fused-csr" or "fused-csr f64"). It counts one join and one
// group-by and emits sp when set.
//
// With exact, it folds only where the fold equals SQL's join followed by
// its group-by bit for bit, and otherwise returns ok false having run and
// counted nothing beyond opening the structure: every ⊙ operand — c's W
// column and av's weight column — is a float, so no product is NULL and
// each is the float the SQL expression computes (over the CSR, c's operand
// may also be an integer: against a float weight value.Add and value.Mul
// widen it to its float64, as the CSR kernel does); and no group key is a
// float (ColumnDict.FloatKeys), so the dictionary groups and spells keys as
// the group-by does. The semiring must be one whose float form matches SQL's
// aggregate (min, max or sum over + or *). Rows fold in the join's order —
// probe row, then block order — so groups come out in the group-by's
// first-touch order.
func (e *Engine) mvFold(av *catalog.View, path AccessPath, c *relation.Relation, ac ra.MatCols, cc ra.VecCols, aJoin, aKeep int, sr semiring.Semiring, exact bool, sp *obs.Span) (out *relation.Relation, ok bool, err error) {
	ar := av.Rel
	if exact && !floatCol(c, cc.W, path == CachedCSR) {
		return nil, false, nil
	}
	var csr *relation.CSR
	var idx *relation.HashIndex
	var dict *relation.ColumnDict
	var hit bool
	if path == CachedCSR {
		if csr, hit, err = e.ensureCSR(av, aJoin, aKeep, ac.W); err != nil {
			return nil, false, err
		}
		if exact && (csr.FloatWeights == nil || csr.Dst.FloatKeys()) {
			return nil, false, nil
		}
	} else {
		if idx, hit, err = e.ensureHashIndex(av, []int{aJoin}); err != nil {
			return nil, false, err
		}
		// The group-column dictionary rides the same per-version cache as
		// the index; it is an executor memo, not a user-visible index, so it
		// is not charged to the IndexBuilds counter.
		if dict, _, err = av.EnsureColumnDict(aKeep); err != nil {
			return nil, false, err
		}
		if exact && (!floatCol(ar, ac.W, false) || dict.FloatKeys()) {
			return nil, false, nil
		}
	}
	e.Cnt.add(&e.Cnt.Joins, 1)
	e.Cnt.add(&e.Cnt.GroupBys, 1)
	if csr != nil {
		out = ra.FusedMVJoinCSR(ar, c, csr, cc, sr, e.gov, sp)
	} else {
		out = ra.FusedMVJoin(ar, c, idx, dict, ac, cc, aKeep, sr, e.gov, sp)
		if sp != nil {
			sp.Algo = "fused-hash"
		}
	}
	if sp != nil {
		sp.IndexBuilt, sp.IndexCacheHit = !hit, hit
		sp.LeftRows, sp.RightRows, sp.OutRows = int64(ar.Len()), int64(c.Len()), int64(out.Len())
		sp.Dur = time.Since(sp.Start)
		e.Emit(*sp)
	}
	return out, true, nil
}

// floatCol reports whether every value of column col of r is a float — or,
// with ints, a number.
func floatCol(r *relation.Relation, col int, ints bool) bool {
	for _, t := range r.Tuples {
		if k := t[col].K; k != value.KindFloat && (!ints || k != value.KindInt) {
			return false
		}
	}
	return true
}

// AggJoin is the SQL executor's agg-join: the equi-join of probe rows c with
// the named catalog table on c's cc.ID = the table's aJoin, grouped on the
// table's aKeep with one semiring aggregate ⊕(c.W ⊙ table.ac.W), folded by
// mvFold over the access path the planner chose (ChooseAggJoinSide) from
// the statement's view of the table. The executor always passes exact; ok
// false then means the data is not foldable exactly and the caller runs the
// join and the group-by instead (exact false folds as MVJoin does — the
// fault a planner mutation plants). The output is the groups' (key,
// aggregate) rows; the caller names the columns.
func (e *Engine) AggJoin(name string, path AccessPath, c *relation.Relation, ac ra.MatCols, cc ra.VecCols, aJoin, aKeep int, sr semiring.Semiring, exact bool, sp *obs.Span) (out *relation.Relation, ok bool, err error) {
	defer govern.RecoverTo(&err)
	v, err := e.viewOf(name)
	if err != nil {
		return nil, false, err
	}
	return e.mvFold(v, path, c, ac, cc, aJoin, aKeep, sr, exact, sp)
}

// MMJoin computes the aggregate-join of two matrix tables (Eq. (3)) under
// the profile's plan, fused on the hash-join profiles like MVJoin. The
// build side is the analyzed (base) table when exactly one side is — its
// cached index survives iterations — else the right side, matching the
// hash join's build/probe orientation.
func (e *Engine) MMJoin(a, b *catalog.Table, ac, bc ra.MatCols, aJoin, aKeep, bJoin, bKeep int, sr semiring.Semiring) (out *relation.Relation, err error) {
	defer govern.RecoverTo(&err)
	av, err := e.view(a)
	if err != nil {
		return nil, err
	}
	bv, err := e.view(b)
	if err != nil {
		return nil, err
	}
	ar, br := av.Rel, bv.Rel
	e.Cnt.add(&e.Cnt.Joins, 1)
	e.Cnt.add(&e.Cnt.GroupBys, 1)
	var sp *obs.Span
	if e.sink != nil {
		sp = &obs.Span{Op: "mm-join", Note: av.Name + " ⋈ " + bv.Name, Start: time.Now()}
	}
	sch := schema.Schema{{Name: "F", Type: ar.Sch[aKeep].Type}, {Name: "T", Type: br.Sch[bKeep].Type}, {Name: "ew"}}
	if e.fusible(av, bv) {
		idxOnLeft := av.Analyzed && !bv.Analyzed
		bldView, bldJoin, bldW := bv, bJoin, bc.W
		if idxOnLeft {
			bldView, bldJoin, bldW = av, aJoin, ac.W
		}
		var out *relation.Relation
		var hit bool
		var algo string
		if e.csrUsable(bldView.Temp, bldView.Analyzed, bldView, bldJoin, -1, bldW) {
			var csr *relation.CSR
			csr, hit, err = e.ensureCSR(bldView, bldJoin, -1, bldW)
			if err != nil {
				return nil, err
			}
			out = ra.FusedMMJoinCSR(ar, br, csr, idxOnLeft, ac, bc, aJoin, aKeep, bJoin, bKeep, sr, e.gov, sp)
			algo = "fused-csr"
		} else {
			var idx *relation.HashIndex
			idx, hit, err = e.ensureHashIndex(bldView, []int{bldJoin})
			if err != nil {
				return nil, err
			}
			out = ra.FusedMMJoin(ar, br, idx, idxOnLeft, ac, bc, aJoin, aKeep, bJoin, bKeep, sr, e.gov, sp)
			algo = "fused-hash"
		}
		out.Sch = sch
		if sp != nil {
			sp.Algo = algo
			sp.IndexBuilt, sp.IndexCacheHit = !hit, hit
			sp.LeftRows, sp.RightRows, sp.OutRows = int64(ar.Len()), int64(br.Len()), int64(out.Len())
			sp.Dur = time.Since(sp.Start)
			e.Emit(*sp)
		}
		return out, nil
	}
	spec, err := e.joinSpec(av, bv, []int{aJoin}, []int{bJoin}, sp)
	if err != nil {
		return nil, err
	}
	bOff := ar.Sch.Arity()
	out, err = e.aggJoin(ar, br, spec, ac.W, bOff+bc.W, []int{aKeep, bOff + bKeep}, sch, sr)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.LeftRows, sp.RightRows, sp.OutRows = int64(ar.Len()), int64(br.Len()), int64(out.Len())
		sp.Dur = time.Since(sp.Start)
		e.Emit(*sp)
	}
	return out, nil
}

// fusible reports whether the profile's plan for this table pair is a hash
// join — the only plan the fused kernels implement. The sort-merge plans of
// the PostgreSQL-like profile keep the materializing path so the paper's
// plan-choice experiments (Fig. 10) still measure what they measured.
func (e *Engine) fusible(a, b *catalog.View) bool {
	return e.Prof.JoinAlgo(a.Analyzed && b.Analyzed) == ra.HashJoin
}

// AntiJoin computes r ▷ s between two tables with the chosen SQL
// implementation.
func (e *Engine) AntiJoin(r, s *catalog.Table, rCols, sCols []int, impl ra.AntiJoinImpl) (out *relation.Relation, err error) {
	defer govern.RecoverTo(&err)
	rv, err := e.view(r)
	if err != nil {
		return nil, err
	}
	sv, err := e.view(s)
	if err != nil {
		return nil, err
	}
	rr, sr := rv.Rel, sv.Rel
	e.Cnt.add(&e.Cnt.AntiJoins, 1)
	var sp *obs.Span
	if e.sink != nil {
		sp = &obs.Span{Op: "anti-join", Note: rv.Name + " ▷ " + sv.Name + " (" + impl.String() + ")", Start: time.Now()}
	}
	out = ra.AntiJoin(rr, sr, rCols, sCols, impl, e.gov)
	if sp != nil {
		sp.LeftRows, sp.RightRows, sp.OutRows = int64(rr.Len()), int64(sr.Len()), int64(out.Len())
		sp.Dur = time.Since(sp.Start)
		e.Emit(*sp)
	}
	return out, nil
}

// UnionByUpdate updates the target table in place from relation s using the
// chosen implementation, including the physical write pattern each
// implementation implies:
//
//   - merge / update from: compute the updated image, rewrite the table;
//   - full outer join: compute the joined image, rewrite the table;
//   - drop/alter: drop the old table and store s under the old name.
//
// It returns the changed-row delta: the result rows that differ from the
// table's previous content. An empty delta means the update was a no-op, so
// fixpoint loops can detect convergence without cloning the table and
// bag-comparing the images — and the delta doubles as the changed frontier a
// semi-naive iteration feeds forward.
func (e *Engine) UnionByUpdate(target string, s *relation.Relation, keyCols []int, impl ra.UBUImpl) (delta *relation.Relation, err error) {
	defer govern.RecoverTo(&err)
	t, err := e.Cat.Get(target)
	if err != nil {
		return nil, err
	}
	if !e.Cat.Owns(t) {
		// UBU is read-modify-write; concurrent sessions updating one shared
		// table serialize on its named lock so neither works from a stale
		// image. Session-private temps (the common recursion case) skip the
		// lock — no other session can reach them.
		unlock := e.Cat.LockTable(target)
		defer unlock()
		if t, err = e.Cat.Get(target); err != nil {
			return nil, err
		}
		// After the write, this statement must read its own result, not the
		// pre-write pinned image.
		defer e.snapForget(target)
	}
	e.Cnt.add(&e.Cnt.UBUs, 1)
	var sp *obs.Span
	if e.sink != nil {
		sp = &obs.Span{Op: "union-by-update", Note: target + " (" + impl.String() + ")", RightRows: int64(s.Len()), Start: time.Now()}
		defer func() {
			if err == nil {
				sp.Dur = time.Since(sp.Start)
				e.Emit(*sp)
			}
		}()
	}
	cur, err := t.Materialize()
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.LeftRows = int64(cur.Len())
	}
	if impl == ra.UBUReplace {
		// The delta of the attribute-less form: everything when the content
		// moved, nothing when the rewrite was an identical image.
		if ra.SameBag(cur, s) {
			delta = relation.New(t.Sch)
		} else {
			delta = s
		}
		temp := t.Temp
		sch := t.Sch
		if err := e.Cat.Drop(target); err != nil {
			return nil, err
		}
		kind := e.Prof.TempStore
		if !temp {
			kind = catalog.StorePagedLogged
		}
		nt, err := e.Cat.Create(target, sch, kind, temp)
		if err != nil {
			return nil, err
		}
		e.Cnt.add(&e.Cnt.Inserts, int64(s.Len()))
		if err := nt.InsertRelation(s); err != nil {
			return nil, err
		}
		e.Commit()
		if sp != nil {
			sp.OutRows = int64(s.Len())
		}
		return delta, nil
	}
	if impl == ra.UBUMerge {
		// MERGE is row-at-a-time DML: each matched update writes an undo
		// record of the old row image (temporary tables bypass the redo
		// log, but updates still produce undo) — the per-row cost behind
		// the paper's Tables 4/5 gap against the set-based alternatives.
		idx := relation.BuildHashIndex(cur, keyCols)
		var scratch []byte
		for _, st := range s.Tuples {
			e.gov.MustStep(1)
			idx.ProbeEach(st, keyCols, func(row int) bool {
				scratch = storage.EncodeTuple(scratch[:0], cur.Tuples[row])
				// Undo images are notes: pure logging cost, skipped by
				// recovery (redo replays the committed row images instead).
				e.wal.AppendNote(scratch)
				return true
			})
		}
	}
	updated, delta, err := ra.UnionByUpdateDelta(cur, s, keyCols, impl, e.gov)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.OutRows = int64(updated.Len())
	}
	return delta, e.StoreInto(target, updated)
}

// MergeInto writes a keyed merge (ra.KeyIndex.Merge) into the target
// table — this session's own, holding rows rows — touching only the rows
// the merge rewrites, in place (catalog.Table.UpdateRows). To anyone
// outside it is the union-by-update it replaces: it counts one, emits its
// span, and charges the governor what the full-outer union-by-update of
// the projected rows into the table would — one row per table row, one per
// output row (each table row's own) and one per projected row. It returns
// the changed-row delta, as UnionByUpdate does.
func (e *Engine) MergeInto(target string, rows int, res ra.MergeResult) (delta *relation.Relation, err error) {
	defer govern.RecoverTo(&err)
	t, err := e.Cat.Get(target)
	if err != nil {
		return nil, err
	}
	if !e.Cat.Owns(t) {
		return nil, fmt.Errorf("engine: keyed merge into %s, a table shared with other sessions", target)
	}
	e.Cnt.add(&e.Cnt.UBUs, 1)
	var sp *obs.Span
	if e.sink != nil {
		sp = &obs.Span{Op: "union-by-update", Note: target + " (keyed merge)", LeftRows: int64(rows), RightRows: int64(res.Pairs), OutRows: int64(rows), Start: time.Now()}
	}
	if err := e.gov.Step(2*rows + res.Pairs); err != nil {
		return nil, err
	}
	e.Cnt.add(&e.Cnt.Inserts, int64(len(res.Pos)))
	if err := t.UpdateRows(res.Pos, res.Rows); err != nil {
		return nil, err
	}
	e.Commit()
	if sp != nil {
		sp.Dur = time.Since(sp.Start)
		e.Emit(*sp)
	}
	return &relation.Relation{Sch: t.Sch.Qualify(t.Name), Tuples: res.Delta}, nil
}

// aggJoin is the materializing aggregate-join the sort-merge profiles keep
// (ra.MVJoin / ra.MMJoin under a caller-supplied join spec): join, count the
// intermediate, then ⊕-group-by groupCols over l.lW ⊙ r.rW. rW and groupCols
// index the joined (l ++ r) tuple; sch names the output, aggregate last.
func (e *Engine) aggJoin(l, r *relation.Relation, spec ra.EquiJoinSpec, lW, rW int, groupCols []int, sch schema.Schema, sr semiring.Semiring) (*relation.Relation, error) {
	joined := ra.EquiJoin(l, r, spec)
	if err := e.ChargeMaterialized(joined); err != nil {
		return nil, err
	}
	if spec.Span != nil {
		spec.Span.BytesMaterialized = int64(joined.Len()) * int64(joined.Sch.Arity()) * 16
	}
	agg := ra.SemiringAgg(schema.Column{Name: sch[len(groupCols)].Name}, sr, func(t relation.Tuple) (value.Value, error) {
		return sr.Times(t[lW], t[rW]), nil
	})
	out, err := ra.GroupBy(joined, groupCols, []ra.AggSpec{agg})
	if err != nil {
		return nil, err
	}
	out.Sch = sch
	return out, nil
}

// CountJoin charges one join to the execution counters (atomically). The
// SQL executor calls it for the joins it drives through ra directly.
func (e *Engine) CountJoin() { e.Cnt.add(&e.Cnt.Joins, 1) }

// CountGroupBy charges one group-by to the execution counters (atomically).
func (e *Engine) CountGroupBy() { e.Cnt.add(&e.Cnt.GroupBys, 1) }

// CountVectorizedBatch charges one vectorized operator batch, plus a row
// fallback when the batch's compiled kernel tree carried a row-at-a-time
// subtree. Both feed the process-wide metrics registry (MetricsJSON) so
// operators can see which path served their statements.
func (e *Engine) CountVectorizedBatch(fellBack bool) {
	e.Cnt.add(&e.Cnt.VectorizedBatches, 1)
	obs.Global.Counter("engine.vectorized_batches").Inc()
	if fellBack {
		e.Cnt.add(&e.Cnt.RowFallbacks, 1)
		obs.Global.Counter("engine.row_fallbacks").Inc()
	}
}

// CountWCOJ charges one worst-case-optimal multiway join: the join itself
// (so Joins counts physical join operators regardless of arity), its trie
// builds, and its intersection probes — all feeding the process-wide
// metrics registry like the other access-path counters.
func (e *Engine) CountWCOJ(builds, probes int64) {
	e.Cnt.add(&e.Cnt.Joins, 1)
	e.Cnt.add(&e.Cnt.WCOJBuilds, builds)
	e.Cnt.add(&e.Cnt.WCOJProbes, probes)
	obs.Global.Counter("engine.wcoj_joins").Inc()
	obs.Global.Counter("engine.wcoj_builds").Add(builds)
	obs.Global.Counter("engine.wcoj_probes").Add(probes)
}

// String describes the engine.
func (e *Engine) String() string {
	return fmt.Sprintf("engine(%s)", e.Prof.Name)
}

// Package obs is the engine's observability subsystem: per-operator
// execution spans delivered to a pluggable sink, a process-wide metrics
// registry (counters, gauges, histograms) snapshotable as JSON, and the
// EXPLAIN ANALYZE plan-tree model.
//
// The overhead contract: observation is strictly opt-in. Every hook in the
// executor is guarded by a single pointer check (is a sink attached?), and
// when no sink is attached no Span is constructed, no clock is read, and no
// allocation happens on the hot paths — the paper-shape experiments and the
// committed benchmark baselines run exactly as before. Metrics registry
// updates happen at statement and operator granularity (atomic adds), the
// same cost class as the engine's existing execution counters.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed operator execution: what ran, over how many tuples,
// with which physical choices, and for how long. Spans are emitted by the
// engine's operator wrappers, the SQL executor's join sites, the fused
// MV-/MM-join kernels, and the PSM loop driver (one span per iteration).
type Span struct {
	// Op is the operator kind: "join", "mv-join", "mm-join", "group-by",
	// "anti-join", "union-by-update", "iteration", "statement".
	Op string
	// Algo is the physical join algorithm ("hash", "sort-merge",
	// "index-merge", "nested-loop", or a "fused-hash" kernel); empty for
	// non-join operators.
	Algo string
	// Note carries free-form detail: table names, SQL-level implementation
	// choice, statement kind.
	Note string

	// LeftRows and RightRows are the input cardinalities (probe and build
	// side for hash plans); OutRows is the output cardinality.
	LeftRows, RightRows, OutRows int64

	// IndexBuilt reports a fresh build-side index construction inside this
	// operator; IndexCacheHit reports the build phase was served from the
	// catalog's version-keyed cache. At most one is set.
	IndexBuilt    bool
	IndexCacheHit bool

	// BytesMaterialized is the estimated footprint of tuples this operator
	// materialized (the engine's ChargeMaterialized estimate); zero for the
	// fused kernels — the point of fusion.
	BytesMaterialized int64

	// BuildDur and ProbeDur split a join's wall time into its build and
	// probe phases when the operator distinguishes them.
	BuildDur time.Duration
	ProbeDur time.Duration

	// Iteration is the PSM loop iteration this span belongs to (0 outside a
	// loop).
	Iteration int

	// Start and Dur locate the span in wall-clock time.
	Start time.Time
	Dur   time.Duration
}

// Sink consumes spans. Span is called from the statement's goroutine only,
// but a sink may be shared across statements, so implementations must be
// safe for concurrent use by multiple statements.
type Sink interface {
	Span(sp Span)
}

// Collector is a Sink that retains every span in memory, for tests,
// EXPLAIN-style reporting, and the REPL.
type Collector struct {
	mu    sync.Mutex
	spans []Span
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Span implements Sink.
func (c *Collector) Span(sp Span) {
	c.mu.Lock()
	c.spans = append(c.spans, sp)
	c.mu.Unlock()
}

// Spans returns a copy of the collected spans in arrival order.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// Len returns the number of collected spans.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Reset discards the collected spans.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.mu.Unlock()
}

// CountingSink is a Sink that only counts spans (one atomic add each) — the
// cheapest possible observer, used by the benchmark harness to measure the
// cost of the hooks themselves separately from any sink processing.
type CountingSink struct {
	n atomic.Int64
}

// Span implements Sink.
func (c *CountingSink) Span(Span) { c.n.Add(1) }

// Count returns the number of spans observed.
func (c *CountingSink) Count() int64 { return c.n.Load() }

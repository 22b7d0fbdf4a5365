// Package govern is the per-statement resource governor: it carries the
// statement's context.Context (cancellation and deadline) together with row
// and memory budgets, and provides the cooperative checkpoints the executor
// calls from its join/probe/fold loops. A governed statement that exceeds a
// budget fails with a typed error instead of exhausting the process; an
// ungoverned execution (nil *Governor) pays only a nil check per checkpoint,
// so the paper-shape experiments run exactly as before.
//
// The package also owns the panic-to-error boundary: operators deep in a
// governed loop abort via panic with a typed wrapper (mirroring how Go
// parsers unwind), and RecoverTo at the engine/driver boundary converts
// that — and any other library panic — into an ordinary query error, so a
// bug in an operator surfaces as a failed statement, not process death.
package govern

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Limits bounds one statement's execution. Zero values mean unlimited.
type Limits struct {
	// Timeout is the per-statement deadline, applied on top of whatever
	// deadline the caller's context already carries.
	Timeout time.Duration
	// MaxRows bounds the tuples a statement may process (probe-side rows
	// plus materialized join output — the TuplesMaterialized feed).
	MaxRows int64
	// MaxBytes bounds the statement's memory footprint: the estimated
	// bytes of join intermediates charged by the engine plus the resident
	// temp-table bytes (the storage layer's BytesUsed accounting) sampled
	// at iteration boundaries.
	MaxBytes int64
}

// ErrBudgetExceeded is the sentinel all budget violations match via
// errors.Is; the concrete error is a *BudgetError naming the resource.
var ErrBudgetExceeded = errors.New("govern: budget exceeded")

// BudgetError reports which budget a statement exhausted.
type BudgetError struct {
	Resource string // "rows" or "bytes"
	Limit    int64
	Used     int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("govern: %s budget exceeded (%d > limit %d)", e.Resource, e.Used, e.Limit)
}

// Is reports that every BudgetError matches ErrBudgetExceeded.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// PanicError is a recovered library panic surfaced as a query error.
type PanicError struct {
	Val   any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("govern: internal error (recovered panic): %v", e.Val)
}

// checkEvery is the cooperative-checkpoint cadence: the context is polled
// once per this many tuples stepped, keeping the per-tuple cost of a
// governed loop to an atomic add.
const checkEvery = 1024

// Governor governs one statement. All methods are safe on a nil receiver
// (no-ops returning nil), so operators can checkpoint unconditionally.
// The counters are atomics, so a governor is safe for concurrent use;
// operators step it only from the statement's goroutine, where MustStep's
// abort is recovered.
type Governor struct {
	ctx    context.Context
	cancel context.CancelFunc
	lim    Limits
	rows   atomic.Int64
	bytes  atomic.Int64
	pend   atomic.Int64 // tuples since the last context poll
	sticky atomic.Pointer[error]
}

// New returns a governor for one statement under ctx and lim, applying
// lim.Timeout as a context deadline. Callers must Close it when the
// statement ends to release the deadline timer.
func New(ctx context.Context, lim Limits) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Governor{lim: lim}
	if lim.Timeout > 0 {
		g.ctx, g.cancel = context.WithTimeout(ctx, lim.Timeout)
	} else {
		g.ctx, g.cancel = context.WithCancel(ctx)
	}
	return g
}

// Close releases the governor's deadline timer.
func (g *Governor) Close() {
	if g != nil && g.cancel != nil {
		g.cancel()
	}
}

// Context returns the governed context (context.Background for nil).
func (g *Governor) Context() context.Context {
	if g == nil {
		return context.Background()
	}
	return g.ctx
}

// fail records err as the governor's sticky failure and returns it; the
// first failure wins so every later checkpoint reports the same cause.
// The winning failure is classified into the process metrics registry —
// a cold path, entered at most once per statement.
func (g *Governor) fail(err error) error {
	p := &err
	if !g.sticky.CompareAndSwap(nil, p) {
		return *g.sticky.Load()
	}
	switch {
	case errors.Is(err, ErrBudgetExceeded):
		obs.Global.Counter("govern.budget_trips").Inc()
	case errors.Is(err, context.DeadlineExceeded):
		obs.Global.Counter("govern.timeouts").Inc()
	case errors.Is(err, context.Canceled):
		obs.Global.Counter("govern.cancellations").Inc()
	default:
		obs.Global.Counter("govern.failures").Inc()
	}
	return err
}

// Err returns the statement's failure, if any: a previously tripped budget,
// or the context's cancellation/deadline error. It performs a full check
// (no cadence).
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	if p := g.sticky.Load(); p != nil {
		return *p
	}
	if err := g.ctx.Err(); err != nil {
		return g.fail(err)
	}
	return nil
}

// Check is the statement-boundary checkpoint: context plus accumulated
// budgets, unconditionally.
func (g *Governor) Check() error {
	if g == nil {
		return nil
	}
	if err := g.Err(); err != nil {
		return err
	}
	if g.lim.MaxBytes > 0 {
		if b := g.bytes.Load(); b > g.lim.MaxBytes {
			return g.fail(&BudgetError{Resource: "bytes", Limit: g.lim.MaxBytes, Used: b})
		}
	}
	return nil
}

// Step is the in-loop checkpoint: it charges n tuples against the row
// budget and polls the context every checkEvery tuples. An error is sticky:
// every later Step returns it.
func (g *Governor) Step(n int) error {
	if g == nil {
		return nil
	}
	rows := g.rows.Add(int64(n))
	if g.lim.MaxRows > 0 && rows > g.lim.MaxRows {
		return g.fail(&BudgetError{Resource: "rows", Limit: g.lim.MaxRows, Used: rows})
	}
	if g.pend.Add(int64(n)) < checkEvery {
		if p := g.sticky.Load(); p != nil {
			return *p
		}
		return nil
	}
	g.pend.Store(0)
	return g.Err()
}

// MustStep is Step for pure operators that cannot return an error: it
// aborts the statement by panicking with the governor error, which
// RecoverTo at the engine boundary converts back into that error. Call it
// only on the statement's goroutine: a panic on any other goroutine is not
// recovered and crashes the process.
func (g *Governor) MustStep(n int) {
	if err := g.Step(n); err != nil {
		Abort(err)
	}
}

// Batch charges one goroutine's loop to a governor in chunks: Step adds to
// a local count and passes it to MustStep once it reaches checkEvery, so a
// tight loop pays an integer add per tuple instead of the governor's atomic
// adds and still polls the context once per cadence. A chunk ends early
// where the row budget would trip, so a trip reports the count per-tuple
// MustStep calls report. Flush charges the rest; the total is what
// per-tuple calls charge.
type Batch struct {
	g       *Governor
	n, room int
}

// Batch starts a chunked charge against g.
func (g *Governor) Batch() Batch { return Batch{g: g, room: g.room()} }

// room is how many tuples a Batch may hold back: checkEvery, or the
// tuples left until the row budget trips.
func (g *Governor) room() int {
	if g != nil && g.lim.MaxRows > 0 {
		if left := g.lim.MaxRows - g.rows.Load() + 1; left < checkEvery {
			return max(int(left), 1)
		}
	}
	return checkEvery
}

// Step charges n tuples, aborting as MustStep does.
func (b *Batch) Step(n int) {
	b.n += n
	if b.n >= b.room {
		b.Flush()
	}
}

// Flush charges the tuples stepped since the last charge.
func (b *Batch) Flush() {
	if n := b.n; n > 0 {
		b.n = 0
		b.g.MustStep(n)
		b.room = b.g.room()
	}
}

// ChargeBytes charges an estimated allocation against the memory budget.
func (g *Governor) ChargeBytes(n int64) error {
	if g == nil {
		return nil
	}
	b := g.bytes.Add(n)
	if g.lim.MaxBytes > 0 && b > g.lim.MaxBytes {
		return g.fail(&BudgetError{Resource: "bytes", Limit: g.lim.MaxBytes, Used: b})
	}
	return nil
}

// CheckMem checks resident bytes (temp-table storage sampled at an
// iteration boundary) plus charged intermediates against the memory budget.
func (g *Governor) CheckMem(resident int64) error {
	if g == nil {
		return nil
	}
	if g.lim.MaxBytes <= 0 {
		return g.Err()
	}
	used := resident + g.bytes.Load()
	if used > g.lim.MaxBytes {
		return g.fail(&BudgetError{Resource: "bytes", Limit: g.lim.MaxBytes, Used: used})
	}
	return g.Err()
}

// Rows returns the tuples charged so far.
func (g *Governor) Rows() int64 {
	if g == nil {
		return 0
	}
	return g.rows.Load()
}

// Bytes returns the intermediate bytes charged so far.
func (g *Governor) Bytes() int64 {
	if g == nil {
		return 0
	}
	return g.bytes.Load()
}

// governPanic wraps a governor abort so RecoverTo can tell it apart from a
// genuine library panic.
type governPanic struct{ err error }

// Abort unwinds the statement with err; only RecoverTo catches it.
func Abort(err error) { panic(governPanic{err: err}) }

// RecoverTo is the engine/driver boundary: deferred around a statement, it
// converts a governor abort into its error and any other panic into a
// *PanicError carrying the stack, leaving *errp untouched when there is no
// panic. It must be deferred directly (defer govern.RecoverTo(&err)).
func RecoverTo(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if gp, ok := r.(governPanic); ok {
		*errp = gp.err
		return
	}
	obs.Global.Counter("govern.panics").Inc()
	*errp = &PanicError{Val: r, Stack: debug.Stack()}
}

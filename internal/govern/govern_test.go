package govern

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilGovernorIsFree(t *testing.T) {
	var g *Governor
	if err := g.Step(10); err != nil {
		t.Fatal(err)
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if err := g.ChargeBytes(1 << 40); err != nil {
		t.Fatal(err)
	}
	g.MustStep(1) // must not panic
	g.Close()
	if g.Context() == nil {
		t.Fatal("nil governor must still yield a context")
	}
}

func TestRowBudget(t *testing.T) {
	g := New(context.Background(), Limits{MaxRows: 100})
	defer g.Close()
	if err := g.Step(100); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := g.Step(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want rows BudgetError, got %#v", err)
	}
	// Sticky: later checkpoints keep reporting the first failure.
	if err2 := g.Check(); !errors.Is(err2, ErrBudgetExceeded) {
		t.Fatalf("sticky failure lost: %v", err2)
	}
}

func TestBytesBudget(t *testing.T) {
	g := New(context.Background(), Limits{MaxBytes: 1000})
	defer g.Close()
	if err := g.ChargeBytes(999); err != nil {
		t.Fatal(err)
	}
	if err := g.ChargeBytes(2); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	g2 := New(context.Background(), Limits{MaxBytes: 1000})
	defer g2.Close()
	if err := g2.CheckMem(2000); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("resident bytes must count: %v", err)
	}
}

func TestCancellationSurfacesWithinCadence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	defer g.Close()
	cancel()
	var err error
	for i := 0; i < 2*checkEvery; i++ {
		if err = g.Step(1); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled within one cadence, got %v", err)
	}
}

func TestDeadline(t *testing.T) {
	g := New(context.Background(), Limits{Timeout: time.Nanosecond})
	defer g.Close()
	time.Sleep(time.Millisecond)
	if err := g.Check(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestConcurrentSteps(t *testing.T) {
	g := New(context.Background(), Limits{MaxRows: 1 << 40})
	defer g.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = g.Step(1)
			}
		}()
	}
	wg.Wait()
	if g.Rows() != 8000 {
		t.Fatalf("rows = %d, want 8000", g.Rows())
	}
}

func TestRecoverToGovernAbort(t *testing.T) {
	boundary := func() (err error) {
		defer RecoverTo(&err)
		Abort(context.Canceled)
		return nil
	}
	if err := boundary(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRecoverToLibraryPanic(t *testing.T) {
	boundary := func() (err error) {
		defer RecoverTo(&err)
		panic("boom")
	}
	err := boundary()
	var pe *PanicError
	if !errors.As(err, &pe) || fmt.Sprint(pe.Val) != "boom" {
		t.Fatalf("want PanicError(boom), got %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError must carry a stack")
	}
}

func TestRecoverToNoPanicLeavesError(t *testing.T) {
	boundary := func() (err error) {
		defer RecoverTo(&err)
		return errors.New("ordinary")
	}
	if err := boundary(); err == nil || err.Error() != "ordinary" {
		t.Fatalf("RecoverTo clobbered a normal error: %v", err)
	}
}

func TestMustStepAbortsOnBudget(t *testing.T) {
	g := New(context.Background(), Limits{MaxRows: 1})
	defer g.Close()
	run := func() (err error) {
		defer RecoverTo(&err)
		g.MustStep(5)
		return nil
	}
	if err := run(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// TestGovernorsIndependent: concurrent governors account separately — one
// blowing its byte budget neither charges nor fails its neighbors. This is
// the invariant per-session engine governors rely on.
func TestGovernorsIndependent(t *testing.T) {
	starved := New(context.Background(), Limits{MaxBytes: 100})
	generous := New(context.Background(), Limits{MaxBytes: 1 << 20})
	defer starved.Close()
	defer generous.Close()

	var wg sync.WaitGroup
	var starvedErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := starved.ChargeBytes(10); err != nil {
				starvedErr = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := generous.ChargeBytes(10); err != nil {
				t.Errorf("generous governor failed: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if !errors.Is(starvedErr, ErrBudgetExceeded) {
		t.Fatalf("starved governor: want ErrBudgetExceeded, got %v", starvedErr)
	}
	if err := generous.Err(); err != nil {
		t.Fatalf("neighbor's budget kill leaked: %v", err)
	}
	if got := generous.Bytes(); got != 1000 {
		t.Fatalf("generous governor charged %d bytes, want 1000", got)
	}
}

// TestBatchChargesAsPerTupleSteps: a Batch charges the total per-tuple
// MustStep calls charge, trips a row budget with the same count, and polls
// a cancelled context within one cadence.
func TestBatchChargesAsPerTupleSteps(t *testing.T) {
	run := func(g *Governor, n int, batched bool) (err error) {
		defer RecoverTo(&err)
		b := g.Batch()
		for i := 0; i < n; i++ {
			if batched {
				b.Step(1)
			} else {
				g.MustStep(1)
			}
		}
		b.Flush()
		return nil
	}
	for _, lim := range []int64{0, 1, 7, checkEvery - 1, checkEvery, 3*checkEvery + 5} {
		for _, n := range []int{0, 1, 7, checkEvery, 4*checkEvery + 3} {
			per, batch := New(context.Background(), Limits{MaxRows: lim}), New(context.Background(), Limits{MaxRows: lim})
			perErr, batchErr := run(per, n, false), run(batch, n, true)
			if fmt.Sprint(perErr) != fmt.Sprint(batchErr) || per.Rows() != batch.Rows() {
				t.Errorf("limit %d, %d tuples: per-tuple %v (%d rows), batched %v (%d rows)", lim, n, perErr, per.Rows(), batchErr, batch.Rows())
			}
			per.Close()
			batch.Close()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	defer g.Close()
	cancel()
	if err := run(g, checkEvery, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled within one cadence, got %v", err)
	}
}

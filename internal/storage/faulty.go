package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/relation"
)

// ErrInjected is the failure FaultyStore returns.
var ErrInjected = fmt.Errorf("storage: injected fault")

// ErrTransient marks a fault that a retry may clear (a flaky device rather
// than a corrupt one). Retry policies match it with errors.Is.
var ErrTransient = errors.New("storage: transient fault")

// transientFault wraps ErrInjected so it matches both sentinels.
type transientFault struct{}

func (transientFault) Error() string { return "storage: injected fault (transient)" }
func (transientFault) Is(target error) bool {
	return target == ErrInjected || target == ErrTransient
}

// FaultPlan scripts fault injection across every store that shares it: one
// global operation counter, so "inject at operation index k" means the k-th
// storage operation anywhere in the engine — the knob the chaos sweep
// turns. The zero plan injects nothing and just counts. Counters are
// atomics; concurrent statements may tick them at once.
type FaultPlan struct {
	// FailAt injects one fault at exactly the FailAt-th operation
	// (1-based). 0 disables.
	FailAt int64
	// EveryNth injects a fault on every Nth operation. 0 disables.
	EveryNth int64
	// Transient makes injected faults retryable: the returned error
	// matches ErrTransient and the operation index is still consumed, so
	// an immediate retry of the same logical operation passes.
	Transient bool

	ops      atomic.Int64
	injected atomic.Int64
}

// Ops returns the operations observed so far.
func (p *FaultPlan) Ops() int64 { return p.ops.Load() }

// Injected returns the faults injected so far.
func (p *FaultPlan) Injected() int64 { return p.injected.Load() }

// tick consumes one operation index and returns the scripted fault, if any.
func (p *FaultPlan) tick() error {
	n := p.ops.Add(1)
	hit := (p.FailAt > 0 && n == p.FailAt) || (p.EveryNth > 0 && n%p.EveryNth == 0)
	if !hit {
		return nil
	}
	p.injected.Add(1)
	if p.Transient {
		return transientFault{}
	}
	return ErrInjected
}

// FaultyStore wraps a TupleStore with fault injection for exercising error
// paths in the catalog, engine, and PSM layers. Two modes:
//
//   - legacy: FailAfter > 0 and Plan == nil — every operation after the
//     first FailAfter successful ones fails;
//   - scripted: Plan != nil — faults follow the shared plan (fail-at-index,
//     every-Nth, transient), with one operation counter across all stores
//     sharing the plan.
type FaultyStore struct {
	Inner     TupleStore
	FailAfter int
	Plan      *FaultPlan
	ops       int
}

func (s *FaultyStore) tick() error {
	if s.Plan != nil {
		return s.Plan.tick()
	}
	s.ops++
	if s.ops > s.FailAfter {
		return ErrInjected
	}
	return nil
}

// Insert implements TupleStore.
func (s *FaultyStore) Insert(t relation.Tuple) error {
	if err := s.tick(); err != nil {
		return err
	}
	return s.Inner.Insert(t)
}

// Scan implements TupleStore.
func (s *FaultyStore) Scan(fn func(t relation.Tuple) bool) error {
	if err := s.tick(); err != nil {
		return err
	}
	return s.Inner.Scan(fn)
}

// Len implements TupleStore.
func (s *FaultyStore) Len() int { return s.Inner.Len() }

// Truncate implements TupleStore.
func (s *FaultyStore) Truncate() error {
	if err := s.tick(); err != nil {
		return err
	}
	return s.Inner.Truncate()
}

// BytesUsed implements TupleStore.
func (s *FaultyStore) BytesUsed() int64 { return s.Inner.BytesUsed() }

// RetryPolicy retries transient storage faults with exponential backoff.
type RetryPolicy struct {
	// Attempts is the total tries per operation (1 = no retry; 0 disables
	// the policy entirely).
	Attempts int
	// Backoff is the sleep before the first retry; each further retry
	// doubles it. 0 retries immediately (the in-memory substrate has no
	// real device to wait for, so tests use 0).
	Backoff time.Duration
}

// Do runs fn, retrying while it fails with an error matching ErrTransient.
// The final error — transient or not — is returned as-is.
func (p RetryPolicy) Do(fn func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := p.Backoff
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 && backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = fn(); err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
	}
	return err
}

// RetryingStore wraps a TupleStore with a RetryPolicy, absorbing transient
// faults from the layer below (a FaultyStore in tests, a flaky device in
// the deployment story). Scan is retried whole: the inner scan either
// failed before its first callback or the callback positions are
// idempotent reads, and the wrapped stores re-iterate from the start.
type RetryingStore struct {
	Inner  TupleStore
	Policy RetryPolicy
}

// Insert implements TupleStore.
func (s *RetryingStore) Insert(t relation.Tuple) error {
	return s.Policy.Do(func() error { return s.Inner.Insert(t) })
}

// Scan implements TupleStore.
func (s *RetryingStore) Scan(fn func(t relation.Tuple) bool) error {
	return s.Policy.Do(func() error { return s.Inner.Scan(fn) })
}

// Len implements TupleStore.
func (s *RetryingStore) Len() int { return s.Inner.Len() }

// Truncate implements TupleStore.
func (s *RetryingStore) Truncate() error {
	return s.Policy.Do(func() error { return s.Inner.Truncate() })
}

// BytesUsed implements TupleStore.
func (s *RetryingStore) BytesUsed() int64 { return s.Inner.BytesUsed() }

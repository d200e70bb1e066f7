package jobs

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"droidracer/internal/budget"
)

// RetryPolicy bounds re-execution of failed job attempts. Retries target
// transient failures such as scheduling-dependent divergence, while the
// circuit breaker (BreakerPolicy) catches inputs that fail
// deterministically.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per job (minimum and
	// default 1: no retry).
	MaxAttempts int
	// BaseBackoff is the pause before the second attempt; it doubles per
	// attempt with up to 50% deterministic jitter from Seed.
	BaseBackoff time.Duration
	// Seed seeds the backoff jitter (default 1).
	Seed int64
	// Retryable decides whether an error is worth another attempt. The
	// default retries everything except explicit cancellation, deadline
	// trips and deterministic failures.
	Retryable func(error) bool
	// Sleep replaces the interruptible pause in tests.
	Sleep func(time.Duration)
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts < 1 {
		r.MaxAttempts = 1
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Retryable == nil {
		r.Retryable = func(err error) bool {
			// Deterministic failures — a resource sandbox the input just
			// exhausted, say — die the same way on every attempt; burning
			// retries on them only multiplies dead subprocesses.
			var det interface{ Deterministic() bool }
			if errors.As(err, &det) && det.Deterministic() {
				return false
			}
			be, ok := budget.AsError(err)
			if !ok {
				return true
			}
			// A deadline trip would trip again: the next attempt runs
			// under the same deadline.
			return !be.Canceled() && be.Resource != budget.ResourceWallClock &&
				!errors.Is(be.Cause, context.DeadlineExceeded)
		}
	}
	return r
}

// pause sleeps the exponential backoff for the given 1-based attempt,
// interruptibly: a canceled pool context cuts the wait short so graceful
// shutdown is not held hostage by a backoff timer.
func (r RetryPolicy) pause(ctx context.Context, attempt int) error {
	if r.BaseBackoff <= 0 {
		return nil
	}
	d := r.BaseBackoff << (attempt - 1)
	rng := rand.New(rand.NewSource(r.Seed + int64(attempt)))
	d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	if r.Sleep != nil {
		r.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return &budget.Error{Stage: "jobs", Resource: budget.ResourceContext, Cause: ctx.Err()}
	case <-t.C:
		return nil
	}
}

// BreakerPolicy configures the per-input circuit breaker: after
// Threshold consecutive recovered panics on the same job key, the
// breaker opens for that key and later runs fail at once instead of
// re-entering the code that panicked. Nothing else counts. An exhausted
// budget says as much about the caller's deadline as about the input
// (three short client deadlines on one body must not refuse every later
// submitter of it), parse errors are permanent, and divergence is
// transient (retries handle it).
type BreakerPolicy struct {
	// Threshold is the consecutive hard-failure count that opens the
	// breaker (default 3; negative disables the breaker).
	Threshold int
}

// Breaker is a keyed consecutive-failure circuit breaker, the shared
// mechanism behind two deployments with different recovery stories:
//
//   - The pool's per-input breaker (keys are trace paths). It never
//     calls Reset: the same input deterministically re-fed to the code
//     that paniced will panic again, so an open key stays open for the
//     life of the pool and its jobs fail without running.
//   - The gateway's per-backend breaker (keys are backend URLs).
//     Backends do recover — a crashed daemon restarts — so the health
//     prober acts as the half-open probe: a successful /readyz check
//     calls Reset and the backend takes traffic again.
//
// The zero value is usable; fields must not change after first use.
type Breaker struct {
	// Threshold is the consecutive counted-failure count that opens the
	// breaker for a key (default 3; negative disables the breaker).
	Threshold int
	// Counts classifies errors that count toward the threshold. Nil
	// counts every error.
	Counts func(error) bool
	// OnOpen, OnStreakReset, and OnReset observe state transitions (for
	// metrics); they are called outside the breaker lock.
	OnOpen        func(key string, err error)
	OnStreakReset func(key string)
	OnReset       func(key string)

	mu          sync.Mutex
	consecutive map[string]int
	open        map[string]error
}

// threshold resolves the effective threshold.
func (b *Breaker) threshold() int {
	if b.Threshold == 0 {
		return 3
	}
	return b.Threshold
}

// OpenFor reports whether the breaker is open for key, with the failure
// that opened it.
func (b *Breaker) OpenFor(key string) (error, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	err, ok := b.open[key]
	return err, ok
}

// OpenCount returns the number of keys the breaker is open for.
func (b *Breaker) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.open)
}

// Success resets the consecutive-failure count for key. It does not
// close an open breaker — that is Reset, and only a caller with
// out-of-band evidence of recovery (a health probe) may claim it.
func (b *Breaker) Success(key string) {
	b.mu.Lock()
	streak := b.consecutive[key] > 0
	delete(b.consecutive, key)
	b.mu.Unlock()
	if streak && b.OnStreakReset != nil {
		// A sub-threshold failure streak ended in success. The breaker
		// never opened for this key, so this is not a state transition —
		// just a streak reset, observed on its own hook.
		b.OnStreakReset(key)
	}
}

// Failure records a failed attempt; counted failures accumulate toward
// the threshold. It reports whether this failure opened the breaker.
func (b *Breaker) Failure(key string, err error) bool {
	if b.threshold() < 0 || (b.Counts != nil && !b.Counts(err)) {
		return false
	}
	b.mu.Lock()
	if _, already := b.open[key]; already {
		b.mu.Unlock()
		return false
	}
	if b.consecutive == nil {
		b.consecutive = make(map[string]int)
	}
	b.consecutive[key]++
	opened := b.consecutive[key] >= b.threshold()
	if opened {
		if b.open == nil {
			b.open = make(map[string]error)
		}
		b.open[key] = err
	}
	b.mu.Unlock()
	if opened && b.OnOpen != nil {
		b.OnOpen(key, err)
	}
	return opened
}

// Reset closes an open breaker for key and clears its failure streak.
// It is the half-open-probe success path: callers invoke it only after
// independently verifying the key recovered (the gateway's health
// prober saw /readyz answer 200). It reports whether the breaker was
// open.
func (b *Breaker) Reset(key string) bool {
	b.mu.Lock()
	_, wasOpen := b.open[key]
	delete(b.open, key)
	delete(b.consecutive, key)
	b.mu.Unlock()
	if wasOpen && b.OnReset != nil {
		b.OnReset(key)
	}
	return wasOpen
}

// newBreaker builds the pool's per-input breaker: hard failures only
// (recovered panics), jobs-namespaced transition metrics, and no reset
// path.
func newBreaker(p BreakerPolicy) *Breaker {
	b := &Breaker{
		Threshold: p.Threshold,
		Counts:    hardFailure,
		OnStreakReset: func(string) {
			breakerStreakResets.Inc()
		},
	}
	b.OnOpen = func(string, error) {
		breakerTransitions["open"].Inc()
		breakersOpen.Set(int64(b.OpenCount()))
	}
	return b
}

// hardFailure reports whether err is the kind of failure the pool's
// breaker counts: a recovered panic — not an exhausted budget, not
// cancellation, not plain errors.
func hardFailure(err error) bool {
	var pe *budget.PanicError
	return errors.As(err, &pe)
}

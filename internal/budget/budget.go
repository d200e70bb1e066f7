// Package budget provides the resource-budget and fault-isolation
// primitives of the hardened analysis pipeline: wall-clock deadlines,
// a cap on explorer sequences, cooperative cancellation via
// context.Context, and panic isolation at pipeline boundaries.
//
// The paper's detector ran "seconds to hours" per trace with graphs up
// to 20 MB (§6); a service analyzing adversarial traces must never hang
// or OOM on one bad input. Every hot loop of the pipeline (the stream
// replay, the explorer DFS) polls a Checker, which turns an exhausted budget into a structured *Error
// instead of an unbounded computation. Callers surface it with the
// partial results produced so far (see core.AnalyzeContext).
package budget

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// Limits bound one unit of analysis work. The zero value means
// unlimited. Wall combines with any context deadline; the earlier of
// the two wins.
type Limits struct {
	// Wall is the wall-clock budget for the whole unit of work.
	Wall time.Duration
	// MaxSequences caps the number of event-sequence prefixes the UI
	// explorer may execute.
	MaxSequences int
}

// IsZero reports whether no limit is set.
func (l Limits) IsZero() bool {
	return l.Wall == 0 && l.MaxSequences == 0
}

// Resource names the budget dimension an Error reports against.
type Resource string

// Budgeted resources.
const (
	ResourceWallClock Resource = "wall-clock"
	ResourceSequences Resource = "sequences"
	ResourceContext   Resource = "context"
)

// Error is the structured budget/cancellation error of the pipeline. It
// records which stage stopped, which resource ran out, and — for
// countable resources — how far over the limit the work was when it
// stopped. Partial results are returned alongside the error by the
// stage that produced it (see core.AnalyzeContext, explorer
// ExploreContext).
type Error struct {
	// Stage is the pipeline stage that stopped, e.g. "stream-replay".
	Stage string
	// Resource is the exhausted budget dimension.
	Resource Resource
	// Limit and Used quantify countable resources; both are zero for
	// wall-clock and context errors.
	Limit, Used int64
	// Cause carries the context error for Resource == ResourceContext.
	Cause error
}

// Error implements error.
func (e *Error) Error() string {
	switch e.Resource {
	case ResourceContext:
		return fmt.Sprintf("budget: %s canceled: %v", e.Stage, e.Cause)
	case ResourceWallClock:
		return fmt.Sprintf("budget: %s exceeded the wall-clock budget", e.Stage)
	default:
		return fmt.Sprintf("budget: %s exceeded the %s budget (%d > %d)",
			e.Stage, e.Resource, e.Used, e.Limit)
	}
}

// Unwrap exposes the context cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Cause }

// Canceled reports whether the error represents an explicit caller
// cancellation (context.Canceled) rather than an exhausted budget.
// Deadline expiry — from Limits.Wall or a context deadline — counts as
// budget exhaustion instead.
func (e *Error) Canceled() bool {
	return e.Cause != nil && errors.Is(e.Cause, context.Canceled)
}

// AsError unwraps err to a budget *Error when there is one in its chain.
func AsError(err error) (*Error, bool) {
	var be *Error
	ok := errors.As(err, &be)
	return be, ok
}

// PanicError is a panic captured at a pipeline boundary by Isolate: one
// broken app model or corrupt trace fails its unit of work with this
// typed error instead of crashing the process.
type PanicError struct {
	// Stage is the boundary that recovered the panic.
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: recovered panic: %v", e.Stage, e.Value)
}

// Unwrap exposes an underlying error panic value to errors.Is/As, so a
// panic(&android.ModelError{...}) recovered here still matches
// errors.As(err, &modelErr).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Isolate runs fn, converting a panic into a *PanicError. It is the
// per-unit-of-work fault boundary used by the evaluation harness, the
// command-line tools, and core.AnalyzeContext.
func Isolate(stage string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Stage: stage, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// checkInterval rate-limits the wall-clock/context poll: Check consults
// the clock once per this many calls, so hot loops can call it per
// iteration at the cost of an increment and a mask.
const checkInterval = 256

// Checker is the cooperative budget monitor one unit of work threads
// through its stages. A nil *Checker is valid and never trips, so
// unbudgeted call paths (an analysis without a deadline) pay nothing.
//
// A Checker is not safe for concurrent use; each unit of work owns one.
type Checker struct {
	ctx    context.Context
	limits Limits
	// start carries Go's monotonic clock reading; the wall budget is
	// enforced as time.Since(start) > wall, so a wall-clock jump (NTP
	// step, suspend/resume of the host) in a long-running daemon can
	// neither instantly expire nor extend a job's deadline.
	start   time.Time
	wall    time.Duration
	hasWall bool
	stage   string
	calls   uint32
}

// NewChecker builds a checker for one unit of work. The effective
// deadline is the earlier of ctx's deadline and now+limits.Wall,
// captured once as a monotonic duration from start. A nil result is
// returned when there is nothing to enforce (background context, zero
// limits), keeping the unbudgeted path free.
func NewChecker(ctx context.Context, limits Limits) *Checker {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Checker{ctx: ctx, limits: limits, start: time.Now()}
	if limits.Wall > 0 {
		c.wall = limits.Wall
		c.hasWall = true
	}
	if d, ok := ctx.Deadline(); ok {
		// Convert the context deadline to a monotonic duration once, at
		// start; a negative remainder means it already expired.
		if remain := d.Sub(c.start); !c.hasWall || remain < c.wall {
			c.wall = remain
			c.hasWall = true
		}
	}
	if !c.hasWall && ctx.Done() == nil && limits.IsZero() {
		return nil
	}
	return c
}

// Active reports whether the checker can ever trip. It is false for a
// nil checker.
func (c *Checker) Active() bool { return c != nil }

// Limits returns the configured limits (zero for a nil checker).
func (c *Checker) Limits() Limits {
	if c == nil {
		return Limits{}
	}
	return c.limits
}

// SetStage labels subsequent errors with the named pipeline stage.
func (c *Checker) SetStage(stage string) {
	if c != nil {
		c.stage = stage
	}
}

// Stage returns the current stage label.
func (c *Checker) Stage() string {
	if c == nil {
		return ""
	}
	return c.stage
}

// Check polls the wall clock and the context, rate-limited so it is
// cheap enough for per-iteration use in hot loops. It returns nil until
// the budget trips, then a *Error.
func (c *Checker) Check() error {
	if c == nil {
		return nil
	}
	c.calls++
	if c.calls&(checkInterval-1) != 0 {
		return nil
	}
	return c.CheckNow()
}

// CheckNow polls the wall clock and the context immediately (stage
// boundaries, chunked scheduler runs).
func (c *Checker) CheckNow() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.ctx.Done():
		cause := c.ctx.Err()
		if errors.Is(cause, context.DeadlineExceeded) {
			return &Error{Stage: c.stage, Resource: ResourceWallClock, Cause: cause}
		}
		return &Error{Stage: c.stage, Resource: ResourceContext, Cause: cause}
	default:
	}
	if c.hasWall && time.Since(c.start) > c.wall {
		return &Error{Stage: c.stage, Resource: ResourceWallClock}
	}
	return nil
}

// Sequences enforces MaxSequences against the given prefix count.
func (c *Checker) Sequences(used int) error {
	if c == nil || c.limits.MaxSequences <= 0 || used <= c.limits.MaxSequences {
		return nil
	}
	return &Error{Stage: c.stage, Resource: ResourceSequences,
		Limit: int64(c.limits.MaxSequences), Used: int64(used)}
}

// Elapsed returns the time since the checker was created (zero for a
// nil checker).
func (c *Checker) Elapsed() time.Duration {
	if c == nil {
		return 0
	}
	return time.Since(c.start)
}

package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/trace"
)

// syntheticTrace builds a valid execution of the given number of tasks:
// one looper thread consuming FIFO-posted tasks, each touching one of 64
// shared locations. 25000 tasks ≈ 100k operations.
func syntheticTrace(tasks int) *trace.Trace {
	tr := &trace.Trace{}
	tr.Append(trace.ThreadInit(1))
	tr.Append(trace.AttachQ(1))
	tr.Append(trace.LoopOnQ(1))
	for i := 0; i < tasks; i++ {
		task := trace.TaskID(fmt.Sprintf("T%d", i))
		loc := trace.Loc(fmt.Sprintf("shared%d", i%64))
		tr.Append(trace.Post(0, task, 1))
		tr.Append(trace.Begin(1, task))
		tr.Append(trace.Write(1, loc))
		tr.Append(trace.End(1, task))
	}
	return tr
}

// TestAnalyzeDeadlineDegrades is the headline robustness property: a
// 50 ms deadline on a ≥100k-op trace produces a degraded report well
// within 2× the deadline — no hang, no panic, no OOM from the O(n²)
// closure the full analysis would attempt.
func TestAnalyzeDeadlineDegrades(t *testing.T) {
	tr := syntheticTrace(25000)
	if tr.Len() < 100000 {
		t.Fatalf("synthetic trace too small: %d ops", tr.Len())
	}
	opts := core.DefaultOptions()
	opts.Budget = core.Budget{Wall: 50 * time.Millisecond}
	start := time.Now()
	res, err := core.Analyze(tr, opts)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("degradation should absorb the budget error: %v", err)
	}
	if !res.Degraded {
		t.Fatal("full analysis of 100k ops in 50ms is implausible; expected a degraded result")
	}
	if res.DegradedReason == nil {
		t.Fatal("degraded result carries no reason")
	}
	if be, ok := budget.AsError(res.DegradedReason); !ok || be.Resource != budget.ResourceWallClock {
		t.Fatalf("reason = %v", res.DegradedReason)
	}
	if res.Graph != nil {
		t.Fatal("degraded result should not carry the abandoned graph")
	}
	// The synthetic trace has no multithreaded races (all writes ordered
	// by the looper), so the pure-MT fallback reports nothing — the point
	// is that a report exists at all.
	if res.Trace == nil || res.Stats.Length == 0 {
		t.Fatal("degraded result is missing trace/stats")
	}
	// 2× the deadline, the acceptance bound, with the budget polled even
	// inside bitset allocation; allow scheduling noise on top.
	if elapsed > 2*(50*time.Millisecond)+50*time.Millisecond {
		t.Fatalf("analysis took %v, want ≤ ~100ms", elapsed)
	}
}

// TestAnalyzeBudgetErrorWithPartialResult asserts that with degradation
// off, budget exhaustion surfaces as a typed *budget.Error alongside the
// partial result built so far.
func TestAnalyzeBudgetErrorWithPartialResult(t *testing.T) {
	tr := syntheticTrace(25000)
	opts := core.DefaultOptions()
	opts.Budget = core.Budget{Wall: 50 * time.Millisecond}
	opts.DegradeOnBudget = false
	res, err := core.Analyze(tr, opts)
	be, ok := budget.AsError(err)
	if !ok {
		t.Fatalf("want *budget.Error, got %v", err)
	}
	if be.Canceled() {
		t.Fatal("deadline expiry is not a cancellation")
	}
	if res == nil || res.Trace == nil {
		t.Fatal("no partial result alongside the budget error")
	}
	if res.Degraded {
		t.Fatal("partial result must not be marked degraded")
	}
}

// TestAnalyzeNodeBudget asserts MaxGraphNodes trips before the O(n²)
// reachability allocation and degrades.
func TestAnalyzeNodeBudget(t *testing.T) {
	tr := syntheticTrace(2000)
	opts := core.DefaultOptions()
	opts.Engine = core.EngineGraph
	opts.Budget = core.Budget{MaxGraphNodes: 100}
	res, err := core.Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("node cap should degrade")
	}
	be, ok := budget.AsError(res.DegradedReason)
	if !ok || be.Resource != budget.ResourceGraphNodes {
		t.Fatalf("reason = %v", res.DegradedReason)
	}
	if be.Stage != "happens-before" {
		t.Fatalf("stage = %q", be.Stage)
	}
}

// TestAnalyzeEdgeBudget asserts MaxClosureEdges bounds the fixpoint.
func TestAnalyzeEdgeBudget(t *testing.T) {
	tr := syntheticTrace(500)
	opts := core.DefaultOptions()
	opts.Engine = core.EngineGraph
	opts.Budget = core.Budget{MaxClosureEdges: 1000}
	res, err := core.Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("edge cap should degrade")
	}
	be, ok := budget.AsError(res.DegradedReason)
	if !ok || be.Resource != budget.ResourceClosureEdges {
		t.Fatalf("reason = %v", res.DegradedReason)
	}
}

// TestAnalyzeCancellationPropagates asserts explicit cancellation is
// never absorbed by degradation.
func TestAnalyzeCancellationPropagates(t *testing.T) {
	tr := syntheticTrace(25000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := core.DefaultOptions() // DegradeOnBudget is true
	res, err := core.AnalyzeContext(ctx, tr, opts)
	be, ok := budget.AsError(err)
	if !ok || !be.Canceled() {
		t.Fatalf("want canceled budget error, got %v (res=%+v)", err, res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("error chain should reach context.Canceled")
	}
}

// TestAnalyzeUnbudgetedUnchanged asserts the unbudgeted path still
// produces a full, non-degraded result.
func TestAnalyzeUnbudgetedUnchanged(t *testing.T) {
	tr := syntheticTrace(200)
	opts := core.DefaultOptions()
	opts.Engine = core.EngineGraph
	res, err := core.Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Graph == nil {
		t.Fatalf("unbudgeted analysis degraded: %+v", res)
	}
}

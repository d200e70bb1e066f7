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
// 50 ms deadline on a ≥100k-op trace ends well within 2× the deadline —
// no hang, no panic, no OOM — with a wall-clock budget error. What it
// degrades to is the streaming engine's sound partial result; nothing
// weaker answers in its place.
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
	be, ok := budget.AsError(err)
	if !ok {
		t.Fatalf("want *budget.Error, got %v", err)
	}
	if be.Resource != budget.ResourceWallClock || be.Canceled() {
		t.Fatalf("budget error = %v, want a wall-clock trip", be)
	}
	if res == nil {
		t.Fatal("no partial result alongside the budget error")
	}
	// 2× the deadline, the acceptance bound; allow scheduling noise on
	// top.
	if elapsed > 2*(50*time.Millisecond)+50*time.Millisecond {
		t.Fatalf("analysis took %v, want ≤ ~100ms", elapsed)
	}
}

// TestAnalyzeBudgetErrorWithPartialResult asserts that a deadline trip
// surfaces as a typed *budget.Error alongside the partial result built
// so far.
func TestAnalyzeBudgetErrorWithPartialResult(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Budget = core.Budget{Wall: 50 * time.Millisecond}
	res, err := core.Analyze(syntheticTrace(25000), opts)
	be, ok := budget.AsError(err)
	if !ok {
		t.Fatalf("want *budget.Error, got %v", err)
	}
	if be.Resource != budget.ResourceWallClock || be.Canceled() {
		t.Fatalf("budget error = %v, want a wall-clock trip", be)
	}
	if res == nil || res.Trace == nil || res.Stats.Length == 0 {
		t.Fatal("no partial result (trace, stats) alongside the budget error")
	}
}

// TestAnalyzeCancellationPropagates asserts explicit cancellation
// surfaces as a canceled budget error.
func TestAnalyzeCancellationPropagates(t *testing.T) {
	tr := syntheticTrace(25000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := core.DefaultOptions()
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
// produces a full result.
func TestAnalyzeUnbudgetedUnchanged(t *testing.T) {
	tr := syntheticTrace(200)
	res, err := core.Analyze(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Info == nil || res.Stats.Length != tr.Len() {
		t.Fatalf("unbudgeted analysis incomplete: %+v", res)
	}
}

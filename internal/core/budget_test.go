package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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
	if res == nil || res.Engine != core.EngineStream {
		t.Fatal("no stream partial result alongside the budget error")
	}
	// 2× the deadline, the acceptance bound; allow scheduling noise on
	// top.
	if elapsed > 2*(50*time.Millisecond)+50*time.Millisecond {
		t.Fatalf("analysis took %v, want ≤ ~100ms", elapsed)
	}
}

// TestAnalyzeBudgetErrorWithPartialResult asserts that, on either
// engine, a deadline trip surfaces as a typed *budget.Error alongside
// the partial result built so far, not marked degraded.
func TestAnalyzeBudgetErrorWithPartialResult(t *testing.T) {
	tr := syntheticTrace(25000)
	for _, engine := range []string{core.EngineStream, core.EngineGraph} {
		opts := core.DefaultOptions()
		opts.Engine = engine
		opts.Budget = core.Budget{Wall: 50 * time.Millisecond}
		res, err := core.Analyze(tr, opts)
		be, ok := budget.AsError(err)
		if !ok {
			t.Fatalf("%s: want *budget.Error, got %v", engine, err)
		}
		if be.Resource != budget.ResourceWallClock || be.Canceled() {
			t.Fatalf("%s: budget error = %v, want a wall-clock trip", engine, be)
		}
		if res == nil || res.Trace == nil || res.Stats.Length == 0 {
			t.Fatalf("%s: no partial result (trace, stats) alongside the budget error", engine)
		}
		if res.Degraded {
			t.Fatalf("%s: partial result must not be marked degraded", engine)
		}
	}
}

// racySyntheticTrace is syntheticTrace plus a second thread that writes
// every shared location unordered with the looper's tasks: one
// multithreaded race per location.
func racySyntheticTrace(tasks int) *trace.Trace {
	tr := syntheticTrace(tasks)
	tr.Append(trace.ThreadInit(2))
	for i := 0; i < 64; i++ {
		tr.Append(trace.Write(2, trace.Loc(fmt.Sprintf("shared%d", i))))
	}
	return tr
}

// assertStreamFallback checks that a graph-size trip was finished by the
// streaming engine: degraded (no graph) for the given resource, but
// with the exact race set an unbudgeted stream run reports.
func assertStreamFallback(t *testing.T, tr *trace.Trace, lim core.Budget, resource budget.Resource) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Engine = core.EngineGraph
	opts.Budget = lim
	res, err := core.Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Graph != nil {
		t.Fatalf("size cap should abandon the graph: degraded=%v graph=%v", res.Degraded, res.Graph != nil)
	}
	if res.Info == nil {
		t.Fatal("degraded result lost the annotations")
	}
	if res.Engine != core.EngineStream {
		t.Fatalf("engine = %q, want %q", res.Engine, core.EngineStream)
	}
	be, ok := budget.AsError(res.DegradedReason)
	if !ok || be.Resource != resource {
		t.Fatalf("reason = %v, want %s", res.DegradedReason, resource)
	}
	if be.Stage != "happens-before" {
		t.Fatalf("stage = %q", be.Stage)
	}
	want, err := core.Analyze(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Races) == 0 {
		t.Fatal("trace has no races; the comparison proves nothing")
	}
	if !reflect.DeepEqual(res.Races, want.Races) {
		t.Fatalf("fallback races differ from an unbudgeted stream run:\n got %v\nwant %v", res.Races, want.Races)
	}
}

// TestAnalyzeNodeBudget asserts MaxGraphNodes trips before the O(n²)
// reachability allocation and the stream engine finishes the analysis.
func TestAnalyzeNodeBudget(t *testing.T) {
	assertStreamFallback(t, racySyntheticTrace(2000), core.Budget{MaxGraphNodes: 100}, budget.ResourceGraphNodes)
}

// TestAnalyzeEdgeBudget asserts MaxClosureEdges bounds the fixpoint and
// the stream engine finishes the analysis.
func TestAnalyzeEdgeBudget(t *testing.T) {
	assertStreamFallback(t, racySyntheticTrace(500), core.Budget{MaxClosureEdges: 1000}, budget.ResourceClosureEdges)
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

package report_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/obs"
	"droidracer/internal/paper"
	"droidracer/internal/report"
	"droidracer/internal/trace"
)

// bigTrace builds a valid looper trace large enough to blow a short
// deadline.
func bigTrace(tasks int) *trace.Trace {
	tr := &trace.Trace{}
	tr.Append(trace.ThreadInit(1))
	tr.Append(trace.AttachQ(1))
	tr.Append(trace.LoopOnQ(1))
	for i := 0; i < tasks; i++ {
		task := trace.TaskID(fmt.Sprintf("T%d", i))
		tr.Append(trace.Post(0, task, 1))
		tr.Append(trace.Begin(1, task))
		tr.Append(trace.Write(1, trace.Loc(fmt.Sprintf("s%d", i%64))))
		tr.Append(trace.End(1, task))
	}
	return tr
}

// TestPipelineRoundTripsEveryOutcome runs the pipeline into each of its
// four terminal states and asserts every one renders to a report row —
// the partial-results-round-trip-through-report property.
func TestPipelineRoundTripsEveryOutcome(t *testing.T) {
	var outcomes []report.Outcome

	// Full analysis.
	full, err := core.Analyze(paper.Figure4(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	outcomes = append(outcomes, report.Outcome{Name: "figure4-full", Result: full, Err: nil})

	// Partial result with a budget error: a deadline.
	opts := core.DefaultOptions()
	opts.Budget = core.Budget{Wall: 30 * time.Millisecond}
	partial, perr := core.Analyze(bigTrace(25000), opts)
	if _, ok := budget.AsError(perr); !ok || partial == nil {
		t.Fatalf("expected partial result + budget error, got %v / %v", partial, perr)
	}
	outcomes = append(outcomes, report.Outcome{Name: "big-partial", Result: partial, Err: perr})

	// Hard failure (invalid trace).
	bad := &trace.Trace{}
	bad.Append(trace.Begin(1, "orphan"))
	_, berr := core.Analyze(bad, core.DefaultOptions())
	if berr == nil {
		t.Fatal("invalid trace did not error")
	}
	outcomes = append(outcomes, report.Outcome{Name: "bad-error", Err: berr})

	// Supervisor dispositions: jobs the pool queued, shed, drained,
	// retried, or resumed must round-trip through the same renderer.
	outcomes = append(outcomes,
		report.Outcome{Name: "job-queued", JobState: report.JobQueued},
		report.Outcome{Name: "job-shed", JobState: report.JobShed,
			Err: fmt.Errorf("jobs: rejected (queue-full, 16/16 queued)")},
		report.Outcome{Name: "job-drained", JobState: report.JobDrained},
		report.Outcome{Name: "job-quarantined", JobState: report.JobQuarantined,
			Err: fmt.Errorf("trace: line 3: bad op")},
	)

	out := report.Pipeline(outcomes)
	for _, want := range []string{
		"figure4-full", "full",
		"big-partial", "partial", "budget: wall-clock",
		"bad-error", "error",
		"job-queued", "queued",
		"job-shed", "shed", "queue-full",
		"job-drained", "drained",
		"job-quarantined", "quarantined", "bad op",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// The full row reports the paper's races.
	if len(full.Races) == 0 {
		t.Fatal("figure4 should report races")
	}
	sums := report.PipelineSummaries(outcomes)
	if _, ok := sums["figure4-full"]; !ok {
		t.Fatal("summaries missing full outcome")
	}
	if _, ok := sums["bad-error"]; ok {
		t.Fatal("summaries should skip result-less outcomes")
	}
}

// TestPipelineAnnotatesRetriedAndResumed checks the supervisor's mode
// annotations: attempts above one render "+retried", journal-recovered
// work renders "+resumed", and both compose with the analysis mode.
func TestPipelineAnnotatesRetriedAndResumed(t *testing.T) {
	full, err := core.Analyze(paper.Figure4(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	partial := &budget.Error{Resource: budget.ResourceWallClock}
	out := report.Pipeline([]report.Outcome{
		{Name: "retried", Result: full, Attempts: 3},
		{Name: "resumed", Result: full, Resumed: true},
		{Name: "both", Result: &core.Result{}, Err: partial, Attempts: 2, Resumed: true},
	})
	for _, want := range []string{
		"full+retried",
		"full+resumed",
		"partial+retried+resumed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Supervisor states must not pick up annotations: a drained job with
	// zero attempts renders as plain "drained".
	row := report.Pipeline([]report.Outcome{{Name: "d", JobState: report.JobDrained, Resumed: false}})
	if !strings.Contains(row, "drained") || strings.Contains(row, "+") {
		t.Fatalf("drained row = %q", row)
	}
}

// TestPipelineRendersPhaseTimings checks the Time column: it appears
// only when some outcome carries per-phase timings, rows without
// timings render "-", and timing-free reports keep the original header.
func TestPipelineRendersPhaseTimings(t *testing.T) {
	full, err := core.Analyze(paper.Figure4(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Phases) == 0 {
		t.Fatal("full analysis carries no phase timings")
	}
	timed := &core.Result{Phases: []obs.PhaseTiming{
		{Phase: "happens-before", Duration: 1500 * time.Millisecond},
		{Phase: "race-scan", Duration: 250 * time.Millisecond},
	}}
	out := report.Pipeline([]report.Outcome{
		{Name: "timed", Result: timed},
		{Name: "analyzed", Result: full},
		{Name: "shed", JobState: report.JobShed},
	})
	if !strings.Contains(out, "Time") {
		t.Fatalf("report missing Time column:\n%s", out)
	}
	if !strings.Contains(out, "1.75s") {
		t.Fatalf("report missing summed phase time:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	shedRow := lines[len(lines)-1]
	if !strings.Contains(shedRow, "-") {
		t.Fatalf("timing-less row has no placeholder: %q", shedRow)
	}

	// Without timings anywhere, the header stays as it always was.
	plain := report.Pipeline([]report.Outcome{{Name: "q", JobState: report.JobQueued}})
	if strings.Contains(plain, "Time") {
		t.Fatalf("timing-free report grew a Time column:\n%s", plain)
	}
}

// TestPhaseTable checks the racedet -phase-timings renderer: one row
// per phase in order, plus a total.
func TestPhaseTable(t *testing.T) {
	out := report.PhaseTable([]obs.PhaseTiming{
		{Phase: "validate", Duration: 2 * time.Millisecond},
		{Phase: "happens-before", Duration: 40 * time.Millisecond},
	})
	for _, want := range []string{"Phase", "Time", "validate", "2.00ms", "happens-before", "40.00ms", "total", "42.00ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("phase table missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "validate") > strings.Index(out, "happens-before") {
		t.Fatalf("phases out of order:\n%s", out)
	}
}

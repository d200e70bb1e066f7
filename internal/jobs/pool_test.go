package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/faultinject"
	"droidracer/internal/journal"
	"droidracer/internal/paper"
	"droidracer/internal/report"
	"droidracer/internal/trace"
)

// blockingJob returns a job that signals started and then waits for
// release (or ctx).
func blockingJob(name string, started chan<- string, release <-chan struct{}) Job {
	return Job{
		Name: name,
		Run: func(ctx context.Context, _ budget.Limits) (*core.Result, error) {
			started <- name
			select {
			case <-release:
				return &core.Result{}, nil
			case <-ctx.Done():
				return nil, &budget.Error{Stage: "test", Resource: budget.ResourceContext, Cause: ctx.Err()}
			}
		},
	}
}

func TestSaturatedQueueShedsTyped(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	p := NewPool(Config{Workers: 1, QueueDepth: 1})
	if err := p.Submit(blockingJob("running", started, release)); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; queue empty
	if err := p.Submit(blockingJob("queued", started, release)); err != nil {
		t.Fatal(err)
	}
	// Queue full: the next submit must shed immediately with the typed
	// rejection, not block.
	err := p.Submit(blockingJob("shed", started, release))
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("want *RejectionError, got %v", err)
	}
	if rej.Reason != ReasonQueueFull || rej.Capacity != 1 {
		t.Fatalf("got %+v", rej)
	}
	close(release)
	p.Quiesce()
	outs := p.Shutdown(context.Background())
	byName := outcomesByName(outs)
	if byName["shed"].JobState != report.JobShed {
		t.Fatalf("shed outcome = %+v", byName["shed"])
	}
	if byName["running"].Err != nil || byName["queued"].Err != nil {
		t.Fatalf("completed jobs errored: %+v", outs)
	}
}

func TestSubmitAfterShutdownSheds(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	p.Shutdown(context.Background())
	err := p.Submit(Job{Name: "late", Run: func(context.Context, budget.Limits) (*core.Result, error) {
		return nil, nil
	}})
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Reason != ReasonShuttingDown {
		t.Fatalf("want shutting-down rejection, got %v", err)
	}
}

func TestRetryWithBackoffThenSuccess(t *testing.T) {
	var slept []time.Duration
	var mu sync.Mutex
	attempts := 0
	p := NewPool(Config{
		Workers: 1,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 10 * time.Millisecond,
			Sleep: func(d time.Duration) {
				mu.Lock()
				slept = append(slept, d)
				mu.Unlock()
			},
		},
	})
	p.Submit(Job{Name: "flaky", Run: func(context.Context, budget.Limits) (*core.Result, error) {
		attempts++
		if attempts < 3 {
			return nil, fmt.Errorf("transient divergence")
		}
		return &core.Result{}, nil
	}})
	p.Quiesce()
	outs := p.Shutdown(context.Background())
	out := outcomesByName(outs)["flaky"]
	if out.Err != nil || out.Attempts != 3 {
		t.Fatalf("outcome = %+v", out)
	}
	if len(slept) != 2 || slept[1] < slept[0] {
		t.Fatalf("backoff pauses = %v, want 2 increasing", slept)
	}
	if got := outcomeMode(out); got != "full+retried" {
		t.Fatalf("rendered mode = %q", got)
	}
}

// TestDeadlineTripIsNotRetried pins that a job whose wall-clock budget
// ran out gets no second attempt: it would run under the same deadline
// and trip again, costing a full attempt plus the backoff.
func TestDeadlineTripIsNotRetried(t *testing.T) {
	attempts := 0
	p := NewPool(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 2}})
	p.Submit(Job{Name: "slow", Run: func(context.Context, budget.Limits) (*core.Result, error) {
		attempts++
		return &core.Result{}, &budget.Error{Stage: "stream-replay", Resource: budget.ResourceWallClock}
	}})
	p.Quiesce()
	out := outcomesByName(p.Shutdown(context.Background()))["slow"]
	if out.Attempts != 1 || attempts != 1 {
		t.Fatalf("deadline trip ran %d attempt(s) (outcome %+v), want 1", attempts, out)
	}
}

func TestCancellationIsNotRetried(t *testing.T) {
	attempts := 0
	p := NewPool(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 5}})
	p.Submit(Job{Name: "canceled", Run: func(context.Context, budget.Limits) (*core.Result, error) {
		attempts++
		return nil, &budget.Error{Stage: "test", Resource: budget.ResourceContext, Cause: context.Canceled}
	}})
	p.Quiesce()
	outs := p.Shutdown(context.Background())
	out := outcomesByName(outs)["canceled"]
	if attempts != 1 {
		t.Fatalf("canceled job ran %d times", attempts)
	}
	if be, ok := budget.AsError(out.Err); !ok || !be.Canceled() {
		t.Fatalf("outcome err = %v", out.Err)
	}
}

// TestBreakerOpensWithoutFallback pins the breaker's one outcome: once
// an input has panicked Threshold times in a row, its jobs fail with a
// breaker-open error and never run again. No weaker analysis answers in
// their place.
func TestBreakerOpensWithoutFallback(t *testing.T) {
	p := NewPool(Config{Workers: 1, Breaker: BreakerPolicy{Threshold: 2}})
	runs := 0
	panicky := func(name string) Job {
		return Job{
			Name: name,
			Key:  "same-input",
			Run: func(context.Context, budget.Limits) (*core.Result, error) {
				runs++
				panic("corrupt model")
			},
		}
	}
	for i := 0; i < 3; i++ {
		p.Submit(panicky(fmt.Sprintf("job-%d", i)))
		p.Quiesce() // serialize so the breaker sees consecutive failures
	}
	outs := p.Shutdown(context.Background())
	byName := outcomesByName(outs)
	// First run: panic surfaces as an isolated error.
	var pe *budget.PanicError
	if !errors.As(byName["job-0"].Err, &pe) {
		t.Fatalf("job-0 err = %v", byName["job-0"].Err)
	}
	// The second panic on the same key opens the breaker mid-job, and
	// the third never enters the panicking path. Both fail, result-less.
	for _, name := range []string{"job-1", "job-2"} {
		out := byName[name]
		if out.Result != nil || out.Err == nil || !strings.Contains(out.Err.Error(), "breaker open") {
			t.Fatalf("%s = %+v, want a result-less breaker-open failure", name, out)
		}
		if !errors.As(out.Err, &pe) {
			t.Fatalf("%s err %v does not carry the panic that opened the breaker", name, out.Err)
		}
	}
	if runs != 2 {
		t.Fatalf("the panicking job ran %d times, want 2 (the open breaker must stop the third)", runs)
	}
	if _, open := p.BreakerOpen("same-input"); !open {
		t.Fatal("breaker not open after two consecutive panics")
	}
}

// TestDeadlineTripsDoNotOpenBreaker pins that exhausted budgets are not
// hard failures: a body submitted with short client deadlines again and
// again must not get every later submitter of it refused.
func TestDeadlineTripsDoNotOpenBreaker(t *testing.T) {
	p := NewPool(Config{Workers: 1, Breaker: BreakerPolicy{Threshold: 2}})
	runs := 0
	for i := 0; i < 3; i++ {
		p.Submit(Job{Name: fmt.Sprintf("short-%d", i), Key: "same-input",
			Run: func(context.Context, budget.Limits) (*core.Result, error) {
				runs++
				return &core.Result{}, &budget.Error{Stage: "stream-replay", Resource: budget.ResourceWallClock}
			}})
		p.Quiesce()
	}
	if _, open := p.BreakerOpen("same-input"); open {
		t.Fatal("three deadline trips opened the breaker")
	}
	p.Submit(Job{Name: "patient", Key: "same-input",
		Run: func(context.Context, budget.Limits) (*core.Result, error) {
			runs++
			return &core.Result{}, nil
		}})
	p.Quiesce()
	outs := p.Shutdown(context.Background())
	if out := outcomesByName(outs)["patient"]; out.Err != nil || out.Result == nil {
		t.Fatalf("job after deadline trips = %+v, want a full run", out)
	}
	if runs != 4 {
		t.Fatalf("ran %d jobs, want all 4", runs)
	}
}

func TestShutdownDrainsInFlightAndCheckpointsQueued(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	p := NewPool(Config{Workers: 1, QueueDepth: 4})
	p.Submit(blockingJob("in-flight", started, release))
	<-started
	p.Submit(blockingJob("never-started", started, release))
	// Snapshot before shutdown shows the queued placeholder.
	snap := outcomesByName(p.Outcomes())
	if snap["never-started"].JobState != report.JobQueued {
		t.Fatalf("snapshot = %+v", p.Outcomes())
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	outs := p.Shutdown(context.Background())
	byName := outcomesByName(outs)
	if byName["in-flight"].Err != nil {
		t.Fatalf("in-flight was not drained: %+v", byName["in-flight"])
	}
	if byName["never-started"].JobState != report.JobDrained {
		t.Fatalf("queued job = %+v", byName["never-started"])
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	started := make(chan string, 1)
	p := NewPool(Config{Workers: 1})
	p.Submit(blockingJob("stuck", started, nil)) // never released
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	outs := p.Shutdown(ctx)
	out := outcomesByName(outs)["stuck"]
	if be, ok := budget.AsError(out.Err); !ok || !be.Canceled() {
		t.Fatalf("stuck job outcome = %+v", out)
	}
}

func TestPoolJournalsCompletedJobs(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(filepath.Join(dir, "daemon.journal"))
	if err != nil {
		t.Fatal(err)
	}
	tracePath := writeTestTrace(t, dir)
	p := NewPool(Config{Workers: 1, Journal: w})
	p.Submit(TraceJob("t1.trace", tracePath, core.DefaultOptions()))
	p.Quiesce()
	p.Shutdown(context.Background())
	w.Close()
	entries, err := journal.Recover(filepath.Join(dir, "daemon.journal"))
	if err != nil {
		t.Fatal(err)
	}
	done := CompletedRecords(entries)
	if done["t1.trace"].Mode != "full" {
		t.Fatalf("completed jobs = %v", done)
	}
}

// poolHelperEnv marks the re-exec'd helper of the drain chaos test.
const poolHelperEnv = "DROIDRACER_POOL_HELPER"

// TestPoolHelperProcess is the subprocess body of the drain chaos test:
// it journals one completed job, then shuts down with the jobs.drain
// kill-point armed by the parent, dying after intake closes but before
// the queued jobs drain.
func TestPoolHelperProcess(t *testing.T) {
	dir := os.Getenv(poolHelperEnv)
	if dir == "" {
		t.Skip("helper subprocess only")
	}
	w, err := journal.Create(filepath.Join(dir, "daemon.journal"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p := NewPool(Config{Workers: 1, QueueDepth: 4, Journal: w})
	p.Submit(TraceJob("t1.trace", filepath.Join(dir, "t1.trace"), core.DefaultOptions()))
	p.Quiesce() // t1 finishes and is journaled before the crash
	p.Submit(TraceJob("t2.trace", filepath.Join(dir, "t1.trace"), core.DefaultOptions()))
	p.Submit(TraceJob("t3.trace", filepath.Join(dir, "t1.trace"), core.DefaultOptions()))
	p.Shutdown(context.Background()) // jobs.drain kill-point fires here
	os.Exit(0)
}

// TestPoolKilledMidDrainResumesFromJournal proves the daemon-restart
// guarantee: a pool SIGKILL'd mid-drain loses only un-journaled work,
// and the next incarnation's journal recovery re-runs exactly the jobs
// that never completed.
func TestPoolKilledMidDrainResumesFromJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	dir := t.TempDir()
	writeTestTrace(t, dir)
	cmd := exec.Command(os.Args[0], "-test.run=^TestPoolHelperProcess$")
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, faultinject.EnvKillpoint+"=") ||
			strings.HasPrefix(kv, poolHelperEnv+"=") {
			continue
		}
		cmd.Env = append(cmd.Env, kv)
	}
	cmd.Env = append(cmd.Env,
		poolHelperEnv+"="+dir,
		faultinject.EnvKillpoint+"=jobs.drain")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != faultinject.KillExitCode {
		t.Fatalf("helper exit = %v, want kill at jobs.drain\n%s", err, out)
	}
	// Incarnation 2: recover, resubmit only unfinished inputs.
	jpath := filepath.Join(dir, "daemon.journal")
	entries, err := journal.Recover(jpath)
	if err != nil {
		t.Fatal(err)
	}
	done := CompletedRecords(entries)
	if _, ok := done["t1.trace"]; !ok {
		t.Fatalf("journaled work lost in crash: %v", done)
	}
	_, t2 := done["t2.trace"]
	if _, t3 := done["t3.trace"]; t2 || t3 {
		t.Fatalf("drained jobs journaled as complete: %v", done)
	}
	w, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Config{Workers: 1, Journal: w})
	for _, name := range []string{"t1.trace", "t2.trace", "t3.trace"} {
		if _, ok := done[name]; ok {
			continue
		}
		p.Submit(TraceJob(name, filepath.Join(dir, "t1.trace"), core.DefaultOptions()))
	}
	p.Quiesce()
	p.Shutdown(context.Background())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err = journal.Recover(jpath)
	if err != nil {
		t.Fatal(err)
	}
	done = CompletedRecords(entries)
	for _, name := range []string{"t1.trace", "t2.trace", "t3.trace"} {
		if _, ok := done[name]; !ok {
			t.Fatalf("after restart %s still unfinished: %v", name, done)
		}
	}
}

// writeTestTrace writes the paper's Figure 4 trace (two known races) as
// a spool file.
func writeTestTrace(t *testing.T, dir string) string {
	t.Helper()
	var buf strings.Builder
	if err := trace.Format(&buf, paper.Figure4()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "t1.trace")
	if err := os.WriteFile(path, []byte(buf.String()), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPoolRetainsSlimOutcomes pins that a finished job's trace and
// annotations do not live as long as the pool:
// OnFinish sees the full result, while the outcome the pool keeps for
// its report holds only what the report reads, and renders the same.
func TestPoolRetainsSlimOutcomes(t *testing.T) {
	var seen report.Outcome
	p := NewPool(Config{Workers: 1, OnFinish: func(out report.Outcome) { seen = out }})
	err := p.Submit(Job{Name: "figure4", Run: func(ctx context.Context, _ budget.Limits) (*core.Result, error) {
		return core.AnalyzeContext(ctx, paper.Figure4(), core.DefaultOptions())
	}})
	if err != nil {
		t.Fatal(err)
	}
	p.Quiesce()
	kept := outcomesByName(p.Shutdown(context.Background()))["figure4"]
	full := seen.Result
	if full == nil || full.Trace == nil || full.Info == nil {
		t.Fatalf("OnFinish saw %+v, want the full result with its trace and info", full)
	}
	if kept.Result == nil || kept.Result.Trace != nil || kept.Result.Info != nil {
		t.Fatalf("retained result %+v still holds the trace or info", kept.Result)
	}
	if len(kept.Result.Races) != len(full.Races) || len(kept.Result.Races) == 0 {
		t.Fatalf("retained %d races, OnFinish saw %d", len(kept.Result.Races), len(full.Races))
	}
	if got, want := report.Pipeline([]report.Outcome{kept}), report.Pipeline([]report.Outcome{seen}); got != want {
		t.Fatalf("slim outcome renders differently:\n%s\nvs full:\n%s", got, want)
	}
}

func outcomesByName(outs []report.Outcome) map[string]report.Outcome {
	m := make(map[string]report.Outcome)
	for _, o := range outs {
		m[o.Name] = o
	}
	return m
}

// outcomeMode exposes the rendered mode column for assertions via the
// public Pipeline renderer.
func outcomeMode(o report.Outcome) string {
	rows := strings.Split(report.Pipeline([]report.Outcome{o}), "\n")
	for _, row := range rows[1:] {
		fields := strings.Fields(row)
		if len(fields) >= 2 && fields[0] == o.Name {
			return fields[1]
		}
	}
	return ""
}

func TestShedCountsPerReasonAndRejectionDepth(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	p := NewPool(Config{Workers: 1, QueueDepth: 1})
	if err := p.Submit(blockingJob("running", started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := p.Submit(blockingJob("queued", started, release)); err != nil {
		t.Fatal(err)
	}
	err := p.Submit(blockingJob("shed", started, release))
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("want *RejectionError, got %v", err)
	}
	// The rejection must report the queue as observed at rejection time,
	// not merely its capacity.
	if rej.Depth != 1 || rej.Capacity != 1 {
		t.Fatalf("rejection depth/capacity = %d/%d, want 1/1", rej.Depth, rej.Capacity)
	}
	if !strings.Contains(rej.Error(), "1/1 queued") {
		t.Fatalf("rejection message %q does not include queue state", rej.Error())
	}
	close(release)
	p.Quiesce()
	p.Shutdown(context.Background())
	if err := p.Submit(blockingJob("late", started, release)); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
	sheds := p.Sheds()
	if sheds[ReasonQueueFull] != 1 || sheds[ReasonShuttingDown] != 1 {
		t.Fatalf("sheds = %v, want one per reason", sheds)
	}
}

// TestConcurrentSubmitVsShutdown races many producers against Shutdown:
// every Submit must either enqueue or shed with a typed rejection, and
// closing intake concurrently with sends must never panic (the pool
// holds its mutex across the draining check and the channel send). Run
// under -race, this is the regression net for send-on-closed-channel.
func TestConcurrentSubmitVsShutdown(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := NewPool(Config{Workers: 2, QueueDepth: 4})
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					err := p.Submit(Job{
						Name: fmt.Sprintf("r%d-g%d-j%d", round, g, i),
						Run: func(context.Context, budget.Limits) (*core.Result, error) {
							return &core.Result{}, nil
						},
					})
					if err != nil {
						errs <- err
					}
				}
			}(g)
		}
		outs := p.Shutdown(context.Background())
		wg.Wait()
		close(errs)
		for err := range errs {
			var rej *RejectionError
			if !errors.As(err, &rej) {
				t.Fatalf("round %d: untyped submit error %v", round, err)
			}
			if rej.Reason != ReasonQueueFull && rej.Reason != ReasonShuttingDown {
				t.Fatalf("round %d: unexpected rejection %+v", round, rej)
			}
		}
		for _, out := range outs {
			if out.JobState == "" && out.Err != nil {
				t.Fatalf("round %d: executed job failed: %+v", round, out)
			}
		}
		// After Shutdown returns, every Submit sheds with shutting-down.
		err := p.Submit(Job{Name: "late", Run: func(context.Context, budget.Limits) (*core.Result, error) {
			return &core.Result{}, nil
		}})
		var rej *RejectionError
		if !errors.As(err, &rej) || rej.Reason != ReasonShuttingDown {
			t.Fatalf("round %d: post-shutdown submit = %v", round, err)
		}
	}
}

// TestPoolQuarantinesPoisonInput proves the dead-letter path end to end
// at the pool layer: a deterministic parse failure exhausts its
// attempts, gets a quarantine journal entry instead of a job entry, is
// marked report.JobQuarantined, and its input file moves into the
// quarantine directory.
func TestPoolQuarantinesPoisonInput(t *testing.T) {
	dir := t.TempDir()
	spool := filepath.Join(dir, "spool")
	if err := os.MkdirAll(spool, 0o777); err != nil {
		t.Fatal(err)
	}
	poison := filepath.Join(spool, "bad.trace")
	if err := os.WriteFile(poison, []byte("this is not a trace\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "daemon.journal")
	w, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	qdir := filepath.Join(dir, "quarantine")
	p := NewPool(Config{
		Workers:    1,
		Journal:    w,
		Quarantine: &Quarantine{Dir: qdir},
	})
	p.Submit(TraceJob("bad.trace", poison, core.DefaultOptions()))
	p.Quiesce()
	outs := p.Shutdown(context.Background())
	w.Close()

	out := outcomesByName(outs)["bad.trace"]
	if out.JobState != report.JobQuarantined {
		t.Fatalf("outcome = %+v, want quarantined", out)
	}
	if _, err := os.Stat(poison); !os.IsNotExist(err) {
		t.Fatalf("poison input still in spool (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(qdir, "bad.trace")); err != nil {
		t.Fatalf("poison input not dead-lettered: %v", err)
	}
	entries, err := journal.Recover(jpath)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := QuarantinedJobs(entries)
	if reason, ok := quarantined["bad.trace"]; !ok || reason == "" {
		t.Fatalf("quarantine journal entries = %v", quarantined)
	}
	// The dead letter is not a completion: a restart must not treat the
	// input as analyzed, it must treat it as untouchable.
	if _, ok := CompletedRecords(entries)["bad.trace"]; ok {
		t.Fatal("quarantined input journaled as completed")
	}
}

// TestTransientFailureNotQuarantined pins the quarantine boundary:
// budget exhaustion is not poison — the same input may succeed under a
// later incarnation's budget, so its file stays in the spool.
func TestTransientFailureNotQuarantined(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "slow.trace")
	if err := os.WriteFile(input, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	qdir := filepath.Join(dir, "quarantine")
	p := NewPool(Config{Workers: 1, Quarantine: &Quarantine{Dir: qdir}})
	p.Submit(Job{
		Name: "slow.trace",
		Path: input,
		Run: func(context.Context, budget.Limits) (*core.Result, error) {
			return nil, &budget.Error{Stage: "test", Resource: budget.ResourceWallClock}
		},
	})
	p.Quiesce()
	outs := p.Shutdown(context.Background())
	out := outcomesByName(outs)["slow.trace"]
	if out.JobState == report.JobQuarantined {
		t.Fatalf("budget exhaustion quarantined: %+v", out)
	}
	if _, err := os.Stat(input); err != nil {
		t.Fatalf("transiently failed input removed from spool: %v", err)
	}
}

// Package jobs is the supervised job-execution layer of the resilient
// analysis service: a worker pool with a bounded queue, admission
// control and load-shedding; per-job supervision composing budget.Limits
// with retry-with-backoff and a per-input circuit breaker that stops
// re-running inputs that keep panicking; crash-safe checkpoint/resume of
// exploration campaigns over a write-ahead journal; and graceful
// shutdown that drains in-flight work, checkpoints the rest, and
// reports per-job outcomes through the report package.
//
// The design follows the paper's economics: the UI Explorer's bound-k
// DFS (§5) is the expensive resource, so its progress is journaled and
// resumable (see Campaign), while individual trace analyses are cheap
// enough to restart whole and are tracked at job granularity.
package jobs

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/faultinject"
	"droidracer/internal/journal"
	"droidracer/internal/obs"
	"droidracer/internal/report"
	"droidracer/internal/storage"
	"droidracer/internal/trace"
)

// Job is one unit of supervised work.
type Job struct {
	// Name labels the job in reports and journals.
	Name string
	// Key groups jobs for the circuit breaker: repeated panics under
	// the same key open the breaker for that input. Defaults to Name.
	Key string
	// Run performs the full-fidelity work under ctx and the pool's
	// per-attempt budget limits.
	Run func(ctx context.Context, lim budget.Limits) (*core.Result, error)
	// Path, when set, is the job's input file on disk. The pool's
	// quarantine (Config.Quarantine) moves it to the dead-letter
	// directory when the job proves poisonous.
	Path string
	// Trace, when set, is the distributed-trace recorder the job's spans
	// (queue-wait, job.run, analysis phases) buffer into; the pool makes
	// the commit decision at finish time (see Config.TraceSlow). When
	// nil, the pool mints an unsampled recorder so slow, failed, and
	// quarantined jobs from any intake path (spool sweep, CLI) are still
	// tail-captured.
	Trace *obs.TraceRec
	// TraceParent is the span ID the job's spans hang under — typically
	// the ingestion server's admission span.
	TraceParent string
}

func (j Job) key() string {
	if j.Key != "" {
		return j.Key
	}
	return j.Name
}

// RejectionError is the typed load-shedding rejection: a saturated or
// shutting-down pool refuses work immediately instead of blocking the
// producer or growing without bound.
type RejectionError struct {
	// Reason is ReasonQueueFull or ReasonShuttingDown.
	Reason string
	// Depth and Capacity describe the queue at rejection time.
	Depth, Capacity int
}

// Shedding reasons.
const (
	ReasonQueueFull    = "queue-full"
	ReasonShuttingDown = "shutting-down"
)

// Error implements error.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("jobs: rejected (%s, %d/%d queued)", e.Reason, e.Depth, e.Capacity)
}

// Config configures a pool. The zero value gets one worker, a
// 16-deep queue, no retries, and a breaker threshold of 3.
type Config struct {
	// Workers is the number of concurrent job executors (default 1).
	Workers int
	// QueueDepth bounds the admission queue (default 16). Submit sheds
	// with a *RejectionError once the queue is full.
	QueueDepth int
	// Budget bounds each execution attempt; composed with the job's
	// context (the earlier deadline wins, see budget.NewChecker).
	Budget budget.Limits
	// Retry bounds re-execution of failed attempts.
	Retry RetryPolicy
	// Breaker configures the per-input circuit breaker.
	Breaker BreakerPolicy
	// Journal, when set, receives a "job" entry per finished job, fsync'd
	// immediately, so a restarted daemon can skip completed inputs. The
	// pool does not close it.
	Journal *journal.Writer
	// Events, when set, receives structured lifecycle events (job.finish,
	// job.shed, job.quarantine) — see obs.NewEventLog. Finish events
	// carry the journal sequence number of the job's entry so log lines
	// correlate with WAL records.
	Events *slog.Logger
	// Quarantine, when set, dead-letters poison inputs: a job that fails
	// deterministically after retries (see Poisonous) gets a quarantine
	// journal entry instead of a job entry, its outcome is marked
	// report.JobQuarantined, and its input file (Job.Path) is moved into
	// the quarantine directory so a restart never re-ingests it.
	Quarantine *Quarantine
	// OnFinish, when set, observes every finished outcome (including
	// drained and quarantined ones) after it is journaled. It runs on the
	// worker goroutine; the ingestion layer uses it to answer duplicate
	// submissions from completed work. It sees the full core.Result; the
	// copy the pool keeps for Outcomes does not (see retained).
	OnFinish func(report.Outcome)
	// TraceSlow is the tail-capture threshold: an unsampled job whose
	// execution (queue wait included) exceeds it commits its trace to the
	// span store even though no client asked for it. Failed and
	// quarantined jobs always commit. 0 disables the slowness trigger
	// (failure capture stays on).
	TraceSlow time.Duration
}

// queuedJob pairs a job with its admission time so the worker can
// reconstruct the queue-wait span without widening the Job API.
type queuedJob struct {
	Job
	enqueued time.Time
}

// Pool runs submitted jobs on a fixed set of workers.
type Pool struct {
	cfg     Config
	queue   chan queuedJob
	rootCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	brk     *Breaker

	mu       sync.Mutex
	idle     *sync.Cond
	draining bool
	pending  int            // accepted jobs not yet finished
	queued   map[string]int // name -> pending count (not yet started)
	sheds    map[string]int // rejection reason -> count
	outcomes []report.Outcome
}

// NewPool starts a pool with cfg.
func NewPool(cfg Config) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		cfg:     cfg,
		queue:   make(chan queuedJob, cfg.QueueDepth),
		rootCtx: ctx,
		cancel:  cancel,
		brk:     newBreaker(cfg.Breaker),
		queued:  make(map[string]int),
		sheds:   make(map[string]int),
	}
	queueCapacity.Set(int64(cap(p.queue)))
	queueDepth.Set(0)
	p.idle = sync.NewCond(&p.mu)
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// JobParallelism returns 1: every job's analysis is serial. It is kept
// only so code written against the former per-job worker budget still
// compiles. The next change to the serve-path benchmark, its last
// caller, deletes it.
//
// Deprecated: ignored; every analysis is serial.
func (p *Pool) JobParallelism() int { return 1 }

// Submit enqueues a job. It never blocks: when the queue is full or the
// pool is shutting down it sheds the job, recording a shed outcome and
// returning the *RejectionError so the producer can spill, requeue, or
// surface it.
func (p *Pool) Submit(job Job) error {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return p.shed(job.Name, ReasonShuttingDown)
	}
	select {
	case p.queue <- queuedJob{Job: job, enqueued: time.Now()}:
		p.queued[job.Name]++
		p.pending++
		p.mu.Unlock()
		queueDepth.Set(int64(len(p.queue)))
		return nil
	default:
		p.mu.Unlock()
		return p.shed(job.Name, ReasonQueueFull)
	}
}

// shed records a load-shedding rejection: the outcome row, the
// per-reason tallies (local for Sheds, global for the registry), an
// optional structured event, and the returned *RejectionError carrying
// the queue state observed at rejection time.
func (p *Pool) shed(name, reason string) *RejectionError {
	depth := len(p.queue)
	if reason == ReasonQueueFull {
		// The failed non-blocking send observed a full queue; a worker
		// may have drained it since, so re-reading len here could yield a
		// "queue full" message with depth < capacity. Report the state
		// the producer actually hit.
		depth = cap(p.queue)
	}
	rej := &RejectionError{Reason: reason, Depth: depth, Capacity: cap(p.queue)}
	shedCounters[reason].Inc()
	p.mu.Lock()
	p.sheds[reason]++
	p.outcomes = append(p.outcomes, report.Outcome{Name: name, JobState: report.JobShed, Err: rej})
	p.mu.Unlock()
	if p.cfg.Events != nil {
		p.cfg.Events.Info("job.shed", "job", name, "reason", reason,
			"depth", rej.Depth, "capacity", rej.Capacity)
	}
	return rej
}

// Sheds returns the number of jobs shed per rejection reason.
func (p *Pool) Sheds() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.sheds))
	for reason, n := range p.sheds {
		out[reason] = n
	}
	return out
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for qj := range p.queue {
		job := qj.Job
		queueDepth.Set(int64(len(p.queue)))
		p.mu.Lock()
		if p.queued[job.Name]--; p.queued[job.Name] == 0 {
			delete(p.queued, job.Name)
		}
		draining := p.draining
		p.mu.Unlock()
		if draining {
			// Jobs still queued at shutdown are checkpointed, not run:
			// they will be resubmitted by the next incarnation.
			p.finish(report.Outcome{Name: job.Name, JobState: report.JobDrained, TraceID: job.Trace.TraceID()})
			job.Trace.Commit(false)
			continue
		}
		if job.Trace == nil {
			// Untraced intake (spool sweep, direct Submit): record under a
			// fresh unsampled trace so tail capture still sees slow and
			// failed work nobody asked to watch.
			job.Trace = obs.Traces().Begin(obs.NewTraceID(), false)
		}
		job.Trace.AddSpan("queue-wait", job.TraceParent, qj.enqueued, time.Since(qj.enqueued))
		sp := job.Trace.StartSpan("job.run", job.TraceParent)
		inflight.Inc()
		out := p.runJob(job, obs.ContextWithTrace(p.rootCtx, job.Trace, sp.ID()))
		inflight.Dec()
		sp.SetAttr("mode", OutcomeMode(out))
		sp.SetErr(out.Err)
		sp.End()
		out.TraceID = job.Trace.TraceID()
		if p.cfg.Quarantine != nil && Poisonous(out) {
			p.quarantine(job, &out)
		}
		p.finish(out)
		// Tail capture: keep the trace when the client sampled it, the job
		// failed or was quarantined, or it blew the slowness threshold.
		force := out.Err != nil || out.JobState == report.JobQuarantined ||
			(p.cfg.TraceSlow > 0 && time.Since(qj.enqueued) > p.cfg.TraceSlow)
		job.Trace.Commit(force)
	}
}

// quarantine dead-letters a poison input: the quarantine journal entry
// is made durable first, then the input file moves to the quarantine
// directory. A crash between the two is converged by the next
// incarnation, which replays the journal entry and re-does the move.
func (p *Pool) quarantine(job Job, out *report.Outcome) {
	out.JobState = report.JobQuarantined
	if p.cfg.Journal != nil {
		jerr := p.cfg.Journal.Append(quarantineEntryType, QuarantineEntry{
			Name:    out.Name,
			Reason:  out.Err.Error(),
			TraceID: out.TraceID,
		})
		if jerr == nil {
			jerr = p.cfg.Journal.Sync()
		}
		if jerr != nil && p.cfg.Events != nil {
			// The dead-letter entry is not durable: a restart may
			// re-ingest this poison input once more. Surface it — the
			// poisoned writer also flips the daemon unready, so the
			// re-ingestion loop cannot run unobserved.
			p.cfg.Events.Error("job.quarantine-journal-failed", "job", out.Name, "err", jerr.Error())
		}
	}
	if err := p.cfg.Quarantine.Absorb(job.Path); err != nil && p.cfg.Events != nil {
		p.cfg.Events.Warn("job.quarantine-move-failed", "job", out.Name, "err", err.Error())
	}
	quarantinedTotal.Inc()
	if p.cfg.Events != nil {
		p.cfg.Events.Info("job.quarantine", "job", out.Name, "reason", out.Err.Error())
	}
}

// record appends an outcome without journaling (shed jobs never ran; a
// restart should still see their input pending).
func (p *Pool) record(out report.Outcome) {
	out = retained(out)
	p.mu.Lock()
	p.outcomes = append(p.outcomes, out)
	p.mu.Unlock()
}

// retained is the copy of out the pool keeps for Outcomes for the rest
// of its lifetime. The report reads only the races, phases and mode, so
// the copy drops the trace and its annotations. OnFinish still sees the
// full result.
func retained(out report.Outcome) report.Outcome {
	if out.Result != nil {
		r := *out.Result
		r.Trace, r.Info = nil, nil
		out.Result = &r
	}
	return out
}

// finish appends an outcome, journals it when the pool has a journal,
// and wakes Quiesce waiters.
func (p *Pool) finish(out report.Outcome) {
	p.record(out)
	seq := 0
	if p.cfg.Journal != nil && out.JobState != report.JobDrained && out.JobState != report.JobQuarantined {
		// AppendSeq returns the number assigned under the journal's own
		// mutex: with several workers finishing at once, re-reading Seq()
		// here could observe another job's entry. Quarantined jobs were
		// already dead-lettered with their own entry type.
		je := JobEntry{
			Name:     out.Name,
			Mode:     OutcomeMode(out),
			Attempts: out.Attempts,
			TraceID:  out.TraceID,
		}
		if out.Result != nil {
			je.Races = len(out.Result.Races)
			je.Digest = ResultDigest(out.Result)
		}
		var jerr error
		seq, jerr = p.cfg.Journal.AppendSeq("job", je)
		if jerr == nil {
			jerr = p.cfg.Journal.Sync()
		}
		if jerr != nil {
			// The outcome is correct but not durably recorded: a restart
			// will re-analyze this input (idempotent — same digest). The
			// error must not vanish: the writer is now poisoned and the
			// server's storage check turns submissions away, but the job
			// that crossed the failure is logged here.
			seq = 0
			if p.cfg.Events != nil {
				p.cfg.Events.Error("job.journal-failed", "job", out.Name, "err", jerr.Error())
			}
		}
	}
	if p.cfg.Events != nil {
		attrs := []any{"job", out.Name, "mode", OutcomeMode(out), "attempts", out.Attempts}
		if out.JobState == report.JobDrained {
			attrs = append(attrs, "drained", true)
		}
		if seq > 0 {
			attrs = append(attrs, "journal_seq", seq)
		}
		if out.TraceID != "" {
			attrs = append(attrs, "trace_id", out.TraceID)
		}
		if out.Err != nil {
			attrs = append(attrs, "err", out.Err.Error())
		}
		p.cfg.Events.Info("job.finish", attrs...)
	}
	p.mu.Lock()
	p.pending--
	p.idle.Broadcast()
	p.mu.Unlock()
	if p.cfg.OnFinish != nil {
		p.cfg.OnFinish(out)
	}
}

// Quiesce blocks until every accepted job has finished (or been
// checkpointed by a concurrent drain). It does not stop the pool; the
// daemon's one-shot mode uses it between spool sweeps.
func (p *Pool) Quiesce() {
	p.mu.Lock()
	for p.pending > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// Outcomes returns a snapshot of per-job outcomes so far, including a
// queued placeholder row per not-yet-started job. Results keep their
// races, stats, phases and mode; Trace, Info and Graph are nil.
func (p *Pool) Outcomes() []report.Outcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]report.Outcome(nil), p.outcomes...)
	for name, n := range p.queued {
		for i := 0; i < n; i++ {
			out = append(out, report.Outcome{Name: name, JobState: report.JobQueued})
		}
	}
	return out
}

// Shutdown gracefully stops the pool: intake is closed (further Submits
// shed with ReasonShuttingDown), jobs already executing run to
// completion or until ctx expires — whichever comes first — and jobs
// still queued are checkpointed as drained instead of started. It
// returns every per-job outcome, ready for report.Pipeline.
func (p *Pool) Shutdown(ctx context.Context) []report.Outcome {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		p.wg.Wait()
		return p.Outcomes()
	}
	p.draining = true
	p.mu.Unlock()
	close(p.queue)
	// Kill-point: process death after intake closes but before in-flight
	// jobs finish draining — the window where queued work exists only in
	// the journal.
	faultinject.Crash("jobs.drain")
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline: cancel in-flight jobs; their budget checkers
		// turn the cancellation into structured partial outcomes.
		p.cancel()
		<-done
	}
	p.cancel()
	return p.Outcomes()
}

// runJob supervises one job execution: breaker short-circuit, bounded
// retries with backoff, budget composition, and panic isolation. ctx is
// the pool's root context, optionally carrying the job's trace recorder
// (see worker) so analysis phases become child spans.
func (p *Pool) runJob(job Job, ctx context.Context) report.Outcome {
	out := report.Outcome{Name: job.Name}
	key := job.key()
	if reason, open := p.brk.OpenFor(key); open {
		return breakerOpen(out, key, reason)
	}
	retry := p.cfg.Retry.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= retry.MaxAttempts; attempt++ {
		out.Attempts = attempt
		if attempt > 1 {
			retriesTotal.Inc()
		}
		if err := p.rootCtx.Err(); err != nil {
			out.Err = &budget.Error{Stage: "jobs", Resource: budget.ResourceContext, Cause: err}
			return out
		}
		res, err := p.runAttempt(job, ctx)
		if err == nil {
			p.brk.Success(key)
			out.Result = res
			return out
		}
		lastErr = err
		out.Result = res // keep the partial result of the last attempt
		if be, ok := budget.AsError(err); ok && be.Canceled() {
			// Explicit cancellation is never retried and never counts
			// against the input.
			out.Err = err
			return out
		}
		if opened := p.brk.Failure(key, err); opened {
			// The breaker opened on this failure; stop burning attempts
			// on an input that keeps killing the pipeline.
			return breakerOpen(out, key, err)
		}
		if !retry.Retryable(err) {
			break
		}
		if attempt < retry.MaxAttempts {
			if err := retry.pause(p.rootCtx, attempt); err != nil {
				out.Err = err
				return out
			}
		}
	}
	out.Err = lastErr
	return out
}

// runAttempt executes one attempt under the pool budget, isolating
// panics that escape the job's own boundaries.
func (p *Pool) runAttempt(job Job, ctx context.Context) (res *core.Result, err error) {
	if p.cfg.Budget.Wall > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.Budget.Wall)
		defer cancel()
	}
	ierr := budget.Isolate("jobs.run", func() error {
		res, err = job.Run(ctx, p.cfg.Budget)
		return nil
	})
	if ierr != nil {
		return nil, ierr
	}
	return res, err
}

// breakerOpen fails the job because the breaker for key is open: the
// input is not run again, and no weaker analysis answers in its place.
func breakerOpen(out report.Outcome, key string, reason error) report.Outcome {
	out.Err = fmt.Errorf("jobs: breaker open for %s: %w", key, reason)
	return out
}

// JobEntry is the journal payload recorded per finished job. Races and
// Digest fingerprint the result's race set (see ResultDigest), so a
// duplicate submission of completed work can be answered from the
// journal — including across restarts — without re-running the analysis.
type JobEntry struct {
	Name     string `json:"name"`
	Mode     string `json:"mode"`
	Attempts int    `json:"attempts,omitempty"`
	Races    int    `json:"races,omitempty"`
	Digest   string `json:"digest,omitempty"`
	// TraceID is the distributed trace that analyzed this input, so an
	// operator can go from a journal record (or a duplicate submission
	// replayed from it) back to the exact admission, queue wait, and
	// per-phase spans that produced the result.
	TraceID string `json:"trace_id,omitempty"`
}

// OutcomeMode renders the outcome's analysis disposition for journaling:
// "full", "partial", or "error" (supervisor states are not journaled —
// a drained or shed job is still pending).
func OutcomeMode(out report.Outcome) string {
	switch {
	case out.Err != nil && out.Result != nil:
		return "partial"
	case out.Err != nil:
		return "error"
	default:
		return "full"
	}
}

// CompletedRecords extracts the journal record of every job that
// finished with a full analysis (latest entry wins), so a restarted
// daemon re-runs only unfinished inputs and the ingestion layer can
// replay mode, race count, and race-set digest to duplicate
// submissions. Any other mode is not a completion: a "degraded" record
// written by an earlier version carries a pure-MT race set, so its
// input is analyzed again instead of replayed.
func CompletedRecords(entries []journal.Entry) map[string]JobEntry {
	done := make(map[string]JobEntry)
	for _, e := range entries {
		if e.Type != "job" {
			continue
		}
		var je JobEntry
		if err := e.Decode(&je); err != nil {
			continue
		}
		if je.Mode == "full" {
			done[je.Name] = je
		}
	}
	return done
}

// BreakerOpen reports whether the per-input circuit breaker is open for
// key, with the failure that opened it. The ingestion layer consults it
// at admission time so a known-bad input is refused with 503 instead of
// queueing a job that would fail at once.
func (p *Pool) BreakerOpen(key string) (error, bool) {
	return p.brk.OpenFor(key)
}

// parseSpoolFile reads and parses the spool file at path through the
// spool's storage layer (so chaos tests can inject read faults), with
// read-back verification for content-named files: a <key>.trace name
// commits to the sha256-derived key of the bytes it was written with,
// and a mismatch returns a *storage.CorruptError instead of a parsed
// trace — analyzing rotted bytes would produce a confidently wrong
// result under the original body's idempotency key. Verified files are
// read whole, which is bounded by the ingestion body cap that produced
// them; foreign names (no content key) still stream.
func parseSpoolFile(path string) (*trace.Trace, error) {
	fsys := faultinject.Storage("spool")
	base := filepath.Base(path)
	if _, keyed := storage.ContentKey(base); !keyed {
		f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return nil, storage.CountError("spool.read", err)
		}
		defer f.Close()
		return trace.Parse(f)
	}
	body, err := fsys.ReadFile(path)
	if err != nil {
		return nil, storage.CountError("spool.read", err)
	}
	if err := storage.VerifyBody(base, body); err != nil {
		return nil, storage.CountError("spool.read", err)
	}
	return trace.ParseBytes(body)
}

// TraceJob builds the supervised job that analyzes the trace file at
// path: the full pipeline under the pool budget. The file is re-read
// and re-verified per attempt (see parseSpoolFile) — a corrupt read
// fails the attempt with a deterministic error, which exhausts retries
// and dead-letters the file through the quarantine with its `corrupt`
// reason — and the parse itself is inside the supervised boundary.
func TraceJob(name, path string, opts core.Options) Job {
	return Job{
		Name: name,
		Key:  path,
		Path: path,
		Run: func(ctx context.Context, lim budget.Limits) (*core.Result, error) {
			t0 := time.Now()
			tr, err := parseSpoolFile(path)
			if rec, parent := obs.TraceFromContext(ctx); rec != nil {
				rec.AddSpan("phase.parse", parent, t0, time.Since(t0))
			}
			if err != nil {
				return nil, err
			}
			o := opts
			if o.Budget.IsZero() {
				o.Budget = lim
			}
			return core.AnalyzeContext(ctx, tr, o)
		},
	}
}

// Runner executes one trace analysis out of process; the sentinel
// Isolator satisfies it. The indirection keeps jobs ignorant of how the
// sandbox works while still owning the supervision around it.
type Runner interface {
	Run(ctx context.Context, path string, opts core.Options) (*core.Result, error)
}

// IsolatedTraceJob builds a job whose analysis runs in a sandboxed
// worker subprocess via iso — the heavy path: an input whose estimated
// analysis footprint exceeds the soft cost ceiling never touches the
// daemon's heap. A dead sandbox surfaces as a deterministic resource
// error (see sentinel.ResourceError): no retries, no in-process
// fallback — re-running a memory bomb on the shared heap is exactly
// what isolation exists to prevent — so the input dead-letters through
// the quarantine with its "resource:" reason.
func IsolatedTraceJob(name, path string, opts core.Options, iso Runner) Job {
	return Job{
		Name: name,
		Key:  path,
		Path: path,
		Run: func(ctx context.Context, lim budget.Limits) (*core.Result, error) {
			o := opts
			if o.Budget.IsZero() {
				o.Budget = lim
			}
			return iso.Run(ctx, path, o)
		},
	}
}

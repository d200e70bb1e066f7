package sentinel

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/hb"
	"droidracer/internal/obs"
	"droidracer/internal/race"
	"droidracer/internal/trace"
)

// Exit-status classes of a dead isolated worker. Each becomes the Class
// of a ResourceError, so the quarantine reason records *how* the input
// killed its sandbox.
const (
	// ClassOOMKill: the kernel (or a kill-point simulating it) SIGKILLed
	// the child — death without a word.
	ClassOOMKill = "oom-kill"
	// ClassMemLimit: the child's allocator hit RLIMIT_AS and the Go
	// runtime threw "out of memory" — the rlimit did its job.
	ClassMemLimit = "memlimit"
	// ClassDeadline: the parent's wall watchdog killed a child that
	// would not finish.
	ClassDeadline = "deadline"
	// ClassPanic: the child died of an uncaught panic.
	ClassPanic = "panic"
	// ClassCrash: any other abnormal death.
	ClassCrash = "crash"
)

// ResourceError is the classified death of an isolated worker. Its
// Error string carries the "resource:" prefix into the quarantine
// reason, and Deterministic tells the retry policy not to burn more
// attempts (and more subprocesses) on an input that just proved it
// exhausts its sandbox.
type ResourceError struct {
	// Class is one of the Class* exit classes.
	Class string
	// Detail is the clipped evidence: the child's stderr tail or the
	// wait error.
	Detail string
}

// Error implements error.
func (e *ResourceError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("resource: %s", e.Class)
	}
	return fmt.Sprintf("resource: %s: %s", e.Class, e.Detail)
}

// Deterministic marks the failure as input-caused: re-running the same
// trace in the same sandbox dies the same way.
func (e *ResourceError) Deterministic() bool { return true }

// workerSpec is the contract between Isolator and WorkerMain, passed
// through the EnvWorker environment variable as JSON. The result comes
// back through the Out file, never stdout — a re-exec'd test binary
// chatters on stdout. The worker runs the streaming engine, the only
// one the daemon serves.
type workerSpec struct {
	Trace         string    `json:"trace"`
	Out           string    `json:"out"`
	MemLimit      int64     `json:"mem_limit"`
	HB            hb.Config `json:"hb"`
	Dedup         bool      `json:"dedup,omitempty"`
	Validate      bool      `json:"validate,omitempty"`
	DropCancelled bool      `json:"drop_cancelled,omitempty"`
	// Wall is the analysis wall budget in nanoseconds, untruncated: a
	// sub-millisecond deadline must not reach the child as 0, which
	// means unlimited.
	Wall time.Duration `json:"wall_ns,omitempty"`
}

// workerResult is what a surviving worker writes to the Out file:
// either an analysis error (Err — the original failure taxonomy, not a
// resource one) or the races and stats the parent rebuilds a
// core.Result from. A budget trip sends both: the sound partial races
// and Budget, which the parent rebuilds into the *budget.Error. Races
// travel with the exact fields ResultDigest hashes, so fleet digest
// equality holds across the process boundary.
type workerResult struct {
	Err       string        `json:"err,omitempty"`
	Budget    *workerBudget `json:"budget,omitempty"`
	Races     []workerRace  `json:"races,omitempty"`
	Stats     trace.Stats   `json:"stats"`
	PeakBytes int64         `json:"peak_bytes,omitempty"`
}

// workerBudget is a *budget.Error on the wire, without its context
// cause (the child runs under no context of the parent's).
type workerBudget struct {
	Stage    string          `json:"stage"`
	Resource budget.Resource `json:"resource"`
	Limit    int64           `json:"limit,omitempty"`
	Used     int64           `json:"used,omitempty"`
}

type workerRace struct {
	First    int    `json:"first"`
	Second   int    `json:"second"`
	Loc      string `json:"loc"`
	Category int    `json:"category"`
}

// EnvWorker carries the workerSpec JSON to the child.
const EnvWorker = "DROIDRACER_WORKER"

// Isolator runs heavy analyses in a re-exec'd worker subprocess whose
// address space is capped by RLIMIT_AS (hard kill) and GOMEMLIMIT (GC
// pressure before the kill), under a wall watchdog. The daemon's heap
// never hosts the input; the worst a memory bomb achieves is one dead
// child, classified into a ResourceError.
type Isolator struct {
	// Exe is the binary to re-exec (racedetd itself, or a test binary).
	Exe string
	// Args is the argv prefix selecting worker mode (e.g. ["-worker"]).
	Args []string
	// Env is extra child environment (test helper markers, kill-points).
	Env []string
	// MemLimit caps the child's address-space growth in bytes (default
	// 512 MiB).
	MemLimit int64
	// Wall is the watchdog deadline (default 2m).
	Wall time.Duration
	// Events, when set, receives sentinel.isolated events with the
	// outcome and the child's peak memory — the "actual" against the
	// admission estimate.
	Events *slog.Logger
}

// stderrCap bounds how much child stderr the parent retains for
// classification and quarantine reasons.
const stderrCap = 16 << 10

// limitedBuf keeps the first stderrCap bytes and drops the rest: the
// classification markers ("runtime: out of memory", "panic:") lead the
// crash output.
type limitedBuf struct{ b []byte }

func (l *limitedBuf) Write(p []byte) (int, error) {
	if room := stderrCap - len(l.b); room > 0 {
		if len(p) < room {
			room = len(p)
		}
		l.b = append(l.b, p[:room]...)
	}
	return len(p), nil
}

// Run analyzes the trace file at path in a worker subprocess, blocking
// until the child exits, the watchdog fires, or ctx is cancelled. A
// surviving child's result is rebuilt into a *core.Result; a dead one
// is classified into a *ResourceError.
func (i *Isolator) Run(ctx context.Context, path string, opts core.Options) (*core.Result, error) {
	memLimit := i.MemLimit
	if memLimit <= 0 {
		memLimit = 512 << 20
	}
	wall := i.Wall
	if wall <= 0 {
		wall = 2 * time.Minute
	}
	out, err := os.CreateTemp("", "droidracer-worker-*.json")
	if err != nil {
		return nil, fmt.Errorf("sentinel: worker out file: %w", err)
	}
	outPath := out.Name()
	out.Close()
	defer os.Remove(outPath)

	spec := workerSpec{
		Trace:         path,
		Out:           outPath,
		MemLimit:      memLimit,
		HB:            opts.HB,
		Dedup:         opts.Dedup,
		Validate:      opts.Validate,
		DropCancelled: opts.DropCancelled,
		Wall:          opts.Budget.Wall,
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("sentinel: worker spec: %w", err)
	}

	var sp *obs.TSpan
	if rec, parent := obs.TraceFromContext(ctx); rec != nil {
		sp = rec.StartSpan("sentinel.isolate", parent)
		defer sp.End()
	}

	cmd := exec.Command(i.Exe, i.Args...)
	cmd.Env = append(os.Environ(), i.Env...)
	cmd.Env = append(cmd.Env,
		EnvWorker+"="+string(specJSON),
		"GOMEMLIMIT="+strconv.FormatInt(memLimit, 10),
	)
	var stderr limitedBuf
	cmd.Stderr = &stderr
	cmd.Stdout = nil
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("sentinel: start worker: %w", err)
	}
	var timedOut atomic.Bool
	watchdog := time.AfterFunc(wall, func() {
		timedOut.Store(true)
		cmd.Process.Kill()
	})
	waitDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			cmd.Process.Kill()
		case <-waitDone:
		}
	}()
	werr := cmd.Wait()
	close(waitDone)
	watchdog.Stop()
	elapsed := time.Since(start)

	res, rerr := i.conclude(path, outPath, werr, &stderr, &timedOut, ctx)
	outcome := "ok"
	var peak int64
	if res != nil {
		// Peak memory travels back inside the result file; surface it.
		if wr := readWorkerResult(outPath); wr != nil {
			peak = wr.PeakBytes
		}
	}
	var re *ResourceError
	if errors.As(rerr, &re) {
		outcome = re.Class
	}
	countIsolated(outcome)
	if peak > 0 {
		isolatedPeak.Set(peak)
	}
	if sp != nil {
		sp.SetAttr("outcome", outcome)
		sp.SetAttr("peak_bytes", strconv.FormatInt(peak, 10))
		sp.SetErr(rerr)
	}
	if i.Events != nil {
		i.Events.Info("sentinel.isolated", "trace", path, "outcome", outcome,
			"peak_bytes", peak, "mem_limit", memLimit, "wall", elapsed.String())
	}
	return res, rerr
}

// conclude turns the child's exit into a result or a classified error.
func (i *Isolator) conclude(path, outPath string, werr error, stderr *limitedBuf, timedOut *atomic.Bool, ctx context.Context) (*core.Result, error) {
	if ctx.Err() != nil {
		// The parent cancelled (shutdown drain): a transient outcome the
		// next incarnation retries, never a quarantine.
		return nil, &budget.Error{Stage: "sentinel", Resource: budget.ResourceContext, Cause: ctx.Err()}
	}
	if timedOut.Load() {
		return nil, &ResourceError{Class: ClassDeadline,
			Detail: fmt.Sprintf("worker exceeded the %s wall watchdog", i.wallString())}
	}
	if werr == nil || exitCode(werr) == workerExitAnalysisError {
		wr := readWorkerResult(outPath)
		if wr == nil {
			return nil, &ResourceError{Class: ClassCrash, Detail: "worker exited clean without a readable result"}
		}
		if wr.Err != "" {
			// The analysis itself failed — a parse error, a validation
			// failure. That is the original quarantine taxonomy, not a
			// resource death; reconstruct the error transparently.
			return nil, errors.New(wr.Err)
		}
		races := make([]race.Race, len(wr.Races))
		for k, r := range wr.Races {
			races[k] = race.Race{First: r.First, Second: r.Second,
				Loc: trace.Loc(r.Loc), Category: race.Category(r.Category)}
		}
		res := &core.Result{Races: races, Stats: wr.Stats}
		if b := wr.Budget; b != nil {
			// A budget trip, not a poison input: the typed error keeps it
			// out of the quarantine, like the in-process path.
			return res, &budget.Error{Stage: b.Stage, Resource: b.Resource, Limit: b.Limit, Used: b.Used}
		}
		return res, nil
	}
	return nil, classifyExit(werr, string(stderr.b))
}

func (i *Isolator) wallString() string {
	if i.Wall > 0 {
		return i.Wall.String()
	}
	return (2 * time.Minute).String()
}

// readWorkerResult decodes the child's result file, nil when missing or
// garbled (a crash mid-write).
func readWorkerResult(path string) *workerResult {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return nil
	}
	var wr workerResult
	if json.Unmarshal(data, &wr) != nil {
		return nil
	}
	return &wr
}

// exitCode extracts the exit status from a wait error (-1 when the
// process died of a signal or the error is not an ExitError).
func exitCode(werr error) int {
	var ee *exec.ExitError
	if errors.As(werr, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// classifyExit maps a dead child's wait status and stderr onto the
// exit-status classification table (DESIGN.md §16): SIGKILL and exit
// 137 read as the OOM killer, the Go runtime's out-of-memory throw as
// the rlimit, a panic banner as a panic, anything else as a crash.
func classifyExit(werr error, stderr string) *ResourceError {
	detail := clipDetail(stderr)
	if detail == "" {
		detail = werr.Error()
	}
	var ee *exec.ExitError
	if errors.As(werr, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
			return &ResourceError{Class: ClassOOMKill, Detail: detail}
		}
		if ee.ExitCode() == 137 {
			return &ResourceError{Class: ClassOOMKill, Detail: detail}
		}
	}
	switch {
	// "failed to allocate" is how the sanitizer runtimes (TSan under
	// -race) report hitting the rlimit, and "address space collisions"
	// is the Go runtime giving up after rlimit-blocked mappings land at
	// unexpected addresses; errno 12 is ENOMEM from any allocator that
	// prints it.
	case containsAny(stderr, "runtime: out of memory", "out of memory", "cannot allocate memory", "failed to allocate", "errno: 12", "address space collisions", "runtime: VirtualAlloc", "mmap errno"):
		return &ResourceError{Class: ClassMemLimit, Detail: detail}
	case containsAny(stderr, "panic:"):
		return &ResourceError{Class: ClassPanic, Detail: detail}
	default:
		return &ResourceError{Class: ClassCrash, Detail: detail}
	}
}

// clipDetail compresses stderr into a one-line quarantine reason: the
// first non-empty line, clipped.
func clipDetail(stderr string) string {
	for _, line := range strings.Split(stderr, "\n") {
		line = strings.TrimSpace(line)
		if line != "" {
			if len(line) > 200 {
				line = line[:200]
			}
			return line
		}
	}
	return ""
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// workerExitAnalysisError is the worker's exit code for an analysis
// failure whose error travelled back in the result file — a failure of
// the input, not of the sandbox.
const workerExitAnalysisError = 3

// Package droidracer is a Go reproduction of "Race Detection for Android
// Applications" (Maiya, Kanade, Majumdar — PLDI 2014): a formal
// concurrency semantics for Android's mixed multithreading/event-dispatch
// model, the happens-before relation that generalizes the multithreaded
// and single-threaded-event-driven relations, and the DroidRacer dynamic
// race detector with systematic UI testing.
//
// The package is organized in three layers:
//
//   - Traces and analysis: execution traces in the paper's core language
//     (Table 1), the Figure 5 operational semantics, the Figures 6–7
//     happens-before engine, and the §4.3 race detector/classifier.
//     Entry point: Analyze.
//   - Simulated runtime: a deterministic scheduler plus a model of the
//     Android framework (loopers, handlers, AsyncTask, lifecycles, UI
//     input, services, receivers) that replaces the paper's instrumented
//     Dalvik VM and executes application models into traces. Entry point:
//     NewEnv.
//   - Systematic testing: the UI Explorer (DFS over event sequences with
//     replay) and the reorder-replay race verifier. Entry points: Explore,
//     VerifyRace.
//
// A minimal end-to-end use:
//
//	env := droidracer.NewEnv(droidracer.DefaultEnvOptions())
//	env.RegisterActivity("Main", func() droidracer.Activity { return &myActivity{} })
//	_ = env.Launch("Main")
//	_ = env.Run()
//	_ = env.Shutdown()
//	result, _ := droidracer.Analyze(env.Trace(), droidracer.DefaultOptions())
//	for _, r := range result.Races {
//	    fmt.Println(r)
//	}
package droidracer

import (
	"context"
	"errors"
	"io"

	"droidracer/internal/android"
	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/explain"
	"droidracer/internal/explorer"
	"droidracer/internal/hb"
	"droidracer/internal/minimize"
	"droidracer/internal/race"
	"droidracer/internal/semantics"
	"droidracer/internal/stream"
	"droidracer/internal/trace"
)

// Trace and core-language types.
type (
	// Trace is an execution trace in the paper's core language.
	Trace = trace.Trace
	// Op is one trace operation.
	Op = trace.Op
	// ThreadID identifies a thread.
	ThreadID = trace.ThreadID
	// TaskID identifies an asynchronous task.
	TaskID = trace.TaskID
	// Loc identifies a memory location.
	Loc = trace.Loc
	// LockID identifies a lock.
	LockID = trace.LockID
	// Stats are per-trace statistics (Table 2 columns).
	Stats = trace.Stats
)

// Analysis types.
type (
	// Options configure Analyze.
	Options = core.Options
	// Result is a completed analysis.
	Result = core.Result
	// HBConfig selects happens-before rule subsets and optimizations.
	HBConfig = hb.Config
	// Race is one detected data race.
	Race = race.Race
	// Category classifies a race (§4.3).
	Category = race.Category
)

// Robustness types of the hardened pipeline.
type (
	// Budget bounds one analysis or exploration (wall-clock deadline,
	// explorer sequence cap). The zero value means unlimited.
	Budget = budget.Limits
	// BudgetError is the structured budget-exhaustion/cancellation error;
	// match with errors.As. Its Canceled method distinguishes explicit
	// cancellation from exhausted budgets.
	BudgetError = budget.Error
	// PanicError is a panic recovered at a pipeline boundary.
	PanicError = budget.PanicError
	// ModelError reports a mistake in an application model (unregistered
	// activity, missing widget, invalid lifecycle request), surfaced
	// through the run's error instead of crashing the process.
	ModelError = android.ModelError
	// RetryPolicy bounds retry-with-backoff around race verification.
	RetryPolicy = explorer.RetryPolicy
)

// Race categories.
const (
	Multithreaded = race.Multithreaded
	CoEnabled     = race.CoEnabled
	Delayed       = race.Delayed
	CrossPosted   = race.CrossPosted
	Unknown       = race.Unknown
)

// Runtime types.
type (
	// Env is a simulated Android process.
	Env = android.Env
	// EnvOptions configure the environment.
	EnvOptions = android.Options
	// Ctx is the execution context passed to application callbacks.
	Ctx = android.Ctx
	// Activity is the activity lifecycle interface.
	Activity = android.Activity
	// BaseActivity provides no-op lifecycle callbacks for embedding.
	BaseActivity = android.BaseActivity
	// Service is the started-service interface.
	Service = android.Service
	// BaseService provides no-op service callbacks for embedding.
	BaseService = android.BaseService
	// AsyncTask mirrors android.os.AsyncTask.
	AsyncTask = android.AsyncTask
	// Handler posts tasks to a thread's queue.
	Handler = android.Handler
	// UIEvent is an explorer-fireable event.
	UIEvent = android.UIEvent
	// EventKind classifies UI events.
	EventKind = android.EventKind
)

// UI event kinds.
const (
	EvClick     = android.EvClick
	EvLongClick = android.EvLongClick
	EvText      = android.EvText
	EvBack      = android.EvBack
	EvHome      = android.EvHome
	EvReturn    = android.EvReturn
	EvRotate    = android.EvRotate
)

// Explorer types.
type (
	// AppFactory builds a fresh environment for one exploration run.
	AppFactory = explorer.AppFactory
	// ExploreOptions bound an exploration.
	ExploreOptions = explorer.Options
	// ExploreResult is the outcome of an exploration.
	ExploreResult = explorer.Result
	// Test is one explored event sequence with its trace.
	Test = explorer.Test
	// Verification is the outcome of a reorder-replay attempt.
	Verification = explorer.Verification
)

// DefaultOptions returns the analysis configuration DroidRacer uses: the
// full happens-before relation, semantic validation, cancellation
// pruning, and per-(location, category) deduplication. Analysis replays
// the trace once with vector clocks in linear memory; the STOnly
// ablation is not supported by Analyze.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultHBConfig returns the paper's full happens-before rule set.
func DefaultHBConfig() HBConfig { return hb.DefaultConfig() }

// Analyze runs the DroidRacer analysis pipeline on a trace: semantic
// validation, happens-before computation, race detection, and
// classification.
func Analyze(tr *Trace, opts Options) (*Result, error) { return core.Analyze(tr, opts) }

// AnalyzeContext is Analyze under a context and opts.Budget: the
// pipeline polls both in its hot loops and recovers panics into
// *PanicError. An exhausted budget returns the partial Result built so
// far, whose races are a sound subset, with a *BudgetError.
func AnalyzeContext(ctx context.Context, tr *Trace, opts Options) (*Result, error) {
	return core.AnalyzeContext(ctx, tr, opts)
}

// DefaultEnvOptions returns the default simulated-runtime configuration:
// deterministic scheduling, trace recording, one binder thread, and BACK
// events enabled.
func DefaultEnvOptions() EnvOptions { return android.DefaultOptions() }

// NewEnv creates a simulated Android process.
func NewEnv(opts EnvOptions) *Env { return android.NewEnv(opts) }

// Explore systematically tests an application: depth-first generation of
// UI event sequences up to opts.MaxEvents with deterministic replay.
func Explore(factory AppFactory, opts ExploreOptions) (*ExploreResult, error) {
	return explorer.Explore(factory, opts)
}

// ExploreContext is Explore under a context and opts.Budget; on budget
// exhaustion the tests recorded so far are returned together with a
// *BudgetError.
func ExploreContext(ctx context.Context, factory AppFactory, opts ExploreOptions) (*ExploreResult, error) {
	return explorer.ExploreContext(ctx, factory, opts)
}

// RandomExploreOptions bound a random (Dynodroid/Monkey-style)
// exploration.
type RandomExploreOptions = explorer.RandomOptions

// RandomExplore fires uniformly random enabled events instead of
// enumerating sequences (the §7 comparison point).
func RandomExplore(factory AppFactory, opts RandomExploreOptions) (*ExploreResult, error) {
	return explorer.RandomExplore(factory, opts)
}

// Replay re-executes a stored event sequence under the given scheduling
// seed and returns the trace.
func Replay(factory AppFactory, seed int64, sequence []UIEvent) (*Trace, error) {
	return explorer.Replay(factory, seed, sequence)
}

// VerifyRace attempts to confirm a reported race by producing an execution
// with the opposite access order (the paper's true-positive criterion).
func VerifyRace(factory AppFactory, sequence []UIEvent, info *trace.Info, r Race, maxAttempts int) (Verification, error) {
	return explorer.VerifyRace(factory, sequence, info, r, maxAttempts)
}

// VerifyRaceWithRetry is VerifyRace with seeded, deterministic
// retry-with-backoff: each round tries a disjoint block of scheduling
// seeds, pausing per the policy between rounds.
func VerifyRaceWithRetry(factory AppFactory, sequence []UIEvent, info *trace.Info, r Race, policy RetryPolicy) (Verification, error) {
	return explorer.VerifyRaceWithRetry(factory, sequence, info, r, policy)
}

// DefaultRetryPolicy retries verification twice beyond the first round
// with doubling, jittered backoff.
func DefaultRetryPolicy(attemptsPerRound int) RetryPolicy {
	return explorer.DefaultRetryPolicy(attemptsPerRound)
}

// AsBudgetError unwraps err to a *BudgetError when one is in its chain.
func AsBudgetError(err error) (*BudgetError, bool) { return budget.AsError(err) }

// ParseTrace reads a trace in the textual format (one operation per line,
// e.g. "post(t0,LAUNCH_ACTIVITY,t1)").
func ParseTrace(r io.Reader) (*Trace, error) { return trace.Parse(r) }

// FormatTrace writes a trace in the textual format.
func FormatTrace(w io.Writer, tr *Trace) error { return trace.Format(w, tr) }

// ValidateTrace replays a trace under the Figure 5 operational semantics,
// returning the index of the first invalid operation and an error, or
// (-1, nil) for valid executions. Framework threads without explicit
// threadinit operations are inferred.
func ValidateTrace(tr *Trace) (int, error) { return semantics.ValidateInferred(tr) }

// Explanation is the debugging story of one race: post chains, hints, and
// near misses (rules that almost ordered the pair).
type Explanation = explain.Explanation

// Relation is the happens-before relation of an analyzed trace, as
// Explain queries it.
type Relation = explain.Relation

// HappensBefore replays res's annotated trace under cfg (the HB field of
// the options res was analyzed with) and returns its happens-before
// relation, with every operation's vector clocks recorded. The replay
// costs memory proportional to the operations times the clock width.
func HappensBefore(res *Result, cfg HBConfig) (Relation, error) {
	if res.Info == nil {
		return nil, errors.New("droidracer: the result has no annotated trace")
	}
	out, err := stream.Run(res.Info, stream.Options{HB: cfg, RecordClocks: true}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Explain builds a debugging explanation for a detected race over the
// relation HappensBefore returns.
func Explain(rel Relation, r Race) Explanation { return explain.Explain(rel, r) }

// MinimizedRace is the result of trace minimization: the smallest trace
// the greedy reduction found that still exhibits the race.
type MinimizedRace = minimize.Result

// Minimize shrinks tr while preserving r: unrelated accesses, tasks, and
// whole threads are removed as long as the trace stays a valid execution
// and the race is still reported. The result is a small witness for
// debugging.
func Minimize(tr *Trace, r Race, cfg HBConfig) (*MinimizedRace, error) {
	return minimize.Minimize(tr, r, cfg)
}

// Package core assembles the DroidRacer analysis pipeline: semantic
// validation of an execution trace (Figure 5), structural annotation,
// happens-before computation (Figures 6–7), and race detection with
// classification (§4.3). It is the single entry point the command-line
// tools, the public API, and the evaluation harness share.
//
// The pipeline is hardened for adversarial inputs: AnalyzeContext
// accepts a context and a Budget, polls them in every hot loop, recovers
// panics into typed errors, and — when the full st/mt analysis exceeds
// its budget — degrades to the linear pure-MT baseline detector so a
// report is always produced.
package core

import (
	"context"
	"errors"
	"fmt"

	"droidracer/internal/baseline"
	"droidracer/internal/budget"
	"droidracer/internal/hb"
	"droidracer/internal/obs"
	"droidracer/internal/race"
	"droidracer/internal/semantics"
	"droidracer/internal/stream"
	"droidracer/internal/trace"
)

// Analysis engine selectors for Options.Engine.
const (
	// EngineGraph is the paper's engine: materialize the happens-before
	// graph, close it transitively, scan access pairs. Memory is
	// O(nodes²); required for -dot, -explain, trace minimization and
	// the STOnly ablation, which need the graph object.
	EngineGraph = "graph"
	// EngineStream, the default, replays the trace once with
	// per-context vector clocks and per-location shadow state — no
	// graph, no closure. Memory is O(ops + contexts²-free clock width);
	// race sets are identical to EngineGraph (CI diffs the two
	// continuously).
	EngineStream = "stream"
)

// NormalizeEngine canonicalizes an engine selector: the empty string
// means EngineStream. Unknown names are an error listing the choices.
func NormalizeEngine(engine string) (string, error) {
	switch engine {
	case "", EngineStream:
		return EngineStream, nil
	case EngineGraph:
		return EngineGraph, nil
	default:
		return "", fmt.Errorf("unknown analysis engine %q (choices: %s, %s)", engine, EngineGraph, EngineStream)
	}
}

// Budget bounds one analysis: wall-clock deadline, happens-before graph
// size, closure work, and explorer sequences. The zero value means
// unlimited. See the budget package for field semantics.
type Budget = budget.Limits

// Options configure one analysis.
type Options struct {
	// HB selects the happens-before rule set; DefaultOptions uses the
	// paper's full relation.
	HB hb.Config
	// Engine selects the analysis backend: EngineStream (the default;
	// also selected by "") or EngineGraph. Both report identical race
	// sets; they trade differently — the streaming engine analyzes
	// traces whose closure would not fit in memory, the graph engine
	// builds the Graph that -dot/-explain/minimization, graph budgets
	// and the STOnly ablation need.
	Engine string
	// Dedup reports one race per (location, category), the paper's
	// reporting granularity. When false, every racing pair is reported.
	Dedup bool
	// Validate replays the trace under the Figure 5 semantics first and
	// rejects traces that are not valid executions.
	Validate bool
	// DropCancelled removes cancelled posts before analysis (§4.2).
	DropCancelled bool
	// Budget bounds the analysis. The zero value means unlimited.
	Budget Budget
	// DegradeOnBudget falls back to the pure-MT baseline detector when
	// the full analysis exhausts its budget, producing a Degraded result
	// instead of an error. Explicit cancellation (context.Canceled) is
	// never absorbed. When false, budget exhaustion returns the
	// *budget.Error together with the partial Result built so far.
	DegradeOnBudget bool
	// Parallelism is kept only so code written against the former
	// parallel closure still compiles; the graph engine is serial.
	// The next change to the serve-path benchmark, its last user,
	// deletes it.
	//
	// Deprecated: ignored. Use EngineStream for a fast analysis.
	Parallelism int
}

// DefaultOptions returns the configuration DroidRacer runs with.
func DefaultOptions() Options {
	return Options{
		HB:              hb.DefaultConfig(),
		Dedup:           true,
		Validate:        true,
		DropCancelled:   true,
		DegradeOnBudget: true,
	}
}

// Result is a completed analysis.
type Result struct {
	// Trace is the analyzed trace (after cancellation pruning).
	Trace *trace.Trace
	// Info carries the structural annotations. Nil in degraded results
	// when annotation itself was cut short.
	Info *trace.Info
	// Graph is the happens-before graph. Nil in degraded results: the
	// full graph was abandoned when the budget tripped.
	Graph *hb.Graph
	// Races are the reported data races, classified. In degraded results
	// they come from the pure-MT baseline: single-threaded races are
	// missing and classification is limited to multithreaded/unknown.
	Races []race.Race
	// Stats are the Table 2 statistics of the trace.
	Stats trace.Stats
	// Degraded reports that the full analysis exceeded its budget and
	// the races come from the baseline fallback detector.
	Degraded bool
	// DegradedReason is the budget error that forced the fallback, nil
	// for full results.
	DegradedReason error
	// Phases are the per-phase wall-clock timings of this analysis
	// (validate, annotate, happens-before, race-scan — or stream-replay
	// — and degrade when the fallback ran), in completion order.
	// racedet -phase-timings renders them; they are also mirrored into
	// the process-wide droidracer_phase_duration_seconds histogram.
	Phases []obs.PhaseTiming
	// Engine is the backend that produced Races: EngineGraph or
	// EngineStream (degraded results keep the engine that was asked
	// for; the baseline fallback is reported via Degraded).
	Engine string
}

// Analyze runs the full pipeline on tr without a deadline. See
// AnalyzeContext for budgeted analysis.
func Analyze(tr *trace.Trace, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), tr, opts)
}

// AnalyzeContext runs the pipeline under ctx and opts.Budget. Outcomes:
//
//   - Within budget: a full Result, nil error.
//   - Budget exhausted, opts.DegradeOnBudget: a Degraded Result backed
//     by the pure-MT baseline detector, nil error.
//   - Budget exhausted otherwise: the partial Result built so far (its
//     Graph may be nil or under-closed) and a *budget.Error.
//   - ctx canceled: partial Result and a *budget.Error with
//     Canceled() == true — never absorbed by degradation.
//   - Panic in the pipeline or the app model: a *budget.PanicError.
//   - Invalid trace: a plain validation error, as before.
func AnalyzeContext(ctx context.Context, tr *trace.Trace, opts Options) (res *Result, err error) {
	ierr := budget.Isolate("core.Analyze", func() error {
		res, err = analyze(ctx, tr, opts)
		return nil
	})
	if ierr != nil {
		publishAnalysis(nil, ierr)
		return nil, ierr
	}
	publishAnalysis(res, err)
	return res, err
}

// analyze runs the phased pipeline, attaching the per-phase timings to
// whatever result (full, degraded, or partial) comes back.
func analyze(ctx context.Context, tr *trace.Trace, opts Options) (*Result, error) {
	ph := obs.NewPhases()
	// When the request carries a distributed-trace recorder, each phase
	// timing doubles as a trace span. One context lookup per analysis;
	// untraced callers (benchmarks, CLI) pay only a nil check per phase.
	if rec, parent := obs.TraceFromContext(ctx); rec != nil {
		ph.AttachTrace(rec, parent)
	}
	res, err := analyzePhased(ctx, tr, opts, ph)
	if res != nil {
		res.Phases = ph.Timings()
		// Record which backend the caller asked for, even on degraded or
		// partial results; an unknown selector never reaches here.
		res.Engine, _ = NormalizeEngine(opts.Engine)
	}
	return res, err
}

func analyzePhased(ctx context.Context, tr *trace.Trace, opts Options, ph *obs.Phases) (*Result, error) {
	eng, err := NormalizeEngine(opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ck := budget.NewChecker(ctx, opts.Budget)
	if opts.DropCancelled {
		tr = tr.WithoutCancelled()
	}
	ck.SetStage("validate")
	if opts.Validate {
		sp := ph.Start("validate")
		if err := ck.CheckNow(); err != nil {
			sp.End()
			return degradeOrErr(tr, nil, opts, ck, ph, err)
		}
		i, err := semantics.ValidateInferred(tr)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: trace is not a valid execution (op %d): %w", i, err)
		}
	}
	sp := ph.Start("annotate")
	info, err := trace.Analyze(tr)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if eng == EngineStream {
		return analyzeStream(tr, info, opts, ck, ph)
	}
	ck.SetStage("happens-before")
	sp = ph.Start("happens-before")
	g, err := hb.BuildBudgeted(info, opts.HB, ck)
	sp.End()
	if err != nil {
		res := &Result{Trace: tr, Info: info, Graph: g, Stats: trace.ComputeStats(tr, nil)}
		return degradeOrErr(tr, res, opts, ck, ph, err)
	}
	ck.SetStage("race-scan")
	sp = ph.Start("race-scan")
	d := race.NewDetector(g)
	var races []race.Race
	if opts.Dedup {
		races, err = d.DetectDedupedBudgeted(ck)
	} else {
		races, err = d.DetectBudgeted(ck)
	}
	sp.End()
	res := &Result{
		Trace: tr,
		Info:  info,
		Graph: g,
		Races: races,
		Stats: trace.ComputeStats(tr, nil),
	}
	if err != nil {
		return degradeOrErr(tr, res, opts, ck, ph, err)
	}
	return res, nil
}

// analyzeStream is the EngineStream pipeline tail: one budgeted clock
// replay instead of graph construction plus the quadratic pair scan.
// Result.Graph stays nil — graph-only features (-dot, -explain, trace
// minimization) require EngineGraph and report that themselves. The
// STOnly ablation has no streaming equivalent (its truncated relation
// is not transitive, and a vector clock is inherently transitive), so
// that configuration is a hard error rather than a budget degrade.
func analyzeStream(tr *trace.Trace, info *trace.Info, opts Options, ck *budget.Checker, ph *obs.Phases) (*Result, error) {
	ck.SetStage("stream-replay")
	sp := ph.Start("stream-replay")
	out, err := stream.Run(info, stream.Options{HB: opts.HB, Dedup: opts.Dedup}, ck)
	sp.End()
	res := &Result{Trace: tr, Info: info, Stats: trace.ComputeStats(tr, nil)}
	if out != nil {
		res.Races = out.Races
	}
	if err != nil {
		if errors.Is(err, stream.ErrSTOnly) {
			return nil, fmt.Errorf("core: %w", err)
		}
		return degradeOrErr(tr, res, opts, ck, ph, err)
	}
	return res, nil
}

// AnalyzeBaseline runs only the linear pure-MT baseline detector on tr,
// producing the same Degraded result shape that budget exhaustion
// degrades to. The jobs supervisor routes inputs here once their circuit
// breaker opens: an input that repeatedly paniced or timed out under the
// full analysis still yields a report, at baseline fidelity, without
// re-entering the code that failed. The reason is recorded as
// DegradedReason.
func AnalyzeBaseline(tr *trace.Trace, opts Options, reason error) (res *Result, err error) {
	// Even the fallback is panic-isolated: an input bad enough to trip
	// the breaker must not get a second chance to crash the process.
	ierr := budget.Isolate("core.AnalyzeBaseline", func() error {
		if opts.DropCancelled {
			tr = tr.WithoutCancelled()
		}
		ph := obs.NewPhases()
		res = degrade(tr, nil, ph, reason)
		res.Phases = ph.Timings()
		return nil
	})
	if ierr != nil {
		publishAnalysis(nil, ierr)
		return nil, ierr
	}
	publishAnalysis(res, nil)
	return res, nil
}

// degradeOrErr decides what an exhausted budget becomes: a degraded
// baseline-backed result, or the partial result plus the budget error.
// Explicit cancellation always propagates. The partial result is never
// nil — a budget that trips before any stage produced output (e.g.
// during validation) still hands back the pruned trace and its stats,
// so downstream reporting always has a row to render.
func degradeOrErr(tr *trace.Trace, partial *Result, opts Options, ck *budget.Checker, ph *obs.Phases, err error) (*Result, error) {
	if be, ok := budget.AsError(err); ok && opts.DegradeOnBudget && !be.Canceled() {
		return degrade(tr, partial, ph, err), nil
	}
	if partial == nil {
		partial = &Result{Trace: tr, Stats: trace.ComputeStats(tr, nil)}
	}
	return partial, err
}

// degrade produces the fallback result: races from the linear pure-MT
// baseline detector, which needs no happens-before graph and no budget.
func degrade(tr *trace.Trace, partial *Result, ph *obs.Phases, reason error) *Result {
	sp := ph.Start("degrade")
	defer sp.End()
	res := partial
	if res == nil {
		res = &Result{Trace: tr, Stats: trace.ComputeStats(tr, nil)}
	}
	res.Graph = nil
	res.Races = racesFromFindings(tr, baseline.NewPureMT().Detect(tr))
	res.Degraded = true
	res.DegradedReason = reason
	return res
}

// racesFromFindings converts baseline findings into the report's race
// representation. Baseline detectors have no post-chain information, so
// classification is limited: accesses on two threads are multithreaded,
// anything else is unknown.
func racesFromFindings(tr *trace.Trace, fs []baseline.Finding) []race.Race {
	races := make([]race.Race, 0, len(fs))
	for _, f := range fs {
		cat := race.Unknown
		if tr.Op(f.First).Thread != tr.Op(f.Second).Thread {
			cat = race.Multithreaded
		}
		races = append(races, race.Race{First: f.First, Second: f.Second, Loc: f.Loc, Category: cat})
	}
	return races
}

// Package core assembles the DroidRacer analysis pipeline: semantic
// validation of an execution trace (Figure 5), structural annotation,
// happens-before computation (Figures 6–7), and race detection with
// classification (§4.3). It is the single entry point the command-line
// tools, the public API, and the evaluation harness share.
//
// The pipeline is hardened for adversarial inputs: AnalyzeContext
// accepts a context and a Budget, polls them in every hot loop, and
// recovers panics into typed errors. A graph that outgrows its size
// budget is abandoned for the streaming engine, which reports the same
// race set in linear memory; any other exhausted budget returns the
// sound partial result with the budget error. No path answers with a
// weaker detector than the one it claims.
package core

import (
	"context"
	"errors"
	"fmt"

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
	// MaxGraphNodes and MaxClosureEdges bound the graph engine only.
	Budget Budget
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
		HB:            hb.DefaultConfig(),
		Dedup:         true,
		Validate:      true,
		DropCancelled: true,
	}
}

// Result is a completed analysis.
type Result struct {
	// Trace is the analyzed trace (after cancellation pruning).
	Trace *trace.Trace
	// Info carries the structural annotations. Nil only when the budget
	// ran out during validation, before annotation.
	Info *trace.Info
	// Graph is the happens-before graph. Nil under the streaming engine
	// and in degraded results: the graph was abandoned when it outgrew
	// its size budget.
	Graph *hb.Graph
	// Races are the reported data races, classified. In a full or
	// degraded result they are the exact set; alongside a budget error
	// they are the sound subset found before the budget ran out.
	Races []race.Race
	// Stats are the Table 2 statistics of the trace.
	Stats trace.Stats
	// Degraded reports that the graph engine exceeded its size budget
	// and the races come from the streaming engine's replay instead:
	// the same race set, without the graph.
	Degraded bool
	// DegradedReason is the budget error that abandoned the graph, nil
	// for full results.
	DegradedReason error
	// Phases are the per-phase wall-clock timings of this analysis
	// (validate, annotate, happens-before, race-scan and/or
	// stream-replay), in completion order. racedet -phase-timings
	// renders them; they are also mirrored into the process-wide
	// droidracer_phase_duration_seconds histogram.
	Phases []obs.PhaseTiming
	// Engine is the backend that produced Races: EngineGraph or
	// EngineStream. A degraded result reports EngineStream, the engine
	// that replaced the abandoned graph.
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
//   - EngineGraph over MaxGraphNodes or MaxClosureEdges: the trace is
//     replayed on the streaming engine under the same checker, so the
//     deadline and cancellation still apply. The Result is Degraded (no
//     Graph) but its Races are the exact set, and Engine is
//     EngineStream.
//   - Wall clock or context deadline exhausted, on either engine: the
//     partial Result built so far (its Graph may be nil or
//     under-closed, its Races a sound subset) and a *budget.Error.
//   - ctx canceled: partial Result and a *budget.Error with
//     Canceled() == true.
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
			return &Result{Trace: tr, Stats: trace.ComputeStats(tr, nil), Engine: eng}, err
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
		return streamFallback(tr, info, opts, ck, ph, err,
			&Result{Trace: tr, Info: info, Graph: g, Stats: trace.ComputeStats(tr, nil), Engine: EngineGraph})
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
		Trace:  tr,
		Info:   info,
		Graph:  g,
		Races:  races,
		Stats:  trace.ComputeStats(tr, nil),
		Engine: EngineGraph,
	}
	if err != nil {
		return streamFallback(tr, info, opts, ck, ph, err, res)
	}
	return res, nil
}

// streamFallback decides what a budget trip under EngineGraph becomes.
// A graph-size cap (MaxGraphNodes, MaxClosureEdges) bounds only the
// graph's quadratic memory, which the streaming engine does not have:
// the annotated trace is replayed there under the same checker, and the
// exact race set comes back Degraded, without the graph. Any other trip
// (wall clock, context) returns the partial graph result and the error,
// and so does a size trip under the STOnly ablation, which the
// streaming engine cannot replay.
func streamFallback(tr *trace.Trace, info *trace.Info, opts Options, ck *budget.Checker, ph *obs.Phases, err error, partial *Result) (*Result, error) {
	be, ok := budget.AsError(err)
	if !ok || opts.HB.STOnly || (be.Resource != budget.ResourceGraphNodes && be.Resource != budget.ResourceClosureEdges) {
		return partial, err
	}
	res, serr := analyzeStream(tr, info, opts, ck, ph)
	if serr == nil {
		res.Degraded = true
		res.DegradedReason = err
	}
	return res, serr
}

// analyzeStream is the EngineStream pipeline tail: one budgeted clock
// replay instead of graph construction plus the quadratic pair scan.
// Result.Graph stays nil — graph-only features (-dot, -explain, trace
// minimization) require EngineGraph and report that themselves. The
// STOnly ablation has no streaming equivalent (its truncated relation
// is not transitive, and a vector clock is inherently transitive), so
// that configuration is a hard error.
func analyzeStream(tr *trace.Trace, info *trace.Info, opts Options, ck *budget.Checker, ph *obs.Phases) (*Result, error) {
	ck.SetStage("stream-replay")
	sp := ph.Start("stream-replay")
	out, err := stream.Run(info, stream.Options{HB: opts.HB, Dedup: opts.Dedup}, ck)
	sp.End()
	if errors.Is(err, stream.ErrSTOnly) {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Result{Trace: tr, Info: info, Races: out.Races, Stats: trace.ComputeStats(tr, nil), Engine: EngineStream}, err
}

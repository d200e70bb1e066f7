// Package core assembles the DroidRacer analysis pipeline: semantic
// validation of an execution trace (Figure 5), structural annotation,
// and one streaming replay that computes the happens-before relation
// (Figures 6–7) and detects and classifies races (§4.3). It is the
// single entry point the command-line tools, the public API, and the
// daemon share. The happens-before graph is not built here: racedet's
// -dot, the STOnly ablation and the tests call hb.Build directly.
//
// The pipeline is hardened for adversarial inputs: AnalyzeContext
// accepts a context and a Budget, polls them in every hot loop, and
// recovers panics into typed errors. An exhausted budget returns the
// sound partial result with the budget error; no path answers with a
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

// EngineStream names the one analysis engine, for Options.Engine.
const EngineStream = "stream"

// NormalizeEngine canonicalizes an engine selector: the empty string
// means EngineStream, the only engine. Any other name is an error.
func NormalizeEngine(engine string) (string, error) {
	if engine != "" && engine != EngineStream {
		return "", fmt.Errorf("unknown analysis engine %q (the only engine is %s)", engine, EngineStream)
	}
	return EngineStream, nil
}

// Budget bounds one analysis: wall-clock deadline and explorer
// sequences. The zero value means unlimited. See the budget package for
// field semantics.
type Budget = budget.Limits

// Options configure one analysis.
type Options struct {
	// HB selects the happens-before rule set; DefaultOptions uses the
	// paper's full relation. The STOnly ablation is an error here: it
	// needs the graph engine (hb.Build).
	HB hb.Config
	// Engine names the analysis engine. The streaming engine is the
	// only one: "" and EngineStream are accepted, anything else is an
	// error.
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
	// Parallelism is kept only so code written against the former
	// parallel closure still compiles.
	//
	// Deprecated: ignored; the analysis is serial.
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
	// Races are the reported data races, classified. In a full result
	// they are the exact set; alongside a budget error they are the
	// sound subset found before the budget ran out.
	Races []race.Race
	// Stats are the Table 2 statistics of the trace.
	Stats trace.Stats
	// Degraded is kept only so code that reads it still compiles.
	//
	// Deprecated: always false; no analysis is degraded.
	Degraded bool
	// Phases are the per-phase wall-clock timings of this analysis
	// (validate, annotate, stream-replay), in completion order. racedet
	// -phase-timings renders them; they are also mirrored into the
	// process-wide droidracer_phase_duration_seconds histogram.
	Phases []obs.PhaseTiming
}

// Analyze runs the full pipeline on tr without a deadline. See
// AnalyzeContext for budgeted analysis.
func Analyze(tr *trace.Trace, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), tr, opts)
}

// AnalyzeContext runs the pipeline under ctx and opts.Budget. Outcomes:
//
//   - Within budget: a full Result, nil error.
//   - Wall clock or context deadline exhausted: the partial Result
//     built so far (its Races a sound subset) and a *budget.Error.
//   - ctx canceled: partial Result and a *budget.Error with
//     Canceled() == true.
//   - Panic in the pipeline or the app model: a *budget.PanicError.
//   - Invalid trace, unknown Options.Engine or the STOnly ablation: a
//     plain error and no Result.
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
// whatever result (full or partial) comes back.
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
	if _, err := NormalizeEngine(opts.Engine); err != nil {
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
			return &Result{Trace: tr, Stats: trace.ComputeStats(tr, nil)}, err
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
	// One budgeted clock replay instead of graph construction plus the
	// quadratic pair scan. The STOnly ablation has no streaming
	// equivalent (its truncated relation is not transitive, and a
	// vector clock is inherently transitive), so that configuration is
	// a hard error.
	ck.SetStage("stream-replay")
	sp = ph.Start("stream-replay")
	out, err := stream.Run(info, stream.Options{HB: opts.HB, Dedup: opts.Dedup}, ck)
	sp.End()
	if errors.Is(err, stream.ErrSTOnly) {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Result{Trace: tr, Info: info, Races: out.Races, Stats: trace.ComputeStats(tr, nil)}, err
}

package obs

import (
	"sync"
	"time"
)

// PhaseTiming is one completed phase of a pipeline run: the phase name
// and how long it took. core.Result carries the full list so reports
// can render a per-phase timing table (racedet -phase-timings).
type PhaseTiming struct {
	Phase    string        `json:"phase"`
	Duration time.Duration `json:"duration"`
}

// Phases collects the phase timings of one pipeline run and mirrors
// each observation into the process-wide phase-duration histogram
// (droidracer_phase_duration_seconds{phase=...}). It is safe for
// concurrent use; a nil *Phases is a valid no-op collector, so
// instrumented code never needs to branch on whether timing was
// requested.
type Phases struct {
	mu      sync.Mutex
	timings []PhaseTiming
	reg     *Registry
	rec     *TraceRec
	parent  string
}

// NewPhases returns a collector publishing into the default registry.
func NewPhases() *Phases {
	// Capacity for the full pipeline (parse, validate, annotate,
	// stream-replay) without growing.
	return &Phases{reg: Default(), timings: make([]PhaseTiming, 0, 4)}
}

// NewPhasesIn returns a collector publishing into reg (tests).
func NewPhasesIn(reg *Registry) *Phases { return &Phases{reg: reg} }

// AttachTrace mirrors each subsequent phase timing into rec as a
// "phase.<name>" trace span hanging under parent, so one measurement
// feeds both the histogram and the distributed trace.
func (p *Phases) AttachTrace(rec *TraceRec, parent string) {
	if p == nil || rec == nil {
		return
	}
	p.mu.Lock()
	p.rec, p.parent = rec, parent
	p.mu.Unlock()
}

// Span is one in-flight phase measurement; End stops the clock.
type Span struct {
	p     *Phases
	phase string
	start time.Time
	done  bool
}

// Start begins timing a phase. Always pair with End (directly or via
// defer); phases may nest or repeat, every End appends one timing.
func (p *Phases) Start(phase string) *Span {
	return &Span{p: p, phase: phase, start: time.Now()}
}

// End stops the span, records the timing, and returns the duration.
// A second End is a no-op, so `defer sp.End()` composes with an
// explicit End on the happy path.
func (s *Span) End() time.Duration {
	if s == nil || s.done {
		return 0
	}
	s.done = true
	d := time.Since(s.start)
	if s.p != nil {
		s.p.add(s.phase, d)
	}
	return d
}

func (p *Phases) add(phase string, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.timings = append(p.timings, PhaseTiming{Phase: phase, Duration: d})
	reg, rec, parent := p.reg, p.rec, p.parent
	p.mu.Unlock()
	if rec != nil {
		rec.AddSpan("phase."+phase, parent, time.Now().Add(-d), d)
	}
	// The default-registry mirror is only worth paying for when someone
	// can read it; the timings slice itself (what -phase-timings and
	// Result.Phases consume) is always recorded. Explicit registries
	// (NewPhasesIn) publish unconditionally — the caller asked for them.
	if reg != nil && (reg != Default() || ExporterAttached()) {
		phaseHistogram(reg, phase).ObserveDuration(d)
	}
}

// phaseHists caches the default registry's per-phase histogram series:
// a fresh Phases is created per analysis, and re-resolving the labeled
// series (render labels, registry map, mutex) on every span end costs
// more than the analysis of a small trace.
var phaseHists sync.Map // phase -> *Histogram

func phaseHistogram(reg *Registry, phase string) *Histogram {
	if reg == Default() {
		if h, ok := phaseHists.Load(phase); ok {
			return h.(*Histogram)
		}
	}
	h := reg.Histogram("droidracer_phase_duration_seconds",
		"Wall-clock time per pipeline phase.", DurationBuckets(),
		"phase", phase)
	if reg == Default() {
		phaseHists.Store(phase, h)
	}
	return h
}

// PhaseQuantiles reads the process-wide phase-duration histogram for
// one phase and estimates its p50/p90/p99. ok is false when the phase
// has no observations — e.g. no metrics consumer ever attached, so the
// default-registry mirror never ran.
func PhaseQuantiles(phase string) (p50, p90, p99 time.Duration, ok bool) {
	h := phaseHistogram(Default(), phase)
	if h.Count() == 0 {
		return 0, 0, 0, false
	}
	toDur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return toDur(h.Quantile(0.50)), toDur(h.Quantile(0.90)), toDur(h.Quantile(0.99)), true
}

// Record appends an externally measured timing (e.g. a parse done
// before the collector existed), mirroring it into the histogram.
func (p *Phases) Record(phase string, d time.Duration) {
	if p == nil {
		return
	}
	p.add(phase, d)
}

// Timings returns the recorded phases in completion order.
func (p *Phases) Timings() []PhaseTiming {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]PhaseTiming(nil), p.timings...)
}

// Total sums the recorded durations. Nested spans double-count by
// design — Total is a reading aid, not an invariant.
func Total(timings []PhaseTiming) time.Duration {
	var t time.Duration
	for _, pt := range timings {
		t += pt.Duration
	}
	return t
}

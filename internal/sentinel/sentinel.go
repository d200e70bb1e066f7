// Package sentinel is the resource-governance layer of the analysis
// service. The streaming engine is linear in the trace only while its
// vector clocks stay narrow, and the submitter controls their width:
// a half-megabyte body can make every post copy a clock thousands of
// components wide and allocate gigabytes, enough to OOM-kill a whole
// daemon — destroying every in-flight job despite the WAL, quarantine,
// and breaker machinery, because the breaker only learns from failures
// it survives. This package makes a pathological input cost the fleet
// exactly one quarantine record, never a daemon, through three
// mechanisms layered around the existing pipeline:
//
//   - Cost pre-estimation at admission (Estimate): a cheap line scan of
//     the submitted body predicts the streaming analysis's allocation
//     from trace shape. Submissions above a hard ceiling are refused 413
//     before they are ever spooled; above a soft ceiling they are
//     flagged heavy and denied the shared in-process heap.
//
//   - Subprocess isolation (Isolator/WorkerMain): heavy inputs run in a
//     re-exec'd `racedetd -worker` child under RLIMIT_AS + GOMEMLIMIT
//     and a wall watchdog. The parent classifies the child's death
//     (OOM-kill, rlimit, panic, deadline) into a ResourceError whose
//     "resource:" reason feeds the existing quarantine taxonomy.
//
//   - Brownout (Sentinel): a goroutine samples the daemon's own heap
//     against a watermark. Above it, heavy work is refused 503 with a
//     Retry-After sourced from the observed recovery time, while
//     /readyz reports "resource" so gateway probers route around the
//     backend until it recovers — the same mechanics as
//     storage-degraded.
//
// Everything is observable (droidracer_sentinel_* series, cost
// estimates vs actuals in events and spans) and deterministic in tests
// via the DROIDRACER_SENTINEL_FAULT hook.
package sentinel

import (
	"log/slog"
	"runtime"
	"sync"
	"time"

	"droidracer/internal/obs"
)

// Config configures the brownout sentinel.
type Config struct {
	// Watermark is the heap-in-use level (bytes) that flips the daemon
	// into brownout. Required: zero disables the sampler entirely.
	Watermark int64
	// Recover is the level brownout lifts at (default 80% of Watermark —
	// the hysteresis gap keeps readiness from flapping at the boundary).
	Recover int64
	// Interval is the sampling period (default 250ms).
	Interval time.Duration
	// MemFn overrides the heap sample for tests. The default reads
	// runtime.MemStats.HeapAlloc: live heap, the number GOGC reasons
	// about, not the OS mapping high-water mark.
	MemFn func() int64
	// Events, when set, receives sentinel.brownout / sentinel.recover
	// lifecycle events.
	Events *slog.Logger
}

// Sentinel samples the daemon's memory pressure and exposes the
// brownout state machine: Normal → Brownout when a sample crosses the
// watermark, Brownout → Normal when one falls below the recovery level.
// All methods are safe on a nil receiver (reporting "no brownout"), so
// callers need not branch on whether governance is configured.
type Sentinel struct {
	cfg  Config
	stop chan struct{}
	done chan struct{}

	mu          sync.Mutex
	brownout    bool
	since       time.Time     // current brownout start
	recoverEWMA time.Duration // smoothed past brownout durations
}

// New builds a sentinel over cfg (nil when cfg.Watermark is zero:
// governance off is represented by the nil receiver).
func New(cfg Config) *Sentinel {
	if cfg.Watermark <= 0 {
		return nil
	}
	if cfg.Recover <= 0 || cfg.Recover >= cfg.Watermark {
		cfg.Recover = cfg.Watermark * 8 / 10
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.MemFn == nil {
		cfg.MemFn = func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
	}
	if cfg.Events == nil {
		cfg.Events = obs.Nop()
	}
	return &Sentinel{cfg: cfg}
}

// Start launches the sampling goroutine. Stop ends it.
func (s *Sentinel) Start() {
	if s == nil || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			s.Sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// Stop ends the sampling goroutine and waits for it.
func (s *Sentinel) Stop() {
	if s == nil || s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
}

// Sample takes one pressure reading and advances the state machine. The
// sampler goroutine calls it on every tick; tests call it directly for
// deterministic transitions.
func (s *Sentinel) Sample() {
	if s == nil {
		return
	}
	mem := s.cfg.MemFn()
	if forcedBrownout() {
		mem = s.cfg.Watermark + 1
	}
	memGauge.Set(mem)
	s.mu.Lock()
	var ev string
	var attrs []any
	switch {
	case !s.brownout && mem >= s.cfg.Watermark:
		s.brownout = true
		s.since = time.Now()
		brownoutGauge.Set(1)
		brownoutsTotal.Inc()
		ev = "sentinel.brownout"
		attrs = []any{"heap_bytes", mem, "watermark", s.cfg.Watermark}
	case s.brownout && mem < s.cfg.Recover:
		d := time.Since(s.since)
		s.brownout = false
		if s.recoverEWMA == 0 {
			s.recoverEWMA = d
		} else {
			s.recoverEWMA = time.Duration(0.7*float64(s.recoverEWMA) + 0.3*float64(d))
		}
		brownoutGauge.Set(0)
		ev = "sentinel.recover"
		attrs = []any{"heap_bytes", mem, "brownout_duration", d.String()}
	}
	s.mu.Unlock()
	if ev != "" {
		s.cfg.Events.Info(ev, attrs...)
	}
}

// Brownout reports whether the daemon is above its memory watermark.
func (s *Sentinel) Brownout() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.brownout
}

// RetryAfter is the brownout recovery signal: the expected time until
// this brownout lifts, derived from the smoothed duration of past
// brownouts minus how long this one has already run. Callers clamp it
// into their Retry-After policy; the floor here keeps the hint honest
// (never "retry immediately" while still degraded) and the first-ever
// brownout — no history — answers a conservative default.
func (s *Sentinel) RetryAfter() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.brownout {
		return 0
	}
	expected := s.recoverEWMA
	if expected == 0 {
		expected = 10 * time.Second
	}
	remaining := expected - time.Since(s.since)
	if remaining < time.Second {
		remaining = time.Second
	}
	return remaining
}

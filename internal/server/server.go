// Package server is the network ingestion and admission layer of the
// resilient analysis service: an HTTP surface that accepts execution
// traces, derives a content-hash idempotency key per submission, and
// feeds the supervised job pool — while shedding load it cannot absorb
// with honest Retry-After hints instead of queueing without bound.
//
// The deployment shape follows the paper's §5 architecture: the Race
// Detector runs as a separate offline phase fed by generated traces, so
// many producers (device farms, CI fleets) push traces to one analysis
// service that must stay up, refuse what it cannot take, and never lose
// work it acknowledged.
//
// Admission control layers, in order: a drain check (a daemon that got
// SIGTERM stops accepting immediately), a global in-flight cap, a
// per-client token bucket, a body-size bound, idempotent replay
// (duplicates of completed work answer from the journal; duplicates of
// queued or in-flight work coalesce), a per-input circuit-breaker check,
// and finally the pool's own bounded queue. An accepted trace is durably
// spooled — file fsync'd, then its directory — before the 202 goes out,
// which is what makes the acceptance a promise: a SIGKILL after the
// response loses nothing, because the next incarnation sweeps the spool.
//
// Poison inputs (deterministic failures after retries: parse errors,
// isolated panics) are dead-lettered by the pool's quarantine; the
// server answers their duplicates with 422 from the dead-letter record
// so clients stop resubmitting work that will never succeed.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/faultinject"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/obs"
	"droidracer/internal/report"
	"droidracer/internal/sentinel"
	"droidracer/internal/storage"
)

// Submission status values (the "status" field of SubmitResponse).
const (
	StatusAccepted    = "accepted"
	StatusPending     = "pending"
	StatusDone        = "done"
	StatusQuarantined = "quarantined"
	StatusRejected    = "rejected"
	// StatusFailed is a job that ended without a full result (an
	// exhausted budget, a shutdown cancellation). GET reports it with
	// the reason; a duplicate POST, which may carry another deadline,
	// runs the job again instead of replaying the failure.
	StatusFailed = "failed"
)

// SubmitResponse is the JSON body of every /v1/jobs response, shared
// with the retrying client.
type SubmitResponse struct {
	// Job is the content-derived job ID (the idempotency key).
	Job string `json:"job,omitempty"`
	// Status is one of the Status* values.
	Status string `json:"status"`
	// Coalesced marks a duplicate answered from queued/in-flight work.
	Coalesced bool `json:"coalesced,omitempty"`
	// Mode, Races, and Digest replay the journal record of completed
	// work: analysis mode (full), race count, and the stable
	// race-set fingerprint (jobs.ResultDigest).
	Mode   string `json:"mode,omitempty"`
	Races  int    `json:"races,omitempty"`
	Digest string `json:"digest,omitempty"`
	// Reason explains a rejection, quarantine or failure.
	Reason string `json:"reason,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Cached marks a replay served from the gateway's result cache
	// without touching any backend.
	Cached bool `json:"cached,omitempty"`
	// TraceID is the distributed trace under which this job was (or is
	// being) analyzed. Replays — from the index, the journal, or the
	// gateway's result cache — report the original analyzing trace, not
	// the replaying request's, so a cached answer still points at the
	// spans that did the work.
	TraceID string `json:"trace_id,omitempty"`
	// Estimate carries the admission cost estimate on 413 cost-exceeded
	// rejections: the client learns which trace shape put it over the
	// ceiling.
	Estimate *sentinel.Estimate `json:"estimate,omitempty"`
}

// ReconcileRequest is the body of POST /v1/reconcile: the gateway's
// in-doubt reclamation handshake. Reclaim lists idempotency keys whose
// submissions were forwarded to this backend but never acknowledged —
// the gateway failed them over to another ring peer, so a spooled orphan
// here must not be analyzed into a duplicate fleet record.
type ReconcileRequest struct {
	Reclaim []string `json:"reclaim,omitempty"`
}

// ReconcileResponse reports how many orphaned spool files the handshake
// removed.
type ReconcileResponse struct {
	Reclaimed int `json:"reclaimed"`
}

// Config configures the ingestion server.
type Config struct {
	// Pool executes accepted jobs. Required.
	Pool *jobs.Pool
	// Spool is the directory accepted trace bodies are durably written
	// to; the daemon's restart sweep re-ingests unfinished ones from
	// here. Required.
	Spool string
	// Analyze is the base analysis configuration for accepted jobs; a
	// request's X-Analysis-Deadline can only tighten its wall budget.
	// Its Engine must be empty or core.EngineStream.
	Analyze core.Options
	// Workers is the pool's worker count, used to derive Retry-After
	// from queue depth (default 1).
	Workers int
	// MaxBody bounds the request body in bytes (default 8 MiB).
	MaxBody int64
	// MaxInflight caps concurrently admitted submissions (default 64).
	MaxInflight int
	// Rate and Burst configure the per-client token bucket (default 10
	// tokens/s, burst 20).
	Rate  float64
	Burst int
	// MaxDeadline caps the per-request X-Analysis-Deadline (default 2m).
	MaxDeadline time.Duration
	// DrainRetryAfter is the Retry-After hint while shutting down
	// (default 10s) — roughly when a replacement should be serving.
	DrainRetryAfter time.Duration
	// BreakerRetryAfter is the Retry-After hint for breaker-open inputs
	// (default 60s): the breaker never re-closes within one incarnation,
	// so this is the restart horizon, not a backoff.
	BreakerRetryAfter time.Duration
	// MaxRetryAfter caps the queue-derived Retry-After estimate (EWMA
	// service time × queue depth ÷ workers), default 5m. One pathological
	// job polluting the EWMA must not tell every client to go away for
	// the full estimate.
	MaxRetryAfter time.Duration
	// SweepGrace holds the restart spool sweep until either the gateway's
	// reconcile handshake (POST /v1/reconcile) arrives or the grace
	// elapses. Zero (the default) sweeps immediately — the standalone
	// daemon behavior. Fleet backends run with a grace so in-doubt
	// orphans the gateway failed over elsewhere are reclaimed before the
	// sweep can analyze them into duplicate records.
	SweepGrace time.Duration
	// Completed seeds the idempotency index with journal records
	// recovered at startup (jobs.CompletedRecords).
	Completed map[string]jobs.JobEntry
	// Quarantined seeds the dead-letter index (jobs.QuarantinedJobs).
	Quarantined map[string]string
	// Events, when set, receives request.accept / request.reject /
	// server.drain lifecycle events.
	Events *slog.Logger
	// StorageErr, when set, reports the persistence stack's health —
	// typically the journal writer's poison state (journal.Writer.Err).
	// A non-nil return means completed work can no longer be durably
	// recorded: /readyz answers 503 "storage" and submissions are
	// refused 503 storage-degraded while in-flight work finishes in
	// memory. The condition is sticky for the life of the process
	// (fsyncgate semantics); recovery is a restart.
	StorageErr func() error
	// StorageRetryAfter is the Retry-After hint on storage-degraded
	// refusals (default 30s): long enough for an operator or supervisor
	// to restart the backend, short enough that clients re-probe a
	// recovered one.
	StorageRetryAfter time.Duration
	// Sentinel, when set, reports the daemon's memory-brownout state:
	// while browned out, heavy submissions are refused 503
	// resource-degraded (Retry-After sourced from the sentinel's
	// recovery signal) and /readyz answers 503 "resource" so gateway
	// probers route around this backend until it recovers; non-heavy
	// work still runs the full analysis. Nil disables.
	Sentinel *sentinel.Sentinel
	// Cost are the admission cost ceilings over the per-submission
	// estimate (sentinel.EstimateBytes): above Hard, refuse 413
	// cost-exceeded; above Soft, flag heavy. The zero value disables
	// cost governance (but not the size-directive validation, which is
	// free).
	Cost sentinel.CostLimits
	// Isolator, when set, runs heavy submissions in a sandboxed worker
	// subprocess (rlimit + watchdog) instead of on the daemon's heap.
	// Nil analyzes heavy work in-process like any other.
	Isolator jobs.Runner
}

// jobState is one entry of the idempotency index.
type jobState struct {
	status  string // StatusPending, StatusDone, StatusQuarantined, StatusFailed
	entry   jobs.JobEntry
	reason  string
	traceID string // the analyzing trace (entry.TraceID once done)
	// tight marks a job that runs under a client deadline tighter than
	// the daemon's own budget. Only such a failure is worth a sweep
	// retry: under the daemon's budget it would fail again every poll.
	tight bool
}

// Server is the HTTP ingestion and admission layer over a job pool.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	draining   atomic.Bool
	reconciled atomic.Bool
	// spoolFailing remembers that the last spool write failed. Unlike a
	// poisoned journal it is recoverable in-process: a full disk gets
	// space freed. While set, /readyz answers 503 "storage" but probes
	// the spool with a tiny durable write, and submissions still attempt
	// their spool write — either success clears the flag.
	spoolFailing atomic.Bool
	boot         time.Time
	sem          chan struct{}
	buckets      *buckets
	est          *estimator
	keys         KeyedMutex

	mu    sync.Mutex
	state map[string]*jobState
}

// New builds a server over cfg, seeding the idempotency index from the
// recovered journal records. Wire JobFinished as the pool's OnFinish
// hook so completions (and quarantines) update the index. It panics
// when cfg.Analyze names an engine other than stream, which every job
// would fail on.
func New(cfg Config) *Server {
	if _, err := core.NormalizeEngine(cfg.Analyze.Engine); err != nil {
		panic(fmt.Sprintf("server: %v", err))
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.MaxInflight < 1 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 2 * time.Minute
	}
	if cfg.DrainRetryAfter <= 0 {
		cfg.DrainRetryAfter = 10 * time.Second
	}
	if cfg.BreakerRetryAfter <= 0 {
		cfg.BreakerRetryAfter = time.Minute
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 5 * time.Minute
	}
	if cfg.StorageRetryAfter <= 0 {
		cfg.StorageRetryAfter = 30 * time.Second
	}
	if cfg.Events == nil {
		cfg.Events = obs.Nop()
	}
	s := &Server{
		cfg:     cfg,
		boot:    time.Now(),
		sem:     make(chan struct{}, cfg.MaxInflight),
		buckets: newBuckets(cfg.Rate, cfg.Burst),
		est:     &estimator{},
		state:   make(map[string]*jobState),
	}
	for name, je := range cfg.Completed {
		s.state[name] = &jobState{status: StatusDone, entry: je}
	}
	for name, reason := range cfg.Quarantined {
		s.state[name] = &jobState{status: StatusQuarantined, reason: reason}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.instrument(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument(s.handleStatus))
	s.mux.HandleFunc("POST /v1/reconcile", s.instrument(s.handleReconcile))
	s.mux.HandleFunc("GET /healthz", s.instrument(s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument(s.handleReadyz))
	return s
}

// Handler returns the ingestion mux (a private mux, so embedding it in a
// larger server never inherits unexpected routes).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve binds addr and serves the ingestion API in the background,
// returning the http.Server (for Close on shutdown) and the bound
// address (useful with ":0"). A bind failure is returned synchronously.
func (s *Server) Serve(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: s.mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// BeginDrain flips readiness off: /readyz answers 503 and new
// submissions are refused with shutting-down from this moment — before
// Pool.Shutdown starts draining in-flight work — so load balancers stop
// routing while the daemon finishes what it already accepted.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.cfg.Events.Info("server.drain")
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// IdempotencyKey derives the content-hash job ID for a trace body. The
// client sends it as the Idempotency-Key header; the server recomputes
// it from the bytes it received, so a body corrupted in transit is
// refused (400) instead of being analyzed under the wrong identity. It
// is storage.Key: the same commitment the spool verifies on every read
// back, making the integrity check end to end — wire to disk to
// re-analysis.
func IdempotencyKey(body []byte) string {
	return storage.Key(body)
}

// storageErr reports the sticky persistence-stack failure, if any.
func (s *Server) storageErr() error {
	if s.cfg.StorageErr == nil {
		return nil
	}
	return s.cfg.StorageErr()
}

// jobName maps a job ID to its spool file name.
func jobName(id string) string { return id + ".trace" }

// Claim marks name as submitted this incarnation, returning false when
// it is already known (accepted over HTTP, swept earlier, completed, or
// quarantined). A job that failed under a client's tighter deadline
// counts as unknown, so the sweep retries it under the daemon's own
// budget. The daemon's spool sweep shares the idempotency index
// through it so HTTP-accepted files are not double-submitted. It takes
// the per-key admission lock: a concurrent handleSubmit durably spools
// the body before registering it in the index, and a sweep that lists
// the spool directory inside that window must not submit the file a
// second time.
func (s *Server) Claim(name string) bool {
	defer s.keys.Lock(name).Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.state[name]; ok && !(st.status == StatusFailed && st.tight) {
		return false
	}
	s.state[name] = &jobState{status: StatusPending}
	return true
}

// Release drops a pending claim (a swept submission the pool shed), so
// the next sweep retries it.
func (s *Server) Release(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.state[name]; ok && st.status == StatusPending {
		delete(s.state, name)
	}
}

// JobFinished is the pool OnFinish hook: it moves the idempotency index
// entry for the finished job to its terminal state, so duplicates are
// answered from memory in this incarnation and from the journal in the
// next.
func (s *Server) JobFinished(out report.Outcome) {
	name := out.Name
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case out.JobState == report.JobQuarantined:
		reason := ""
		if out.Err != nil {
			reason = out.Err.Error()
		}
		s.state[name] = &jobState{status: StatusQuarantined, reason: reason, traceID: out.TraceID}
	case out.JobState == report.JobDrained:
		// Checkpointed for the next incarnation: still pending.
	case out.JobState != "":
		// Shed or queued placeholders never reach finish; ignore.
	default:
		mode := jobs.OutcomeMode(out)
		if mode == "full" {
			je := jobs.JobEntry{Name: name, Mode: mode, Attempts: out.Attempts, TraceID: out.TraceID}
			if out.Result != nil {
				je.Races = len(out.Result.Races)
				je.Digest = jobs.ResultDigest(out.Result)
			}
			s.state[name] = &jobState{status: StatusDone, entry: je}
			return
		}
		// Transient failure (budget exhaustion, shutdown cancellation):
		// answer polls honestly, but let a resubmission — or the next
		// sweep — run it again (see lookup and Claim).
		reason := mode
		if out.Err != nil {
			reason = out.Err.Error()
		}
		tight := false
		if st, ok := s.state[name]; ok {
			tight = st.tight
		}
		s.state[name] = &jobState{status: StatusFailed, reason: reason, traceID: out.TraceID, tight: tight}
	}
}

// lookup answers a job's status from the idempotency index.
func (s *Server) lookup(name string) (*SubmitResponse, int, bool) {
	s.mu.Lock()
	st, ok := s.state[name]
	s.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	id := strings.TrimSuffix(name, ".trace")
	switch st.status {
	case StatusFailed:
		return &SubmitResponse{Job: id, Status: StatusFailed, Reason: st.reason, TraceID: st.traceID},
			http.StatusOK, true
	case StatusDone:
		return &SubmitResponse{
			Job: id, Status: StatusDone,
			Mode: st.entry.Mode, Races: st.entry.Races, Digest: st.entry.Digest,
			TraceID: st.entry.TraceID,
		}, http.StatusOK, true
	case StatusQuarantined:
		return &SubmitResponse{Job: id, Status: StatusQuarantined, Reason: st.reason, TraceID: st.traceID},
			http.StatusUnprocessableEntity, true
	default:
		return &SubmitResponse{Job: id, Status: StatusPending, Coalesced: true, TraceID: st.traceID},
			http.StatusAccepted, true
	}
}

// replay answers a duplicate submission from the index. A failed job is
// not replayed: the resubmission, which may carry another deadline, runs
// it again.
func (s *Server) replay(name string) (*SubmitResponse, int, bool) {
	resp, code, ok := s.lookup(name)
	if !ok || resp.Status == StatusFailed {
		return nil, 0, false
	}
	return resp, code, true
}

// codeWriter captures the response status for metrics.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request metrics: per-code counts,
// a latency histogram, and the in-flight gauge.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflightGauge.Inc()
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		h(cw, r)
		inflightGauge.Dec()
		countCode(strconv.Itoa(cw.code))
		requestDur.ObserveDuration(time.Since(start))
	}
}

// respond writes a SubmitResponse as JSON, mirroring RetryAfterSeconds
// into the Retry-After header.
func respond(w http.ResponseWriter, code int, resp *SubmitResponse) {
	w.Header().Set("Content-Type", "application/json")
	if resp.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfterSeconds))
		retryAfterHist.Observe(float64(resp.RetryAfterSeconds))
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// reject refuses a submission: metrics, event, and the structured
// rejection body with its Retry-After hint (0 = no hint: the client
// should fix the request, not retry it).
func (s *Server) reject(w http.ResponseWriter, code int, reason string, retryAfter time.Duration) {
	if c, ok := rejectsTotal[reason]; ok {
		c.Inc()
	}
	resp := &SubmitResponse{Status: StatusRejected, Reason: reason}
	if retryAfter > 0 {
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		resp.RetryAfterSeconds = secs
	}
	s.cfg.Events.Info("request.reject", "reason", reason, "code", code,
		"retry_after_s", resp.RetryAfterSeconds)
	respond(w, code, resp)
}

// clientID identifies the rate-limit principal: the X-Client-ID header
// when present, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// DeadlineHeader carries the per-request analysis wall budget (a Go
// duration). It can only tighten the server's configured budget, and is
// capped by Config.MaxDeadline.
const DeadlineHeader = "X-Analysis-Deadline"

// requestOptions derives the analysis options for one submission from
// the base options and the deadline header.
func (s *Server) requestOptions(r *http.Request) (core.Options, error) {
	opts := s.cfg.Analyze
	req := time.Duration(0)
	if h := r.Header.Get(DeadlineHeader); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			return opts, fmt.Errorf("bad %s %q", DeadlineHeader, h)
		}
		req = d
	}
	if req > s.cfg.MaxDeadline {
		req = s.cfg.MaxDeadline
	}
	if req > 0 && (opts.Budget.Wall == 0 || req < opts.Budget.Wall) {
		opts.Budget.Wall = req
	}
	return opts, nil
}

// handleSubmit is POST /v1/jobs: the trace shell around the admission
// pipeline. Every submission runs under a "server.submit" span — under
// the client's traceparent when it sent one (sampled: the trace will be
// kept), under a fresh unsampled trace otherwise (kept only if the job
// turns out slow, failed, or quarantined; see jobs.Config.TraceSlow).
// When the job is handed to the pool the recorder travels with it and
// the pool makes the commit decision at finish; otherwise (reject,
// replay) the request is the whole trace and the decision happens here.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sc, sampled := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	traceID := sc.TraceID
	if !sampled {
		traceID = obs.NewTraceID()
	}
	rec := obs.Traces().Begin(traceID, sampled)
	sp := rec.StartSpan("server.submit", sc.SpanID)
	cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
	handed := s.admitSubmit(cw, r, rec, sp)
	sp.SetAttr("http_status", strconv.Itoa(cw.code))
	sp.End()
	if !handed {
		rec.Commit(false)
	}
}

// admitSubmit is the admission pipeline proper. It reports whether the
// trace recorder was handed to the pool (accepted work: the job commits
// the trace when it finishes).
func (s *Server) admitSubmit(w http.ResponseWriter, r *http.Request, rec *obs.TraceRec, sp *obs.TSpan) bool {
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, RejectShuttingDown, s.cfg.DrainRetryAfter)
		return false
	}
	if err := s.storageErr(); err != nil {
		// The journal can no longer record completions durably, so a
		// 202 here would promise durability the backend cannot deliver.
		// In-flight work still finishes in memory and /v1/jobs/{id}
		// still answers; only new acceptances stop.
		s.reject(w, http.StatusServiceUnavailable, RejectStorageDegraded,
			clampRetry(s.cfg.StorageRetryAfter, s.cfg.MaxRetryAfter))
		return false
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.reject(w, http.StatusTooManyRequests, RejectInflight, time.Second)
		return false
	}
	if wait, ok := s.buckets.take(clientID(r)); !ok {
		s.reject(w, http.StatusTooManyRequests, RejectRateLimited, wait)
		return false
	}
	body, err := readBody(w, r, s.cfg.MaxBody)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reject(w, http.StatusRequestEntityTooLarge, RejectBodyTooLarge, 0)
		} else {
			s.reject(w, http.StatusBadRequest, RejectEmptyBody, 0)
		}
		return false
	}
	id := IdempotencyKey(body)
	sp.SetAttr("job", id)
	if key := r.Header.Get("Idempotency-Key"); key != "" && key != id {
		// The client hashed different bytes than we received: transit
		// corruption. Refusing (instead of analyzing under our hash)
		// lets the retrying client resubmit the intact body.
		s.reject(w, http.StatusBadRequest, RejectKeyMismatch, 0)
		return false
	}
	name := jobName(id)

	// Fast path: duplicates answered from the index without touching
	// the spool.
	if resp, code, ok := s.replay(name); ok {
		s.countReplay(resp)
		respond(w, code, resp)
		return false
	}

	// Admission critical section per idempotency key: two concurrent
	// submissions of the same body must not both spool and submit.
	defer s.keys.Lock(name).Unlock()
	if resp, code, ok := s.replay(name); ok {
		s.countReplay(resp)
		respond(w, code, resp)
		return false
	}

	path := filepath.Join(s.cfg.Spool, name)
	if _, open := s.cfg.Pool.BreakerOpen(path); open {
		// The breaker never re-closes within one incarnation: full-
		// fidelity service for this input is gone until a restart, so
		// refuse instead of queueing a job that would fail at once.
		s.reject(w, http.StatusServiceUnavailable, RejectBreakerOpen, s.cfg.BreakerRetryAfter)
		return false
	}
	opts, err := s.requestOptions(r)
	if err != nil {
		s.reject(w, http.StatusBadRequest, RejectEmptyBody, 0)
		return false
	}

	// Resource governance: a cheap line scan predicts the analysis
	// footprint before the body costs anything durable. The scan also
	// validates any declared-size directive — a count the bytes cannot
	// back is refused here, before the parser would have trusted it into
	// an allocation.
	est, heavy, ok := s.admitCost(w, sp, body)
	if !ok {
		return false
	}

	// Durability point: body fsync'd, then the spool directory. Only
	// after this may the job be acknowledged — a crash later never loses
	// it, because the restart sweep re-ingests the spool.
	if err := writeDurable(path, body); err != nil {
		// The body is not durable, so 202 is a lie the restart sweep
		// cannot make true. Refuse honestly and mark the spool degraded;
		// /readyz flips to 503 "storage" so the gateway routes around
		// this backend until a probe (or a later submission's write)
		// proves the spool recovered.
		if s.spoolFailing.CompareAndSwap(false, true) {
			s.cfg.Events.Error("server.storage-degraded", "op", "spool.write", "err", err.Error())
		}
		s.cfg.Events.Warn("request.spool-failed", "job", id, "err", err.Error())
		s.reject(w, http.StatusServiceUnavailable, RejectStorageDegraded,
			clampRetry(s.cfg.StorageRetryAfter, s.cfg.MaxRetryAfter))
		return false
	}
	if s.spoolFailing.CompareAndSwap(true, false) {
		s.cfg.Events.Info("server.storage-recovered", "op", "spool.write")
	}
	// Kill-point: process death after the trace is durable but before
	// the pool accepted it or the client heard 202 — the window the
	// restart sweep and client retry must converge over.
	faultinject.Crash("server.accept")

	job := s.buildJob(name, path, opts, est, heavy)
	// The admission span ends at the hand-off: the recorder travels with
	// the job, whose queue-wait and analysis spans hang under it, and the
	// pool commits (or discards) the whole trace when the job finishes.
	sp.End()
	job.Trace = rec
	job.TraceParent = sp.ID()

	s.mu.Lock()
	s.state[name] = &jobState{status: StatusPending, traceID: rec.TraceID(),
		tight: opts.Budget.Wall != s.cfg.Analyze.Budget.Wall}
	s.mu.Unlock()
	if err := s.cfg.Pool.Submit(job); err != nil {
		s.Release(name)
		os.Remove(path) // not accepted; admission control must not leak spool growth
		var rej *jobs.RejectionError
		if errors.As(err, &rej) && rej.Reason == jobs.ReasonShuttingDown {
			s.reject(w, http.StatusServiceUnavailable, RejectShuttingDown, s.cfg.DrainRetryAfter)
			return false
		}
		retry := s.est.queueWait(queueDepth(err), s.cfg.Workers, s.cfg.MaxRetryAfter)
		s.reject(w, http.StatusTooManyRequests, RejectQueueFull, retry)
		return false
	}
	s.cfg.Events.Info("request.accept", "job", id, "bytes", len(body), "trace_id", rec.TraceID())
	respond(w, http.StatusAccepted, &SubmitResponse{Job: id, Status: StatusAccepted, TraceID: rec.TraceID()})
	return true
}

// governed reports whether resource governance is configured at all.
func (s *Server) governed() bool {
	return s.cfg.Cost.Enabled() || s.cfg.Sentinel != nil
}

// admitCost is the resource-governance stage of admission: estimate the
// analysis footprint from the body's shape, refuse what no ceiling
// allows, and — during brownout — refuse heavy work with an honest
// recovery hint. Reports (estimate, heavy, admitted).
func (s *Server) admitCost(w http.ResponseWriter, sp *obs.TSpan, body []byte) (sentinel.Estimate, bool, bool) {
	if !s.governed() {
		return sentinel.Estimate{}, false, true
	}
	est, err := sentinel.EstimateBytes(body)
	if err != nil {
		// A size directive the bytes cannot back: the parse would be
		// refused anyway, so say so now — before the body is spooled.
		s.reject(w, http.StatusUnprocessableEntity, RejectMalformedTrace, 0)
		return est, false, false
	}
	sp.SetAttr("est_bytes", strconv.FormatInt(est.StreamBytes, 10))
	class := est.Classify(s.cfg.Cost)
	if class == sentinel.ClassRejected {
		if c, ok := rejectsTotal[RejectCostExceeded]; ok {
			c.Inc()
		}
		s.cfg.Events.Info("request.reject", "reason", RejectCostExceeded, "code",
			http.StatusRequestEntityTooLarge, "est_bytes", est.StreamBytes)
		respond(w, http.StatusRequestEntityTooLarge,
			&SubmitResponse{Status: StatusRejected, Reason: RejectCostExceeded, Estimate: &est})
		return est, false, false
	}
	heavy := class == sentinel.ClassHeavy
	if heavy && s.cfg.Sentinel.Brownout() {
		// Browned out: the daemon is fighting for its own heap. Heavy
		// work is refused outright; the hint is the sentinel's expected
		// recovery, not the queue-derived estimate, which knows nothing
		// about memory pressure.
		s.reject(w, http.StatusServiceUnavailable, RejectResourceDegraded, s.brownoutRetryAfter())
		return est, heavy, false
	}
	return est, heavy, true
}

// brownoutRetryAfter sources the resource-degraded hint from the
// sentinel's recovery signal, clamped to [1s, MaxRetryAfter] like every
// other degraded-state hint.
func (s *Server) brownoutRetryAfter() time.Duration {
	hint := s.cfg.Sentinel.RetryAfter()
	if hint <= 0 {
		hint = s.cfg.StorageRetryAfter
	}
	return clampRetry(hint, s.cfg.MaxRetryAfter)
}

// clampRetry bounds a degraded-state Retry-After hint to [1s, max]: a
// sub-second hint invites hammering and an unclamped one (a sentinel
// that has watched one pathological ten-minute brownout) turns clients
// away for longer than a restart would take.
func clampRetry(d, max time.Duration) time.Duration {
	if d < time.Second {
		d = time.Second
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// buildJob constructs the pool job for an admitted submission: heavy
// work runs in the isolation sandbox, everything else takes the full
// in-process pipeline. The wrapper feeds the service-time EWMA and —
// when governance is on — emits a job.cost event pairing the admission
// estimate with the observed allocation.
func (s *Server) buildJob(name, path string, opts core.Options, est sentinel.Estimate, heavy bool) jobs.Job {
	job := jobs.TraceJob(name, path, opts)
	mode := "full"
	if heavy && s.cfg.Isolator != nil {
		job = jobs.IsolatedTraceJob(name, path, opts, s.cfg.Isolator)
		mode = "isolated"
	}
	run := job.Run
	governed := s.governed()
	job.Run = func(ctx context.Context, lim budget.Limits) (*core.Result, error) {
		t0 := time.Now()
		var before runtime.MemStats
		if governed {
			runtime.ReadMemStats(&before)
		}
		res, rerr := run(ctx, lim)
		s.est.observe(time.Since(t0))
		if governed {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			// TotalAlloc delta: this process's allocation churn across the
			// job — the in-process "actual" against the admission estimate
			// (isolated jobs report their child's peak separately in
			// sentinel.isolated events).
			s.cfg.Events.Info("job.cost", "job", strings.TrimSuffix(name, ".trace"),
				"path", mode, "est_bytes", est.StreamBytes,
				"actual_alloc_bytes", int64(after.TotalAlloc-before.TotalAlloc),
				"elapsed", time.Since(t0).String())
		}
		return res, rerr
	}
	return job
}

// SpoolJob builds the job for a swept spool file under the same
// resource governance as HTTP admission. The file is already durable,
// so nothing is refused here: anything at or above the soft ceiling —
// including what admission would have called cost-exceeded — runs in
// the isolation sandbox, where the worst it can do is die alone. An
// unreadable file falls through to the in-process path, whose
// per-attempt read reports the failure with proper classification.
func (s *Server) SpoolJob(name, path string) jobs.Job {
	opts := s.cfg.Analyze
	var est sentinel.Estimate
	heavy := false
	if s.governed() {
		if body, err := os.ReadFile(path); err == nil {
			if e, eerr := sentinel.EstimateBytes(body); eerr == nil {
				est = e
				heavy = est.Classify(s.cfg.Cost) != sentinel.ClassNormal
			}
		}
	}
	return s.buildJob(name, path, opts, est, heavy)
}

// countReplay bumps the idempotent-replay counter for an index answer.
func (s *Server) countReplay(resp *SubmitResponse) {
	source := "pending"
	switch resp.Status {
	case StatusDone:
		source = "journal"
	case StatusQuarantined:
		source = "quarantine"
	}
	if c, ok := replaysTotal[source]; ok {
		c.Inc()
	}
}

// queueDepth extracts the rejected depth from a pool rejection (falling
// back to 1 for unexpected error shapes).
func queueDepth(err error) int {
	var rej *jobs.RejectionError
	if errors.As(err, &rej) {
		return rej.Depth
	}
	return 1
}

// readBody reads at most max bytes, rejecting empty bodies.
func readBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	if err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, fmt.Errorf("empty body")
	}
	return body, nil
}

// writeDurable writes body to path via a hidden temp file (the restart
// sweep skips dotfiles), fsyncs it, renames it into place, and fsyncs
// the directory — the full accepted-work durability chain. I/O goes
// through the spool's storage layer so chaos tests can inject disk
// faults (ENOSPC, EIO, short writes, failed renames) at every link of
// the chain; failures are classified into
// droidracer_storage_errors_total before they propagate.
func writeDurable(path string, body []byte) error {
	fsys := faultinject.Storage("spool")
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, "."+filepath.Base(path)+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return storage.CountError("spool.write", err)
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return storage.CountError("spool.write", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return storage.CountError("spool.sync", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return storage.CountError("spool.write", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return storage.CountError("spool.rename", err)
	}
	return journal.SyncDir(dir)
}

// probeSpool attempts a tiny durable write in the spool directory — the
// readiness probe's independent evidence for whether a failing spool
// has recovered (space freed) without waiting for a client to volunteer
// a submission as the probe.
func (s *Server) probeSpool() error {
	fsys := faultinject.Storage("spool")
	tmp := filepath.Join(s.cfg.Spool, ".readyz-probe.tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return storage.CountError("spool.write", err)
	}
	_, werr := f.Write([]byte("probe\n"))
	serr := f.Sync()
	f.Close()
	fsys.Remove(tmp)
	if werr != nil {
		return storage.CountError("spool.write", werr)
	}
	return storage.CountError("spool.sync", serr)
}

// handleReconcile is POST /v1/reconcile: the gateway's reinstatement
// handshake. Listed keys whose submissions this backend never got to
// acknowledge (the gateway failed them over to another peer) have their
// spooled orphans deleted, and the restart sweep is released — the fleet
// has told this backend everything it needs to know about its in-doubt
// window.
func (s *Server) handleReconcile(w http.ResponseWriter, r *http.Request) {
	var req ReconcileRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil && err != io.EOF {
		respond(w, http.StatusBadRequest, &SubmitResponse{Status: StatusRejected, Reason: "bad-reconcile-body"})
		return
	}
	reclaimed := 0
	for _, id := range req.Reclaim {
		name := jobName(strings.TrimSuffix(id, ".trace"))
		unlock := s.keys.Lock(name)
		s.mu.Lock()
		_, known := s.state[name]
		s.mu.Unlock()
		// A known key was acknowledged (HTTP accept), already swept, or
		// finished (failed included) — its record legitimately belongs
		// to this backend, so the conservative reclaim list leaves it
		// alone.
		if known {
			s.cfg.Events.Info("request.reclaim-skipped", "job", strings.TrimSuffix(name, ".trace"))
		} else if err := os.Remove(filepath.Join(s.cfg.Spool, name)); err == nil {
			reclaimed++
			reclaimedTotal.Inc()
			s.cfg.Events.Info("request.reclaim", "job", strings.TrimSuffix(name, ".trace"))
		} else if !os.IsNotExist(err) {
			s.cfg.Events.Warn("request.reclaim-failed", "job", strings.TrimSuffix(name, ".trace"), "err", err.Error())
		}
		unlock.Unlock()
	}
	wasHeld := !s.reconciled.Swap(true)
	if wasHeld && s.cfg.SweepGrace > 0 {
		s.cfg.Events.Info("server.reconciled", "reclaim_listed", len(req.Reclaim), "reclaimed", reclaimed)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(&ReconcileResponse{Reclaimed: reclaimed})
}

// SweepReady reports whether the restart spool sweep may run: always for
// a standalone daemon (no SweepGrace), otherwise only once the gateway's
// reconcile handshake arrived or the grace period expired.
func (s *Server) SweepReady() bool {
	if s.cfg.SweepGrace <= 0 || s.reconciled.Load() {
		return true
	}
	if time.Since(s.boot) >= s.cfg.SweepGrace {
		s.reconciled.Store(true)
		s.cfg.Events.Warn("server.sweep-grace-expired", "grace", s.cfg.SweepGrace.String())
		return true
	}
	return false
}

// handleStatus is GET /v1/jobs/{id}: the index entry for one job.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSuffix(r.PathValue("id"), ".trace")
	if resp, _, ok := s.lookup(jobName(id)); ok {
		respond(w, http.StatusOK, resp)
		return
	}
	respond(w, http.StatusNotFound, &SubmitResponse{Job: id, Status: "unknown"})
}

// handleHealthz reports liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: false from the moment a drain starts
// (so routing stops before in-flight work finishes) and false with
// reason "storage" while the persistence stack is degraded — a poisoned
// journal (sticky until restart) or a failing spool (re-probed here
// with a tiny durable write, so readiness returns by itself once space
// does).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if err := s.storageErr(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "storage")
		return
	}
	if s.spoolFailing.Load() {
		if err := s.probeSpool(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "storage")
			return
		}
		if s.spoolFailing.CompareAndSwap(true, false) {
			s.cfg.Events.Info("server.storage-recovered", "op", "spool.probe")
		}
	}
	if s.cfg.Sentinel.Brownout() {
		// Memory brownout: still alive (healthz answers 200, in-flight
		// work finishes degraded) but new routing should go elsewhere
		// until the heap recedes below the recovery level.
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "resource")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

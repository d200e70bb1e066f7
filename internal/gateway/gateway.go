// Package gateway is the fleet front door: one process that spreads
// trace submissions across N racedetd backends and keeps the fleet's
// acceptance promise when individual backends die.
//
// Routing is a consistent-hash ring over the content-derived idempotency
// key — the same key every backend computes from the body — so a
// duplicate submission lands on the same backend as the original and
// coalesces there instead of being analyzed twice. Health is active:
// per-backend probes against /readyz feed a consecutive-failure breaker
// (shared semantics with the job pool's per-input breaker); an opened
// breaker ejects the backend from routing, and seeded-backoff probes
// reinstate it once it answers again.
//
// Failover is bounded and honest. A submission whose home backend is
// down walks the next live peers in ring order, at most MaxFailover
// deep; when every backend is down the gateway says so — 503 with a
// Retry-After hint — rather than queueing what it cannot place. The
// dangerous window is a forward that died in flight: the backend may
// have durably spooled the trace before crashing ("in doubt"), and the
// failover peer will analyze it too. The gateway closes that window with
// a reconcile handshake: in-doubt keys are remembered per backend in a
// bounded ledger, and reinstatement POSTs them to /v1/reconcile so the
// recovering backend deletes the orphaned spool files instead of
// re-analyzing work the fleet already placed elsewhere. Backends hold
// their restart sweep for a grace period (racedetd -sweep-grace) to let
// this handshake win the race against the sweep.
//
// A bounded LRU caches terminal answers (done, quarantined) by
// idempotency key, so duplicate waves replay from the gateway without
// touching any backend — including backends that are currently down.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"droidracer/internal/jobs"
	"droidracer/internal/obs"
	"droidracer/internal/server"
)

// Bounds on the gateway's per-key bookkeeping. Both maps are advisory
// state (losing an entry degrades to extra work, never to lost work), so
// overflow drops entries instead of refusing traffic.
const (
	maxLedgerPerBackend = 1024
	maxPending          = 65536
)

// Config configures the fleet gateway.
type Config struct {
	// Backends is the static fleet: racedetd base URLs. Required.
	Backends []string
	// MaxBody bounds submission bodies in bytes (default 8 MiB).
	MaxBody int64
	// CacheEntries bounds the terminal-result LRU (default 1024).
	CacheEntries int
	// ProbeInterval is the health-probe period for live backends
	// (default 1s); ejected backends are probed with exponential backoff
	// seeded at this interval.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe request (default 1s).
	ProbeTimeout time.Duration
	// EjectThreshold is the consecutive-failure count (probes and
	// forwards share one streak) that ejects a backend (default 3).
	EjectThreshold int
	// MaxFailover bounds how many ring peers a submission may walk
	// (default: all of them).
	MaxFailover int
	// ForwardTimeout bounds one forward including its internal retry
	// (default 30s).
	ForwardTimeout time.Duration
	// RetryAfter is the hint sent when the whole fleet is unavailable or
	// the gateway is draining (default 10s).
	RetryAfter time.Duration
	// Seed makes probe-backoff jitter and forward-retry jitter
	// deterministic for tests.
	Seed int64
	// HTTPClient defaults to a client with sane timeouts.
	HTTPClient *http.Client
	// Events receives gateway lifecycle events (eject, reinstate,
	// failover, reconcile, fleet-unavailable).
	Events *slog.Logger
	// TraceSlow is the tail-capture threshold for gateway traces: an
	// unsampled submission whose routing (cache, coalescing, and the
	// whole failover walk) exceeds it commits its trace to the span
	// store. Failed and failed-over submissions always commit; 0
	// disables only the slowness trigger.
	TraceSlow time.Duration
}

// backendState is the per-backend routing state. The URL set is fixed at
// construction; only liveness changes.
type backendState struct {
	url  string
	live atomic.Bool
	// wasEjected distinguishes reinstatement (a recovery, counted) from
	// the initial probe pass at startup (not a recovery).
	wasEjected atomic.Bool
}

// Gateway routes submissions across the backend fleet.
type Gateway struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backendState
	brk      *jobs.Breaker
	cache    *resultCache
	keys     keyedLocks
	draining atomic.Bool

	mu sync.Mutex
	// pending maps accepted-but-unfinished keys to the backend that
	// acknowledged them, so duplicates coalesce there instead of
	// re-executing on another peer. Advisory: lost on gateway restart.
	pending map[string]string
	// ledger holds in-doubt keys per backend: forwards that died in
	// flight after possibly reaching the backend. Replayed to
	// /v1/reconcile at reinstatement. FIFO-bounded per backend.
	ledger      map[string]map[string]struct{}
	ledgerOrder map[string][]string

	httpc *http.Client
	mux   *http.ServeMux
}

// New builds a gateway over the configured fleet. Backends start
// not-live; StartProbing brings them in as probes pass.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.EjectThreshold <= 0 {
		cfg.EjectThreshold = 3
	}
	if cfg.MaxFailover <= 0 || cfg.MaxFailover > len(cfg.Backends) {
		cfg.MaxFailover = len(cfg.Backends)
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 10 * time.Second
	}
	if cfg.Events == nil {
		cfg.Events = obs.Nop()
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: cfg.ForwardTimeout}
	}
	g := &Gateway{
		cfg:         cfg,
		ring:        NewRing(cfg.Backends),
		backends:    make(map[string]*backendState, len(cfg.Backends)),
		cache:       newResultCache(cfg.CacheEntries),
		pending:     make(map[string]string),
		ledger:      make(map[string]map[string]struct{}),
		ledgerOrder: make(map[string][]string),
		httpc:       cfg.HTTPClient,
	}
	for _, b := range cfg.Backends {
		if g.backends[b] != nil {
			return nil, fmt.Errorf("gateway: duplicate backend %s", b)
		}
		g.backends[b] = &backendState{url: b}
	}
	g.brk = &jobs.Breaker{
		Threshold: cfg.EjectThreshold,
		OnOpen:    func(url string, err error) { g.eject(url, err) },
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleStatus)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	return g, nil
}

// Handler exposes the gateway API for tests and embedding.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Serve binds addr and serves the gateway in the background, returning
// the http.Server and bound address (useful with ":0").
func (g *Gateway) Serve(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: g.mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// BeginDrain flips readiness off and refuses new submissions.
func (g *Gateway) BeginDrain() {
	if g.draining.CompareAndSwap(false, true) {
		g.cfg.Events.Info("gateway.drain")
	}
}

// LiveBackends returns the backends currently in routing, in ring-list
// order.
func (g *Gateway) LiveBackends() []string {
	var out []string
	for _, b := range g.cfg.Backends {
		if g.backends[b].live.Load() {
			out = append(out, b)
		}
	}
	return out
}

func (g *Gateway) liveCount() int {
	n := 0
	for _, st := range g.backends {
		if st.live.Load() {
			n++
		}
	}
	return n
}

// respond writes the JSON answer, mirroring the backend response shape
// (Retry-After header mirrors RetryAfterSeconds) and counting the code.
func respond(w http.ResponseWriter, code int, resp *server.SubmitResponse) {
	if resp.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfterSeconds))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
	countGatewayCode(strconv.Itoa(code))
}

// statusCode maps a backend answer to its HTTP code: terminal done is
// 200, terminal quarantine is 422, anything still in flight is 202.
func statusCode(resp *server.SubmitResponse) int {
	switch resp.Status {
	case server.StatusDone:
		return http.StatusOK
	case server.StatusQuarantined:
		return http.StatusUnprocessableEntity
	default:
		return http.StatusAccepted
	}
}

// handleSubmit is the trace shell around routing: every submission runs
// under a "gateway.submit" span (each forward attempt gets a child span
// naming its backend), continuing the client's traceparent when present.
// Unsampled traces are kept only when routing failed over, failed
// outright, or blew the TraceSlow threshold — the tail worth keeping.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sc, sampled := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	traceID := sc.TraceID
	if !sampled {
		traceID = obs.NewTraceID()
	}
	rec := obs.Traces().Begin(traceID, sampled)
	gsp := rec.StartSpan("gateway.submit", sc.SpanID)
	start := time.Now()
	var forced bool
	defer func() {
		gsp.End()
		rec.Commit(forced || (g.cfg.TraceSlow > 0 && time.Since(start) > g.cfg.TraceSlow))
	}()
	g.routeSubmit(w, r, rec, gsp, &forced)
}

// routeSubmit routes one submission: cache, then pending coalescing,
// then the bounded live-ring walk. forced flips when the trace must be
// tail-captured regardless of sampling (a forward failed or the whole
// fleet was unavailable).
func (g *Gateway) routeSubmit(w http.ResponseWriter, r *http.Request, rec *obs.TraceRec, gsp *obs.TSpan, forced *bool) {
	if g.draining.Load() {
		respond(w, http.StatusServiceUnavailable, &server.SubmitResponse{
			Status: server.StatusRejected, Reason: server.RejectShuttingDown,
			RetryAfterSeconds: retrySeconds(g.cfg.RetryAfter),
		})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBody))
	if err != nil {
		respond(w, http.StatusRequestEntityTooLarge, &server.SubmitResponse{
			Status: server.StatusRejected, Reason: server.RejectBodyTooLarge,
		})
		return
	}
	if len(bytes.TrimSpace(body)) == 0 {
		respond(w, http.StatusBadRequest, &server.SubmitResponse{
			Status: server.StatusRejected, Reason: server.RejectEmptyBody,
		})
		return
	}
	key := server.IdempotencyKey(body)
	gsp.SetAttr("job", key)
	if hdr := r.Header.Get("Idempotency-Key"); hdr != "" && hdr != key {
		respond(w, http.StatusBadRequest, &server.SubmitResponse{
			Status: server.StatusRejected, Reason: server.RejectKeyMismatch,
		})
		return
	}
	// Serialize per key so concurrent duplicates don't race the cache
	// and double-forward. The lock is per exact key (not striped): the
	// critical section spans the whole failover walk — up to MaxFailover
	// forwards at ForwardTimeout each — and unrelated keys must not queue
	// behind one slow backend.
	defer g.keys.lock(key)()

	if resp, ok := g.cache.get(key); ok {
		cacheHits.Inc()
		resp.Cached = true
		// The cached answer names the trace that analyzed it; the replay
		// span points there so a p99 exemplar chased through the cache
		// still lands on the spans that did the work.
		gsp.SetAttr("cached", "true")
		if resp.TraceID != "" {
			gsp.SetAttr("analyzed_trace_id", resp.TraceID)
		}
		respond(w, statusCode(&resp), &resp)
		return
	}
	cacheMisses.Inc()

	deadline := parseDeadline(r.Header.Get(server.DeadlineHeader))
	clientID := r.Header.Get("X-Client-ID")

	// A key the fleet already accepted must not be re-executed on a
	// different peer: route to the accepting backend, or — if it is down
	// — coalesce locally. The work is durably spooled there; it will
	// finish when the backend returns.
	if target, ok := g.pendingFor(key); ok {
		gsp.SetAttr("coalesced", "true")
		if g.backends[target].live.Load() {
			fsp := g.startForwardSpan(rec, gsp, target)
			resp, code, _, ferr := g.forward(r.Context(), target, key, body, deadline, clientID, fsp.Context().Traceparent())
			if ferr == nil || (resp != nil && code >= 400 && code < 500) {
				fsp.SetAttr("outcome", forwardOutcome(ferr))
				fsp.End()
				g.finishForward(w, key, target, resp, code, ferr)
				return
			}
			fsp.SetAttr("outcome", "failed")
			fsp.SetErr(ferr)
			fsp.End()
			// The acceptor acknowledged this key: its spool and restart
			// sweep own the work, so a dead duplicate forward is NOT in
			// doubt — ledgering it would reclaim (delete) acknowledged
			// work at the reconcile handshake.
			g.forwardFailed(r.Context(), target, key, false, ferr)
			*forced = true
		}
		respond(w, http.StatusAccepted, &server.SubmitResponse{
			Job: key, Status: server.StatusPending, Coalesced: true,
		})
		return
	}

	var walked []string
	for _, target := range g.ring.Order(key) {
		if !g.backends[target].live.Load() {
			continue
		}
		if len(walked) >= g.cfg.MaxFailover {
			break
		}
		if len(walked) > 0 {
			failoversTotal.Inc()
			g.cfg.Events.Info("gateway.failover", "job", key,
				"from", walked[len(walked)-1], "to", target, "trace_id", rec.TraceID())
		}
		walked = append(walked, target)
		fsp := g.startForwardSpan(rec, gsp, target)
		resp, code, inDoubt, ferr := g.forward(r.Context(), target, key, body, deadline, clientID, fsp.Context().Traceparent())
		if ferr == nil || (resp != nil && code >= 400 && code < 500) {
			fsp.SetAttr("outcome", forwardOutcome(ferr))
			fsp.End()
			g.finishForward(w, key, target, resp, code, ferr)
			return
		}
		fsp.SetAttr("outcome", "failed")
		if inDoubt {
			fsp.SetAttr("in_doubt", "true")
		}
		fsp.SetErr(ferr)
		fsp.End()
		g.forwardFailed(r.Context(), target, key, inDoubt, ferr)
		if r.Context().Err() != nil {
			// The inbound client is gone: further forwards would fail on
			// the same canceled context, and there is nobody to answer.
			// Don't let the walk masquerade as fleet unavailability.
			return
		}
		*forced = true
	}
	fleetUnavailableTotal.Inc()
	*forced = true
	g.cfg.Events.Warn("gateway.fleet-unavailable", "job", key, "walked", len(walked), "trace_id", rec.TraceID())
	respond(w, http.StatusServiceUnavailable, &server.SubmitResponse{
		Job: key, Status: server.StatusRejected, Reason: "fleet-unavailable",
		RetryAfterSeconds: retrySeconds(g.cfg.RetryAfter),
	})
}

// forward submits body to one backend through the shared retrying
// client, restricted so only transport errors and 5xx retry (a backend's
// 429 passes through with its honest Retry-After instead of stalling the
// forward). The inDoubt result reports whether any attempt died in
// flight — the backend may have spooled the trace without answering.
func (g *Gateway) forward(ctx context.Context, target, key string, body []byte,
	deadline time.Duration, clientID, traceparent string) (*server.SubmitResponse, int, bool, error) {
	fctx, cancel := context.WithTimeout(ctx, g.cfg.ForwardTimeout)
	defer cancel()
	cl := server.Client{
		BaseURL:     target,
		HTTPClient:  g.httpc,
		MaxAttempts: 2,
		BaseBackoff: 50 * time.Millisecond,
		// Mixing the key into the seed keeps jitter deterministic for a
		// fixed config seed (tests) while decorrelating the retry sleeps
		// of concurrent requests against a struggling backend.
		Seed:            g.cfg.Seed ^ int64(fnv64a(key)),
		Deadline:        deadline,
		ClientID:        clientID,
		Traceparent:     traceparent,
		RetryableStatus: func(code int) bool { return code >= 500 },
	}
	resp, attempts, err := cl.Submit(fctx, body)
	code, inDoubt := 0, false
	for _, at := range attempts {
		code = at.Code
		if at.Code == 0 {
			inDoubt = true
		}
	}
	return resp, code, inDoubt, err
}

// forwardOutcome labels a decisive forward: "ok" for an acceptance or
// terminal answer, "rejected" for a relayed 4xx refusal.
func forwardOutcome(err error) string {
	if err != nil {
		return "rejected"
	}
	return "ok"
}

// startForwardSpan opens the child span for one forward attempt. The
// span's own context becomes the traceparent sent to the backend, so
// the backend's admission span hangs under exactly the hop that reached
// it — a failed-over submission shows one failed and one successful
// forward span with distinct backend attributes.
func (g *Gateway) startForwardSpan(rec *obs.TraceRec, gsp *obs.TSpan, target string) *obs.TSpan {
	fsp := rec.StartSpan("gateway.forward", gsp.ID())
	fsp.SetAttr("backend", target)
	return fsp
}

// finishForward turns a decisive backend answer into the gateway
// response: terminal answers fill the cache, acceptances fill the
// pending map, 4xx rejections pass through untouched.
func (g *Gateway) finishForward(w http.ResponseWriter, key, target string,
	resp *server.SubmitResponse, code int, err error) {
	g.brk.Success(target)
	if err != nil || resp == nil || resp.Status == server.StatusRejected {
		// Decisive 4xx rejection (rate limit, body too large, a 422
		// malformed trace…): the backend is healthy and said no; relay
		// its answer verbatim.
		forwardsTotal(target, "rejected").Inc()
		if resp == nil {
			resp = &server.SubmitResponse{Status: server.StatusRejected}
		}
		respond(w, code, resp)
		return
	}
	forwardsTotal(target, "ok").Inc()
	// The backend answered decisively for this key, so its own spool,
	// journal, and restart sweep own the work from here: an in-doubt
	// ledger entry left over from an earlier dead forward must not
	// survive, or a later reconcile handshake would reclaim (delete) the
	// spool of acknowledged, unfinished work.
	g.ledgerRemove(target, key)
	switch resp.Status {
	case server.StatusDone, server.StatusQuarantined:
		g.cacheFill(key, target, *resp)
		g.clearPending(key)
	default:
		g.setPending(key, target)
	}
	respond(w, statusCode(resp), resp)
}

// cacheFill admits a terminal answer into the result cache after an
// integrity cross-check on the backend's digest field. The cache serves
// duplicates for the lifetime of the gateway, so a wrong entry is wrong
// forever: a done answer without a well-formed result digest
// (jobs.ResultDigest, 16 hex chars) is relayed to its client but never
// cached, and a done answer whose digest contradicts an already-cached
// one for the same content key evicts the cached entry instead of
// silently keeping either side — one of the two backends served rotted
// state, and the next poll re-derives the answer from a backend rather
// than from the cache.
func (g *Gateway) cacheFill(key, target string, resp server.SubmitResponse) {
	if resp.Status == server.StatusDone && !wellFormedDigest(resp.Digest) {
		digestRejectsTotal.Inc()
		g.cfg.Events.Warn("gateway.digest-reject", "job", key, "backend", target, "digest", resp.Digest)
		return
	}
	if prev, ok := g.cache.get(key); ok &&
		prev.Status == server.StatusDone && resp.Status == server.StatusDone &&
		prev.Digest != resp.Digest {
		digestMismatchTotal.Inc()
		g.cfg.Events.Error("gateway.digest-mismatch", "job", key, "backend", target,
			"cached", prev.Digest, "got", resp.Digest)
		g.cache.remove(key)
		return
	}
	g.cache.add(key, resp)
}

// wellFormedDigest reports whether d looks like a jobs.ResultDigest:
// exactly 16 lowercase hex characters.
func wellFormedDigest(d string) bool {
	if len(d) != 16 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// forwardFailed records a failed forward: the in-doubt ledger entry, the
// shared failure streak (which may eject the backend), and the metric.
// A forward that died because the inbound client disconnected says
// nothing about the backend: it is neither ledgered (nothing fails over,
// so a spooled trace is simply the backend's to finish) nor counted
// toward ejection (a burst of client disconnects must not eject a
// healthy backend).
func (g *Gateway) forwardFailed(reqCtx context.Context, target, key string, inDoubt bool, err error) {
	if reqCtx.Err() != nil {
		forwardsTotal(target, "canceled").Inc()
		return
	}
	forwardsTotal(target, "failed").Inc()
	if inDoubt {
		g.ledgerAdd(target, key)
	}
	g.brk.Failure(target, err)
}

// handleStatus answers job polls: cache first, then the accepting
// backend, then every peer in ring order — live backends first, ejected
// ones after. Ejection stops placement, not reads: a backend ejected
// for storage-degraded still finishes its in-flight jobs in memory and
// answers for them, so a job it completed stays readable until it
// restarts. Each ejected backend gets ProbeTimeout to answer, so a dead
// one costs a poll no more than a probe. Terminal answers fill the
// cache on the way through, so polling is what warms the cache for
// duplicate submissions.
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSuffix(r.PathValue("id"), ".trace")
	if resp, ok := g.cache.get(id); ok {
		cacheHits.Inc()
		resp.Cached = true
		respond(w, http.StatusOK, &resp)
		return
	}
	targets := g.ring.Order(id)
	if pb, ok := g.pendingFor(id); ok {
		reordered := []string{pb}
		for _, t := range targets {
			if t != pb {
				reordered = append(reordered, t)
			}
		}
		targets = reordered
	}
	var ejected []string
	for _, target := range targets {
		if !g.backends[target].live.Load() {
			ejected = append(ejected, target)
			continue
		}
		if g.pollStatus(r.Context(), w, id, target) {
			return
		}
	}
	for _, target := range ejected {
		ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ProbeTimeout)
		answered := g.pollStatus(ctx, w, id, target)
		cancel()
		if answered {
			return
		}
	}
	if _, ok := g.pendingFor(id); ok {
		respond(w, http.StatusOK, &server.SubmitResponse{
			Job: id, Status: server.StatusPending, Coalesced: true,
		})
		return
	}
	respond(w, http.StatusNotFound, &server.SubmitResponse{Job: id, Status: "unknown"})
}

// pollStatus asks one backend for id's status and, when the backend
// knows the job, answers the poll with it and reports true. Terminal
// answers clear the pending entry; done and quarantined ones fill the
// cache. A failed job is terminal for this run but never cached: a
// resubmission runs it again.
func (g *Gateway) pollStatus(ctx context.Context, w http.ResponseWriter, id, target string) bool {
	cl := server.Client{BaseURL: target, HTTPClient: g.httpc}
	resp, err := cl.Status(ctx, id)
	if err != nil || resp.Status == "unknown" {
		return false
	}
	switch resp.Status {
	case server.StatusDone, server.StatusQuarantined:
		g.cacheFill(id, target, *resp)
		g.clearPending(id)
	case server.StatusFailed:
		g.clearPending(id)
	}
	respond(w, http.StatusOK, resp)
	return true
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: false while draining or while zero
// backends are live — an upstream balancer should stop routing here when
// the gateway cannot place work.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if g.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if g.liveCount() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no live backends")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// pending map accessors.

func (g *Gateway) pendingFor(key string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.pending[key]
	return t, ok
}

func (g *Gateway) setPending(key, target string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.pending) >= maxPending {
		for k := range g.pending {
			delete(g.pending, k)
			break
		}
	}
	g.pending[key] = target
}

func (g *Gateway) clearPending(key string) {
	g.mu.Lock()
	delete(g.pending, key)
	g.mu.Unlock()
}

// ledgerAdd records an in-doubt key for a backend, FIFO-bounded.
func (g *Gateway) ledgerAdd(target, key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	set := g.ledger[target]
	if set == nil {
		set = make(map[string]struct{})
		g.ledger[target] = set
	}
	if _, ok := set[key]; ok {
		return
	}
	if len(set) >= maxLedgerPerBackend {
		oldest := g.ledgerOrder[target][0]
		g.ledgerOrder[target] = g.ledgerOrder[target][1:]
		delete(set, oldest)
		ledgerDroppedTotal.Inc()
	}
	set[key] = struct{}{}
	g.ledgerOrder[target] = append(g.ledgerOrder[target], key)
}

// ledgerRemove drops one key from a backend's in-doubt ledger. Called
// when that backend answers decisively for the key: it has acknowledged
// the work, and asking it to reclaim the spool at the next reconcile
// would destroy an accepted job.
func (g *Gateway) ledgerRemove(target, key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	set := g.ledger[target]
	if _, ok := set[key]; !ok {
		return
	}
	delete(set, key)
	order := g.ledgerOrder[target]
	for i, k := range order {
		if k == key {
			g.ledgerOrder[target] = append(order[:i], order[i+1:]...)
			break
		}
	}
}

// ledgerTake removes and returns the in-doubt keys for a backend.
func (g *Gateway) ledgerTake(target string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := g.ledgerOrder[target]
	delete(g.ledger, target)
	delete(g.ledgerOrder, target)
	return keys
}

// ledgerRestore puts keys back after a failed reconcile handshake.
func (g *Gateway) ledgerRestore(target string, keys []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	set := g.ledger[target]
	if set == nil {
		set = make(map[string]struct{})
		g.ledger[target] = set
	}
	for _, k := range keys {
		if _, ok := set[k]; !ok {
			set[k] = struct{}{}
			g.ledgerOrder[target] = append(g.ledgerOrder[target], k)
		}
	}
}

// reconcile runs the reinstatement handshake: tell the backend which
// keys are in doubt so it reclaims their spool orphans, and signal that
// the fleet view is complete so it may release its restart sweep.
func (g *Gateway) reconcile(ctx context.Context, target string) error {
	keys := g.ledgerTake(target)
	payload, _ := json.Marshal(server.ReconcileRequest{Reclaim: keys})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		target+"/v1/reconcile", bytes.NewReader(payload))
	if err != nil {
		g.ledgerRestore(target, keys)
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := g.httpc.Do(req)
	if err != nil {
		g.ledgerRestore(target, keys)
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		g.ledgerRestore(target, keys)
		return fmt.Errorf("reconcile: %s answered %d", target, httpResp.StatusCode)
	}
	var resp server.ReconcileResponse
	if derr := json.NewDecoder(httpResp.Body).Decode(&resp); derr != nil {
		return fmt.Errorf("reconcile: decoding: %w", derr)
	}
	g.cfg.Events.Info("gateway.reconcile", "backend", target,
		"in_doubt", len(keys), "reclaimed", resp.Reclaimed)
	return nil
}

// retrySeconds converts a hint duration to whole seconds, at least 1.
func retrySeconds(d time.Duration) int {
	s := int(d / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// parseDeadline parses a pass-through X-Analysis-Deadline header; the
// backend validates, so malformed values are simply dropped here.
func parseDeadline(h string) time.Duration {
	if h == "" {
		return 0
	}
	d, err := time.ParseDuration(h)
	if err != nil || d <= 0 {
		return 0
	}
	return d
}

package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"droidracer/internal/sentinel"
	"droidracer/internal/server"
)

// fakeBackend is a scriptable racedetd stand-in.
type fakeBackend struct {
	srv      *httptest.Server
	submits  atomic.Int64
	statuses atomic.Int64
	ready    atomic.Bool
	// onSubmit scripts POST /v1/jobs; nil accepts with 202.
	onSubmit func(w http.ResponseWriter, r *http.Request)
	// onStatus scripts GET /v1/jobs/{id}; nil answers unknown. Swapped
	// atomically so tests can change the script mid-flight.
	onStatus atomic.Pointer[func(w http.ResponseWriter, r *http.Request)]
	// reclaimed records keys received via /v1/reconcile.
	reclaimed chan []string
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	b := &fakeBackend{reclaimed: make(chan []string, 4)}
	b.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		b.submits.Add(1)
		if b.onSubmit != nil {
			b.onSubmit(w, r)
			return
		}
		key := r.Header.Get("Idempotency-Key")
		writeJSON(w, http.StatusAccepted, &server.SubmitResponse{Job: key, Status: server.StatusAccepted})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		b.statuses.Add(1)
		if h := b.onStatus.Load(); h != nil {
			(*h)(w, r)
			return
		}
		writeJSON(w, http.StatusOK, &server.SubmitResponse{Job: r.PathValue("id"), Status: "unknown"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !b.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/reconcile", func(w http.ResponseWriter, r *http.Request) {
		var req server.ReconcileRequest
		json.NewDecoder(r.Body).Decode(&req)
		b.reclaimed <- req.Reclaim
		writeJSON(w, http.StatusOK, &server.ReconcileResponse{Reclaimed: len(req.Reclaim)})
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// newTestGateway builds a gateway over the fakes with every backend
// already live (probing is exercised separately).
func newTestGateway(t *testing.T, cfg Config, backends ...*fakeBackend) *Gateway {
	t.Helper()
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.srv.URL)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range g.backends {
		st.live.Store(true)
	}
	return g
}

func postBody(t *testing.T, g *Gateway, body string) (*server.SubmitResponse, int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	var resp server.SubmitResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response (%d): %v", rec.Code, err)
	}
	return &resp, rec.Code
}

func TestGatewayRoutesByKeyAndCoalescesDuplicates(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{}, b1, b2)

	body := "post(t0,LAUNCH_ACTIVITY,t1)\n"
	resp, code := postBody(t, g, body)
	if code != http.StatusAccepted || resp.Status != server.StatusAccepted {
		t.Fatalf("submit: %d %s, want 202 accepted", code, resp.Status)
	}
	if resp.Job != server.IdempotencyKey([]byte(body)) {
		t.Fatalf("job %s, want the content key", resp.Job)
	}
	total := b1.submits.Load() + b2.submits.Load()
	if total != 1 {
		t.Fatalf("%d backend submits, want 1", total)
	}
	// A duplicate routes to the same (pending) backend and coalesces.
	if _, code = postBody(t, g, body); code != http.StatusAccepted {
		t.Fatalf("duplicate: %d, want 202", code)
	}
	if got := b1.submits.Load() + b2.submits.Load(); got != 2 {
		t.Fatalf("%d backend submits after duplicate, want 2", got)
	}
	if b1.submits.Load() != 0 && b2.submits.Load() != 0 {
		t.Fatal("duplicate was routed to a different backend than the original")
	}
}

func TestGatewayCacheServesTerminalReplays(t *testing.T) {
	b := newFakeBackend(t)
	b.onSubmit = func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("Idempotency-Key")
		writeJSON(w, http.StatusOK, &server.SubmitResponse{
			Job: key, Status: server.StatusDone, Mode: "full", Races: 3, Digest: "00000000000000ab",
		})
	}
	g := newTestGateway(t, Config{}, b)

	body := "post(t0,LAUNCH_ACTIVITY,t1)\n"
	resp, code := postBody(t, g, body)
	if code != http.StatusOK || resp.Cached {
		t.Fatalf("first submit: %d cached=%v, want 200 uncached", code, resp.Cached)
	}
	resp, code = postBody(t, g, body)
	if code != http.StatusOK || !resp.Cached || resp.Races != 3 {
		t.Fatalf("replay: %d cached=%v races=%d, want 200 cached with the journal record", code, resp.Cached, resp.Races)
	}
	if got := b.submits.Load(); got != 1 {
		t.Fatalf("backend saw %d submits, want 1 — the replay must not touch it", got)
	}
}

func TestGatewayFailoverOnBackendFailure(t *testing.T) {
	bad, good := newFakeBackend(t), newFakeBackend(t)
	bad.onSubmit = func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}
	g := newTestGateway(t, Config{EjectThreshold: 2}, bad, good)

	// Find a body whose home is the bad backend.
	body := homeBody(t, g, bad.srv.URL, 0)
	resp, code := postBody(t, g, body)
	if code != http.StatusAccepted || resp.Status != server.StatusAccepted {
		t.Fatalf("failover submit: %d %s, want 202 from the good peer", code, resp.Status)
	}
	if good.submits.Load() == 0 {
		t.Fatal("good backend never saw the failed-over submission")
	}
	if failoversTotal.Value() == 0 {
		t.Fatal("failover counter did not move")
	}
}

func TestGatewayEjectsAfterConsecutiveFailures(t *testing.T) {
	bad, good := newFakeBackend(t), newFakeBackend(t)
	bad.onSubmit = func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}
	g := newTestGateway(t, Config{EjectThreshold: 2}, bad, good)

	for i := 0; i < 4; i++ {
		postBody(t, g, homeBody(t, g, bad.srv.URL, i))
	}
	live := g.LiveBackends()
	if len(live) != 1 || live[0] != good.srv.URL {
		t.Fatalf("live = %v, want only the good backend", live)
	}
}

func TestGatewayRejectionPassThrough(t *testing.T) {
	b := newFakeBackend(t)
	b.onSubmit = func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		writeJSON(w, http.StatusTooManyRequests, &server.SubmitResponse{
			Status: server.StatusRejected, Reason: server.RejectRateLimited, RetryAfterSeconds: 7,
		})
	}
	g := newTestGateway(t, Config{}, b)

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader("post(t0,X,t1)\n"))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code %d, want the backend's 429 passed through", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "7" {
		t.Fatalf("Retry-After %q, want the backend's honest hint", rec.Header().Get("Retry-After"))
	}
	if len(g.LiveBackends()) != 1 {
		t.Fatal("a 4xx rejection must not eject the backend")
	}
}

// TestGatewayRelaysMalformedTraceRefusal pins that a backend's 422
// admission refusal (a size directive the body cannot back) reaches
// the client as 422, not as an acceptance.
func TestGatewayRelaysMalformedTraceRefusal(t *testing.T) {
	b := newFakeBackend(t)
	b.onSubmit = func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusUnprocessableEntity, &server.SubmitResponse{
			Status: server.StatusRejected, Reason: server.RejectMalformedTrace,
		})
	}
	g := newTestGateway(t, Config{}, b)
	resp, code := postBody(t, g, "#! ops=400000000\nthreadinit(t1)\n")
	if code != http.StatusUnprocessableEntity || resp.Status != server.StatusRejected || resp.Reason != server.RejectMalformedTrace {
		t.Fatalf("gateway answered %d %+v, want the backend's 422 %s", code, resp, server.RejectMalformedTrace)
	}
}

func TestGatewayFleetUnavailable(t *testing.T) {
	b := newFakeBackend(t)
	g := newTestGateway(t, Config{RetryAfter: 15 * time.Second}, b)
	g.backends[b.srv.URL].live.Store(false)

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader("post(t0,X,t1)\n"))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d, want 503 when every backend is down", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "15" {
		t.Fatalf("Retry-After %q, want 15", rec.Header().Get("Retry-After"))
	}
	// Readiness reflects the same truth.
	rr := httptest.NewRecorder()
	g.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d, want 503 with zero live backends", rr.Code)
	}
}

func TestGatewayPendingAnswersWhenAcceptorDown(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{}, b1, b2)

	body := "post(t0,LAUNCH_ACTIVITY,t1)\n"
	if _, code := postBody(t, g, body); code != http.StatusAccepted {
		t.Fatalf("seed submit: %d, want 202", code)
	}
	// Kill the accepting backend. A duplicate must coalesce locally —
	// never re-execute on the surviving peer.
	acceptor := b1
	if b1.submits.Load() == 0 {
		acceptor = b2
	}
	g.backends[acceptor.srv.URL].live.Store(false)
	before := b1.submits.Load() + b2.submits.Load()
	resp, code := postBody(t, g, body)
	if code != http.StatusAccepted || !resp.Coalesced {
		t.Fatalf("duplicate with acceptor down: %d coalesced=%v, want local 202 coalesced", code, resp.Coalesced)
	}
	if got := b1.submits.Load() + b2.submits.Load(); got != before {
		t.Fatal("duplicate of pending work was re-forwarded while its acceptor was down")
	}
}

func TestGatewayStatusWarmsCache(t *testing.T) {
	b := newFakeBackend(t)
	g := newTestGateway(t, Config{}, b)
	body := "post(t0,LAUNCH_ACTIVITY,t1)\n"
	resp, _ := postBody(t, g, body)
	key := resp.Job

	getStatus := func() (*server.SubmitResponse, int) {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+key, nil))
		var sr server.SubmitResponse
		json.NewDecoder(rec.Body).Decode(&sr)
		return &sr, rec.Code
	}
	// Backend says unknown, but the gateway knows the key is pending
	// there: answered 200 pending rather than 404.
	sr, code := getStatus()
	if code != http.StatusOK || sr.Status != server.StatusPending {
		t.Fatalf("status of pending job: %d %s, want 200 pending", code, sr.Status)
	}
	// The job finishes: a status poll observes the terminal answer and
	// fills the cache on the way through.
	doneHandler := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &server.SubmitResponse{
			Job: r.PathValue("id"), Status: server.StatusDone, Mode: "full", Races: 2, Digest: "00000000000000cd",
		})
	}
	b.onStatus.Store(&doneHandler)
	if sr, code = getStatus(); code != http.StatusOK || sr.Status != server.StatusDone {
		t.Fatalf("status after finish: %d %s, want 200 done", code, sr.Status)
	}
	// A duplicate submission now replays from the cache without touching
	// the backend.
	before := b.submits.Load()
	dup, code := postBody(t, g, body)
	if code != http.StatusOK || !dup.Cached || dup.Races != 2 {
		t.Fatalf("duplicate after poll: %d cached=%v races=%d, want cached 200", code, dup.Cached, dup.Races)
	}
	if b.submits.Load() != before {
		t.Fatal("cached replay touched the backend")
	}
}

// TestGatewayStatusReadsEjectedBackend pins that ejection stops
// placement, not reads. A backend ejected after its journal fills
// (readyz 503) still finishes its in-flight job in memory and answers
// for it; the poll must reach it instead of answering pending until the
// backend restarts. The live peer, which does not know the key, is
// asked first.
func TestGatewayStatusReadsEjectedBackend(t *testing.T) {
	b0, b1 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{}, b0, b1)
	resp, code := postBody(t, g, homeBody(t, g, b0.srv.URL, 0))
	if code != http.StatusAccepted || b0.submits.Load() != 1 {
		t.Fatalf("seed submit: %d (b0 submits %d), want 202 on b0", code, b0.submits.Load())
	}
	key := resp.Job

	doneHandler := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &server.SubmitResponse{
			Job: r.PathValue("id"), Status: server.StatusDone, Mode: "full", Races: 3, Digest: "00000000000000ab",
		})
	}
	b0.onStatus.Store(&doneHandler)
	b0.ready.Store(false)
	g.eject(b0.srv.URL, fmt.Errorf("storage-degraded"))
	if live := g.LiveBackends(); len(live) != 1 || live[0] != b1.srv.URL {
		t.Fatalf("live backends after eject = %v, want only b1", live)
	}

	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+key, nil))
	var sr server.SubmitResponse
	json.NewDecoder(rec.Body).Decode(&sr)
	if rec.Code != http.StatusOK || sr.Status != server.StatusDone || sr.Races != 3 {
		t.Fatalf("poll of a job completed on an ejected backend: %d %s races=%d, want 200 done races=3",
			rec.Code, sr.Status, sr.Races)
	}
	if b1.statuses.Load() == 0 {
		t.Error("the live peer was not asked before the ejected backend")
	}
	// The terminal answer filled the cache: a duplicate replays without
	// placing work anywhere.
	before := b0.submits.Load() + b1.submits.Load()
	dup, code := postBody(t, g, homeBody(t, g, b0.srv.URL, 0))
	if code != http.StatusOK || !dup.Cached {
		t.Fatalf("duplicate after poll: %d cached=%v, want cached 200", code, dup.Cached)
	}
	if b0.submits.Load()+b1.submits.Load() != before {
		t.Fatal("cached replay placed work on a backend")
	}
}

// TestGatewayStatusSkipsDeadEjectedBackend: an ejected backend that is
// gone costs a poll one failed connection, and an unknown key still
// answers 404.
func TestGatewayStatusSkipsDeadEjectedBackend(t *testing.T) {
	b0, b1 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{ProbeTimeout: 200 * time.Millisecond}, b0, b1)
	b0.srv.Close()
	g.eject(b0.srv.URL, fmt.Errorf("gone"))
	start := time.Now()
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/0123456789abcdef", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("poll of an unknown key with a dead ejected backend: %d, want 404", rec.Code)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("poll took %v with a dead ejected backend", d)
	}
}

func TestGatewayAcceptanceClearsInDoubtLedger(t *testing.T) {
	b := newFakeBackend(t)
	var dieInFlight atomic.Bool
	dieInFlight.Store(true)
	b.onSubmit = func(w http.ResponseWriter, r *http.Request) {
		if dieInFlight.Load() {
			// Die in flight: the backend may have spooled the trace, so
			// the gateway must treat the key as in doubt.
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		key := r.Header.Get("Idempotency-Key")
		writeJSON(w, http.StatusAccepted, &server.SubmitResponse{Job: key, Status: server.StatusAccepted})
	}
	g := newTestGateway(t, Config{EjectThreshold: 100}, b)

	body := "post(t0,LAUNCH_ACTIVITY,t1)\n"
	key := server.IdempotencyKey([]byte(body))
	if _, code := postBody(t, g, body); code != http.StatusServiceUnavailable {
		t.Fatalf("in-flight death on the only backend: %d, want 503", code)
	}
	g.mu.Lock()
	_, ledgered := g.ledger[b.srv.URL][key]
	g.mu.Unlock()
	if !ledgered {
		t.Fatal("in-flight death did not ledger the key in doubt")
	}
	// The client retries and the backend acknowledges the key it had
	// spooled: the backend now owns the work, so the in-doubt entry must
	// die with the acknowledgment — a later reconcile asking the backend
	// to reclaim this key would delete an accepted, unfinished job.
	dieInFlight.Store(false)
	if _, code := postBody(t, g, body); code != http.StatusAccepted {
		t.Fatalf("retry after recovery: %d, want 202", code)
	}
	g.backends[b.srv.URL].live.Store(false)
	if !g.reinstate(context.Background(), g.backends[b.srv.URL]) {
		t.Fatal("reinstate failed")
	}
	select {
	case keys := <-b.reclaimed:
		for _, k := range keys {
			if k == key {
				t.Fatal("reconcile asked the backend to reclaim an acknowledged key")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reconcile never reached the backend")
	}
}

func TestGatewayClientDisconnectNotCountedAgainstBackend(t *testing.T) {
	b := newFakeBackend(t)
	b.onSubmit = func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first (as the real daemon does): the server only
		// detects a dropped peer once the request body is consumed.
		io.ReadAll(r.Body)
		<-r.Context().Done() // hold the forward until the inbound client gives up
	}
	// Threshold 1: a single counted failure would eject, so survival
	// proves the disconnect was not counted.
	g := newTestGateway(t, Config{EjectThreshold: 1}, b)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader("post(t0,LAUNCH_ACTIVITY,t1)\n")).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.submits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backend never saw the forward")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
	if len(g.LiveBackends()) != 1 {
		t.Fatal("a client disconnect ejected a healthy backend")
	}
	g.mu.Lock()
	inDoubt := len(g.ledger[b.srv.URL])
	g.mu.Unlock()
	if inDoubt != 0 {
		t.Fatalf("client disconnect ledgered %d in-doubt keys; a reconcile could reclaim live work", inDoubt)
	}
}

// homeBody generates a trace body whose idempotency key hashes home to
// the given backend; distinct salts give distinct bodies.
func homeBody(t *testing.T, g *Gateway, backend string, salt int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		body := fmt.Sprintf("post(t0,LAUNCH_ACTIVITY,t1)\npost(t0,SEEK_%d_%d,t1)\n", salt, i)
		key := server.IdempotencyKey([]byte(body))
		if g.ring.Order(key)[0] == backend {
			return body
		}
	}
	t.Fatal("no body hashed home to the backend in 10000 tries")
	return ""
}

// TestGatewayBlankBodyNotCopied pins that the empty-body check reads
// the submitted bytes in place: a blank body costs the gateway its read
// and nothing close to a second copy.
func TestGatewayBlankBodyNotCopied(t *testing.T) {
	g := newTestGateway(t, Config{}, newFakeBackend(t))
	blank := strings.Repeat(" \n", 410<<10)
	submitBlank := func() {
		if _, code := postBody(t, g, blank); code != http.StatusBadRequest {
			t.Fatalf("blank submit = %d, want 400", code)
		}
	}
	submitBlank() // warm up lazily built state
	read := sentinel.MeasureAlloc(5, func() { io.ReadAll(strings.NewReader(blank)) })
	submit := sentinel.MeasureAlloc(5, submitBlank)
	if extra := submit - read; extra > int64(len(blank))/2 {
		t.Fatalf("blank %d-byte submit allocated %d bytes beyond reading it", len(blank), extra)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/paper"
	"droidracer/internal/report"
	"droidracer/internal/sentinel"
	"droidracer/internal/trace"
)

// figure4Body renders the paper's Figure 4 trace as a submission body.
func figure4Body(t *testing.T) []byte {
	t.Helper()
	var buf strings.Builder
	if err := trace.Format(&buf, paper.Figure4()); err != nil {
		t.Fatal(err)
	}
	return []byte(buf.String())
}

// harness is one daemon-shaped stack: journal, pool, server, HTTP
// listener — everything handleSubmit needs end to end.
type harness struct {
	spool string
	state string
	jpath string
	w     *journal.Writer
	pool  *jobs.Pool
	srv   *Server
	ts    *httptest.Server
}

func newHarness(t *testing.T, poolCfg jobs.Config, srvCfg Config) *harness {
	t.Helper()
	h := &harness{spool: t.TempDir(), state: t.TempDir()}
	h.jpath = filepath.Join(h.state, "daemon.journal")
	w, err := journal.Create(h.jpath)
	if err != nil {
		t.Fatal(err)
	}
	h.w = w
	var srv *Server
	poolCfg.Journal = w
	poolCfg.OnFinish = func(out report.Outcome) {
		if s := srv; s != nil {
			s.JobFinished(out)
		}
	}
	h.pool = jobs.NewPool(poolCfg)
	srvCfg.Pool = h.pool
	srvCfg.Spool = h.spool
	srvCfg.Analyze = core.DefaultOptions()
	srv = New(srvCfg)
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		h.ts.Close()
		h.pool.Shutdown(context.Background())
		h.w.Close()
	})
	return h
}

// post submits body and decodes the response.
func (h *harness) post(t *testing.T, body []byte, hdr map[string]string) (*SubmitResponse, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp SubmitResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &resp, httpResp
}

// waitStatus polls GET /v1/jobs/{id} until the index reports status.
func (h *harness) waitStatus(t *testing.T, id, status string) *SubmitResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		httpResp, err := http.Get(h.ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var resp SubmitResponse
		err = json.NewDecoder(httpResp.Body).Decode(&resp)
		httpResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == status {
			return &resp
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached status %q", id, status)
	return nil
}

func TestSubmitAnalyzeReplay(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{})
	body := figure4Body(t)

	resp, httpResp := h.post(t, body, nil)
	if httpResp.StatusCode != http.StatusAccepted || resp.Status != StatusAccepted {
		t.Fatalf("first submit = %d %+v", httpResp.StatusCode, resp)
	}
	if resp.Job != IdempotencyKey(body) {
		t.Fatalf("job id %q != content key %q", resp.Job, IdempotencyKey(body))
	}
	done := h.waitStatus(t, resp.Job, StatusDone)
	if done.Mode != "full" || done.Races == 0 || done.Digest == "" {
		t.Fatalf("done entry = %+v", done)
	}

	// The duplicate answers from the index — same digest, 200, no new work.
	dup, httpResp := h.post(t, body, nil)
	if httpResp.StatusCode != http.StatusOK || dup.Status != StatusDone {
		t.Fatalf("duplicate = %d %+v", httpResp.StatusCode, dup)
	}
	if dup.Digest != done.Digest || dup.Races != done.Races {
		t.Fatalf("replayed %+v, first %+v", dup, done)
	}

	h.pool.Quiesce()
	h.w.Sync()
	entries, err := journal.Recover(h.jpath)
	if err != nil {
		t.Fatal(err)
	}
	jobsSeen := 0
	for _, e := range entries {
		if e.Type == "job" {
			jobsSeen++
		}
	}
	if jobsSeen != 1 {
		t.Fatalf("journal has %d job entries, want 1 (duplicate must not re-run)", jobsSeen)
	}
}

func TestDuplicateOfPendingCoalesces(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	h := newHarness(t, jobs.Config{Workers: 1, QueueDepth: 4}, Config{})
	// Occupy the only worker so the HTTP submission stays queued.
	h.pool.Submit(jobs.Job{Name: "blocker", Run: func(ctx context.Context, _ budget.Limits) (*core.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &core.Result{}, nil
	}})
	<-started
	defer close(release)

	body := figure4Body(t)
	first, httpResp := h.post(t, body, nil)
	if httpResp.StatusCode != http.StatusAccepted || first.Coalesced {
		t.Fatalf("first = %d %+v", httpResp.StatusCode, first)
	}
	dup, httpResp := h.post(t, body, nil)
	if httpResp.StatusCode != http.StatusAccepted || !dup.Coalesced || dup.Status != StatusPending {
		t.Fatalf("duplicate of pending = %d %+v, want coalesced 202", httpResp.StatusCode, dup)
	}
	// Exactly one spool file: the coalesced duplicate did not rewrite it.
	ents, err := os.ReadDir(h.spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("spool has %d entries, want 1", len(ents))
	}
}

func TestRateLimitRejectsWithRetryAfter(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{Rate: 0.5, Burst: 1})
	hdr := map[string]string{"X-Client-ID": "flooder"}
	if _, httpResp := h.post(t, figure4Body(t), hdr); httpResp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", httpResp.StatusCode)
	}
	resp, httpResp := h.post(t, []byte("op 2 distinct body\n"), hdr)
	if httpResp.StatusCode != http.StatusTooManyRequests || resp.Reason != RejectRateLimited {
		t.Fatalf("flood = %d %+v, want 429 rate-limited", httpResp.StatusCode, resp)
	}
	if httpResp.Header.Get("Retry-After") == "" || resp.RetryAfterSeconds < 1 {
		t.Fatalf("429 without honest Retry-After: header=%q body=%+v",
			httpResp.Header.Get("Retry-After"), resp)
	}
	// A different client is not collateral damage of the flooder.
	other, httpResp := h.post(t, []byte("op 3 another body\n"), map[string]string{"X-Client-ID": "calm"})
	if httpResp.StatusCode == http.StatusTooManyRequests {
		t.Fatalf("distinct client rate-limited: %+v", other)
	}
}

func TestQueueFullRejectsAndCleansSpool(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	h := newHarness(t, jobs.Config{Workers: 1, QueueDepth: 1}, Config{})
	blocker := func(name string) jobs.Job {
		return jobs.Job{Name: name, Run: func(ctx context.Context, _ budget.Limits) (*core.Result, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &core.Result{}, nil
		}}
	}
	h.pool.Submit(blocker("running"))
	<-started
	h.pool.Submit(blocker("queued")) // fills the 1-deep queue
	defer close(release)

	body := figure4Body(t)
	resp, httpResp := h.post(t, body, nil)
	if httpResp.StatusCode != http.StatusTooManyRequests || resp.Reason != RejectQueueFull {
		t.Fatalf("saturated submit = %d %+v, want 429 queue-full", httpResp.StatusCode, resp)
	}
	if resp.RetryAfterSeconds < 1 {
		t.Fatalf("queue-full without Retry-After: %+v", resp)
	}
	// The unaccepted body must not leak into the spool (the restart sweep
	// would silently run work the client was told to retry).
	if _, err := os.Stat(filepath.Join(h.spool, jobName(IdempotencyKey(body)))); !os.IsNotExist(err) {
		t.Fatalf("rejected submission left a spool file (err=%v)", err)
	}
	// And a retry of the same body after the rejection must be accepted
	// once capacity returns, not answered "pending" from a stale claim.
	if st, _, ok := h.srv.lookup(jobName(IdempotencyKey(body))); ok {
		t.Fatalf("rejected submission left an index entry: %+v", st)
	}
}

func TestBodyLimits(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{MaxBody: 64})
	resp, httpResp := h.post(t, bytes.Repeat([]byte("x"), 128), nil)
	if httpResp.StatusCode != http.StatusRequestEntityTooLarge || resp.Reason != RejectBodyTooLarge {
		t.Fatalf("oversized = %d %+v", httpResp.StatusCode, resp)
	}
	resp, httpResp = h.post(t, []byte("  \n"), nil)
	if httpResp.StatusCode != http.StatusBadRequest || resp.Reason != RejectEmptyBody {
		t.Fatalf("empty = %d %+v", httpResp.StatusCode, resp)
	}
}

func TestIdempotencyKeyMismatch(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{})
	resp, httpResp := h.post(t, figure4Body(t), map[string]string{"Idempotency-Key": "deadbeefdeadbeef"})
	if httpResp.StatusCode != http.StatusBadRequest || resp.Reason != RejectKeyMismatch {
		t.Fatalf("corrupted body = %d %+v, want 400 key-mismatch", httpResp.StatusCode, resp)
	}
}

func TestBadDeadlineRejected(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{})
	_, httpResp := h.post(t, figure4Body(t), map[string]string{DeadlineHeader: "not-a-duration"})
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline = %d, want 400", httpResp.StatusCode)
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(h.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d before drain", path, r.StatusCode)
		}
	}
	h.srv.BeginDrain()
	r, err := http.Get(h.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after BeginDrain, want 503", r.StatusCode)
	}
	// Liveness is unaffected: the process is healthy, just not accepting.
	r, err = http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d after BeginDrain, want 200", r.StatusCode)
	}
	resp, httpResp := h.post(t, figure4Body(t), nil)
	if httpResp.StatusCode != http.StatusServiceUnavailable || resp.Reason != RejectShuttingDown {
		t.Fatalf("submit during drain = %d %+v", httpResp.StatusCode, resp)
	}
	if resp.RetryAfterSeconds < 1 {
		t.Fatalf("drain rejection without Retry-After: %+v", resp)
	}
}

func TestPoisonInputQuarantinedAndReplayed(t *testing.T) {
	qdir := filepath.Join(t.TempDir(), "quarantine")
	h := newHarness(t,
		jobs.Config{Workers: 1, Quarantine: &jobs.Quarantine{Dir: qdir}},
		Config{})
	garbage := []byte("this is not a trace\n")
	resp, httpResp := h.post(t, garbage, nil)
	if httpResp.StatusCode != http.StatusAccepted {
		t.Fatalf("garbage submit = %d %+v", httpResp.StatusCode, resp)
	}
	q := h.waitStatus(t, resp.Job, StatusQuarantined)
	if q.Reason == "" {
		t.Fatalf("quarantined without a reason: %+v", q)
	}
	// The duplicate answers 422 from the dead-letter record.
	dup, httpResp := h.post(t, garbage, nil)
	if httpResp.StatusCode != http.StatusUnprocessableEntity || dup.Status != StatusQuarantined {
		t.Fatalf("duplicate of poison = %d %+v, want 422", httpResp.StatusCode, dup)
	}
	// The input moved out of the spool into the quarantine directory.
	name := jobName(resp.Job)
	if _, err := os.Stat(filepath.Join(h.spool, name)); !os.IsNotExist(err) {
		t.Fatalf("poison input still in spool (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(qdir, name)); err != nil {
		t.Fatalf("poison input not in quarantine: %v", err)
	}
	// And the journal carries the dead-letter record for the next
	// incarnation.
	h.w.Sync()
	entries, err := journal.Recover(h.jpath)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := jobs.QuarantinedJobs(entries)
	if _, ok := quarantined[name]; !ok {
		t.Fatalf("journal has no quarantine entry for %s: %v", name, quarantined)
	}
	// A server seeded from the recovered journal answers 422 immediately.
	srv2 := New(Config{Pool: h.pool, Spool: h.spool, Quarantined: quarantined})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	r2, err := http.Post(ts2.URL+"/v1/jobs", "text/plain", bytes.NewReader(garbage))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("recovered server = %d, want 422", r2.StatusCode)
	}
}

func TestStatusUnknown(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{})
	r, err := http.Get(h.ts.URL + "/v1/jobs/0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", r.StatusCode)
	}
}

func TestClientRetriesWithStableKey(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		if n < 3 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(&SubmitResponse{Status: StatusRejected, Reason: RejectQueueFull})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(&SubmitResponse{Job: "abc", Status: StatusAccepted})
	}))
	defer ts.Close()

	body := []byte("op 1 trace body\n")
	c := &Client{BaseURL: ts.URL, BaseBackoff: 2 * time.Millisecond, Seed: 42}
	resp, history, err := c.Submit(context.Background(), body)
	if err != nil || resp.Status != StatusAccepted {
		t.Fatalf("submit = %+v, %v", resp, err)
	}
	if len(history) != 3 {
		t.Fatalf("attempts = %d (%+v), want 3", len(history), history)
	}
	want := IdempotencyKey(body)
	for i, k := range keys {
		if k != want {
			t.Fatalf("attempt %d sent key %q, want stable %q", i+1, k, want)
		}
	}
	for _, at := range history[:2] {
		if at.Wait <= 0 {
			t.Fatalf("retryable refusal without backoff: %+v", history)
		}
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(&SubmitResponse{Status: StatusRejected, Reason: RejectShuttingDown, RetryAfterSeconds: 1})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(&SubmitResponse{Job: "abc", Status: StatusAccepted})
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond, Seed: 1}
	start := time.Now()
	_, history, err := c.Submit(context.Background(), []byte("op 1 x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 || history[0].Wait != time.Second {
		t.Fatalf("history = %+v, want first wait = server's Retry-After", history)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("client ignored Retry-After: resolved in %v", elapsed)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(&SubmitResponse{Status: StatusRejected, Reason: RejectEmptyBody})
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond}
	_, history, err := c.Submit(context.Background(), []byte("op 1 x\n"))
	if err == nil {
		t.Fatal("400 did not surface as an error")
	}
	if attempts != 1 || len(history) != 1 {
		t.Fatalf("client retried a 400: %d attempts", attempts)
	}
}

func TestEstimatorQueueWait(t *testing.T) {
	e := &estimator{}
	if w := e.queueWait(4, 2, 0); w != 3*time.Second {
		t.Fatalf("default service queueWait = %v, want 3s", w)
	}
	e.observe(10 * time.Second)
	if w := e.queueWait(4, 2, 0); w < 20*time.Second {
		t.Fatalf("observed-service queueWait = %v, want ≥ 20s", w)
	}
	if w := e.queueWait(1000, 1, 0); w != 5*time.Minute {
		t.Fatalf("default-ceiling queueWait = %v, want 5m", w)
	}
	if w := e.queueWait(1000, 1, 30*time.Second); w != 30*time.Second {
		t.Fatalf("configured-ceiling queueWait = %v, want 30s", w)
	}
}

func TestBucketsRefill(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBuckets(1, 1)
	b.now = func() time.Time { return now }
	if _, ok := b.take("c"); !ok {
		t.Fatal("fresh bucket refused its burst")
	}
	wait, ok := b.take("c")
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %v, want (0, 1s]", wait)
	}
	now = now.Add(1100 * time.Millisecond)
	if _, ok := b.take("c"); !ok {
		t.Fatal("refilled bucket refused")
	}
}

// TestNewServesStreamOnly pins that a daemon cannot be configured to
// serve an engine admission does not price.
func TestNewServesStreamOnly(t *testing.T) {
	for _, eng := range []string{"", core.EngineStream} {
		New(Config{Analyze: core.Options{Engine: eng}})
	}
	for _, eng := range []string{"graph", "quantum"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with engine %q did not panic", eng)
				}
			}()
			New(Config{Analyze: core.Options{Engine: eng}})
		}()
	}
}

// TestSubmitBlankBodyNotCopied pins that the empty-body check reads the
// submitted bytes in place: a blank body costs admission its read and
// nothing close to a second copy.
func TestSubmitBlankBodyNotCopied(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{Rate: 1000, Burst: 1000})
	blank := strings.Repeat(" \n", 410<<10)
	submitBlank := func() {
		rec := httptest.NewRecorder()
		h.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(blank)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("blank submit = %d, want 400", rec.Code)
		}
	}
	submitBlank() // warm up lazily built state
	read := sentinel.MeasureAlloc(5, func() { io.ReadAll(strings.NewReader(blank)) })
	submit := sentinel.MeasureAlloc(5, submitBlank)
	if extra := submit - read; extra > int64(len(blank))/2 {
		t.Fatalf("blank %d-byte submit allocated %d bytes beyond reading it", len(blank), extra)
	}
}

package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"droidracer/internal/faultinject"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/sentinel"
)

// sentinelWorkerMarker gates TestServerSentinelWorkerProcess, the worker
// subprocess the isolator tests re-exec this test binary into.
const sentinelWorkerMarker = "DROIDRACER_SERVER_TEST_WORKER"

func TestServerSentinelWorkerProcess(t *testing.T) {
	if os.Getenv(sentinelWorkerMarker) != "1" {
		t.Skip("not a worker invocation")
	}
	os.Exit(sentinel.WorkerMain())
}

// testIsolator re-execs this test binary as a sandboxed worker; extraEnv
// arms child-side faults.
func testIsolator(extraEnv ...string) *sentinel.Isolator {
	return &sentinel.Isolator{
		Exe:      os.Args[0],
		Args:     []string{"-test.run=^TestServerSentinelWorkerProcess$"},
		Env:      append([]string{sentinelWorkerMarker + "=1"}, extraEnv...),
		MemLimit: 256 << 20,
		Wall:     time.Minute,
	}
}

func TestSubmitCostExceeded(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1},
		Config{Cost: sentinel.CostLimits{Hard: 1 << 20}})
	resp, httpResp := h.post(t, sentinel.WideClockBody(200, 800), nil)
	if httpResp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("heavy submit = %d, want 413", httpResp.StatusCode)
	}
	if resp.Status != StatusRejected || resp.Reason != RejectCostExceeded {
		t.Fatalf("response = %+v", resp)
	}
	// The 413 carries the estimate so the client learns why.
	if resp.Estimate == nil || resp.Estimate.StreamBytes <= 1<<20 || resp.Estimate.Width < 200 {
		t.Fatalf("413 without a meaningful estimate: %+v", resp.Estimate)
	}
	// Nothing was spooled for a refused submission.
	ents, err := os.ReadDir(h.spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("refused submission left %d spool entries", len(ents))
	}
}

func TestSubmitSizeDirectiveBomb(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1},
		Config{Cost: sentinel.CostLimits{Hard: 1 << 30}})
	bomb := []byte("#! ops=400000000\nthreadinit(t1)\n")
	resp, httpResp := h.post(t, bomb, nil)
	if httpResp.StatusCode != http.StatusUnprocessableEntity || resp.Reason != RejectMalformedTrace {
		t.Fatalf("directive bomb = %d %+v, want 422 malformed-trace", httpResp.StatusCode, resp)
	}
}

func TestBrownoutDegradesAndRefuses(t *testing.T) {
	mem := int64(0)
	snt := sentinel.New(sentinel.Config{Watermark: 1000, MemFn: func() int64 { return mem }})
	// The soft ceiling is low and the heavy bodies small so the isolated
	// runs stay fast even race-instrumented: TSan multiplies both the
	// analysis time and the worker's address-space appetite.
	h := newHarness(t, jobs.Config{Workers: 1}, Config{
		Sentinel: snt,
		Cost:     sentinel.CostLimits{Soft: 256 << 10},
		Isolator: testIsolator(),
	})

	// Healthy: readyz 200.
	r, err := http.Get(h.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/readyz healthy = %d", r.StatusCode)
	}

	// Cross the watermark.
	mem = 5000
	snt.Sample()

	// Heavy work is refused 503 resource-degraded with an honest hint.
	resp, httpResp := h.post(t, sentinel.WideClockBody(20, 80), nil)
	if httpResp.StatusCode != http.StatusServiceUnavailable || resp.Reason != RejectResourceDegraded {
		t.Fatalf("heavy during brownout = %d %+v", httpResp.StatusCode, resp)
	}
	if resp.RetryAfterSeconds < 1 {
		t.Fatalf("resource-degraded without Retry-After: %+v", resp)
	}

	// readyz reports the resource condition so probers route around.
	r, err = http.Get(h.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	cond, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable || strings.TrimSpace(string(cond)) != "resource" {
		t.Fatalf("/readyz browned out = %d %q, want 503 resource", r.StatusCode, cond)
	}

	// Liveness is unaffected.
	r, err = http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/healthz browned out = %d", r.StatusCode)
	}

	// Non-heavy work is still accepted and runs the full analysis.
	resp, httpResp = h.post(t, figure4Body(t), nil)
	if httpResp.StatusCode != http.StatusAccepted {
		t.Fatalf("normal during brownout = %d %+v", httpResp.StatusCode, resp)
	}
	done := h.waitStatus(t, resp.Job, StatusDone)
	if done.Mode != "full" {
		t.Fatalf("brownout job mode = %q, want full", done.Mode)
	}

	// Recovery restores full fidelity and readiness.
	mem = 100
	snt.Sample()
	r, err = http.Get(h.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/readyz recovered = %d", r.StatusCode)
	}
	resp, httpResp = h.post(t, sentinel.WideClockBody(20, 80), nil)
	if httpResp.StatusCode != http.StatusAccepted {
		t.Fatalf("heavy after recovery = %d %+v", httpResp.StatusCode, resp)
	}
	h.waitStatus(t, resp.Job, StatusDone)
}

// TestWorkerOOMKilledQuarantinedAndReplayed is the satellite-c scenario:
// an isolated worker is OOM-killed mid-analysis (SIGKILL at the
// sentinel.worker kill-point — death without a word, exactly like the
// kernel's OOM killer), the parent classifies the death, the input is
// quarantined with a "resource" reason, and after a restart the
// recovered journal answers the replay 422 without ever re-running the
// bomb.
func TestWorkerOOMKilledQuarantinedAndReplayed(t *testing.T) {
	qdir := t.TempDir()
	h := newHarness(t,
		jobs.Config{Workers: 1, Quarantine: &jobs.Quarantine{Dir: qdir}},
		Config{
			Cost: sentinel.CostLimits{Soft: 1 << 20},
			Isolator: testIsolator(
				faultinject.EnvKillpoint + "=sentinel.worker"),
		})
	body := sentinel.WideClockBody(200, 800)

	resp, httpResp := h.post(t, body, nil)
	if httpResp.StatusCode != http.StatusAccepted {
		t.Fatalf("heavy submit = %d %+v", httpResp.StatusCode, resp)
	}
	q := h.waitStatus(t, resp.Job, StatusQuarantined)
	if !strings.HasPrefix(q.Reason, "resource: "+sentinel.ClassOOMKill) {
		t.Fatalf("quarantine reason = %q, want a resource: %s prefix", q.Reason, sentinel.ClassOOMKill)
	}

	// Exactly one resource quarantine record made it into the journal.
	h.pool.Quiesce()
	h.w.Sync()
	entries, err := journal.Recover(h.jpath)
	if err != nil {
		t.Fatal(err)
	}
	resourceRecords := 0
	for name, reason := range jobs.QuarantinedJobs(entries) {
		if strings.HasPrefix(reason, "resource: ") {
			t.Logf("quarantined %s: %s", name, reason)
			resourceRecords++
		}
	}
	if resourceRecords != 1 {
		t.Fatalf("journal holds %d resource quarantine records, want exactly 1", resourceRecords)
	}

	// Restart: a server seeded from the recovered journal answers the
	// replay 422 immediately — the bomb never runs again.
	srv2 := New(Config{
		Pool:        h.pool,
		Spool:       h.spool,
		Quarantined: jobs.QuarantinedJobs(entries),
	})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	r2, err := http.Post(ts2.URL+"/v1/jobs", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("recovered server replay = %d, want 422", r2.StatusCode)
	}
}

func TestStorageDegradedRetryAfterClamped(t *testing.T) {
	// Satellite b: degraded-state hints pass through the clamp. A
	// configured hint above the ceiling must come back clamped.
	poisoned := fmt.Errorf("journal: poisoned by failed fsync")
	h := newHarness(t, jobs.Config{Workers: 1}, Config{
		StorageErr:        func() error { return poisoned },
		StorageRetryAfter: time.Hour,
		MaxRetryAfter:     10 * time.Second,
	})
	resp, httpResp := h.post(t, figure4Body(t), nil)
	if httpResp.StatusCode != http.StatusServiceUnavailable || resp.Reason != RejectStorageDegraded {
		t.Fatalf("storage-degraded = %d %+v", httpResp.StatusCode, resp)
	}
	if resp.RetryAfterSeconds != 10 {
		t.Fatalf("Retry-After = %ds, want clamped to 10", resp.RetryAfterSeconds)
	}
}

package server

import (
	"bytes"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"droidracer/internal/apps"
	"droidracer/internal/core"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/sentinel"
	"droidracer/internal/trace"
)

// table2Body renders the representative trace of a Table 2 app model as
// a submission body, with the digest of its unbudgeted analysis.
func table2Body(t *testing.T, app string) ([]byte, string) {
	t.Helper()
	a, err := apps.New(app)
	if err != nil {
		t.Fatal(err)
	}
	test, err := apps.RepresentativeTest(a)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := trace.Format(&buf, test.Trace); err != nil {
		t.Fatal(err)
	}
	body := []byte(buf.String())
	tr, err := trace.ParseBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatalf("%s reports no races; the digest comparison proves nothing", app)
	}
	return body, jobs.ResultDigest(res)
}

// TestDeadlineTripFailsThenReruns pins the honest end of a budget trip:
// a 1ns client deadline ends the job failed with a wall-clock reason —
// never a cached weaker answer — and the same body without the header
// runs again to the unbudgeted full result.
func TestDeadlineTripFailsThenReruns(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{})
	body, want := table2Body(t, "Music Player")

	resp, httpResp := h.post(t, body, map[string]string{DeadlineHeader: "1ns"})
	if httpResp.StatusCode != 202 {
		t.Fatalf("deadline submit = %d %+v", httpResp.StatusCode, resp)
	}
	failed := h.waitStatus(t, resp.Job, StatusFailed)
	if !strings.Contains(failed.Reason, "wall-clock") {
		t.Fatalf("failed reason = %q, want a wall-clock budget error", failed.Reason)
	}

	resp, httpResp = h.post(t, body, nil)
	if httpResp.StatusCode != 202 || resp.Status != StatusAccepted {
		t.Fatalf("resubmit after failure = %d %+v, want a fresh 202", httpResp.StatusCode, resp)
	}
	done := h.waitStatus(t, resp.Job, StatusDone)
	if done.Mode != "full" || done.Digest != want {
		t.Fatalf("rerun = %+v, want mode full with digest %s", done, want)
	}
}

// TestSweepRetriesOnlyClientDeadlineFailures pins which failed jobs the
// spool sweep claims again: one that failed under a client's tighter
// deadline (the daemon's own budget may suffice), but not one that
// failed under the daemon's budget, which would fail again on every
// poll and append a journal record each time.
func TestSweepRetriesOnlyClientDeadlineFailures(t *testing.T) {
	h := newHarness(t, jobs.Config{Workers: 1}, Config{})
	body := figure4Body(t)
	resp, _ := h.post(t, body, map[string]string{DeadlineHeader: "1ns"})
	h.waitStatus(t, resp.Job, StatusFailed)
	name := jobName(resp.Job)
	if !h.srv.Claim(name) {
		t.Fatal("sweep did not reclaim a job that failed under a client deadline")
	}

	// The sweep's own run, under a daemon budget that also trips.
	h.srv.cfg.Analyze.Budget.Wall = time.Nanosecond
	if err := h.pool.Submit(h.srv.SpoolJob(name, filepath.Join(h.spool, name))); err != nil {
		t.Fatal(err)
	}
	h.waitStatus(t, resp.Job, StatusFailed)
	if h.srv.Claim(name) {
		t.Fatal("sweep reclaimed a job that failed under the daemon's own budget")
	}
}

// TestDegradedJournalRecordNotReplayed pins that a "degraded" record
// from an earlier version (its races came from the pure-MT fallback) is
// not a completion: a server recovered from that journal analyzes the
// body afresh instead of replaying the old answer.
func TestDegradedJournalRecordNotReplayed(t *testing.T) {
	body := figure4Body(t)
	name := jobName(IdempotencyKey(body))
	jpath := filepath.Join(t.TempDir(), "old.journal")
	w, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("job", jobs.JobEntry{Name: name, Mode: "degraded", Races: 669, Digest: "79ea5225e60be685"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := journal.Recover(jpath)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, jobs.Config{Workers: 1}, Config{Completed: jobs.CompletedRecords(entries)})

	resp, httpResp := h.post(t, body, nil)
	if httpResp.StatusCode != 202 || resp.Status != StatusAccepted {
		t.Fatalf("submit over a degraded record = %d %+v, want a fresh 202", httpResp.StatusCode, resp)
	}
	done := h.waitStatus(t, resp.Job, StatusDone)
	if done.Mode != "full" || done.Digest == "79ea5225e60be685" {
		t.Fatalf("result = %+v, want a fresh full analysis", done)
	}
}

// TestIsolatedDeadlineTripFails pins that a heavy job's deadline crosses
// the process boundary untruncated and its trip comes back as a budget
// failure: failed, not quarantined, and not silently unlimited.
func TestIsolatedDeadlineTripFails(t *testing.T) {
	qdir := t.TempDir()
	var events bytes.Buffer
	iso := testIsolator()
	iso.Events = slog.New(slog.NewJSONHandler(&events, nil))
	h := newHarness(t,
		jobs.Config{Workers: 1, Quarantine: &jobs.Quarantine{Dir: qdir}},
		Config{Cost: sentinel.CostLimits{Soft: 1 << 20}, Isolator: iso})
	body := sentinel.WideClockBody(200, 800)

	resp, httpResp := h.post(t, body, map[string]string{DeadlineHeader: "1ns"})
	if httpResp.StatusCode != 202 {
		t.Fatalf("heavy submit = %d %+v", httpResp.StatusCode, resp)
	}
	failed := h.waitStatus(t, resp.Job, StatusFailed)
	if !strings.Contains(failed.Reason, "wall-clock") {
		t.Fatalf("failed reason = %q, want a wall-clock budget error", failed.Reason)
	}
	h.pool.Quiesce()
	if !strings.Contains(events.String(), `"msg":"sentinel.isolated"`) {
		t.Fatalf("the job did not run in the isolated worker; events:\n%s", events.String())
	}
	h.w.Sync()
	entries, err := journal.Recover(h.jpath)
	if err != nil {
		t.Fatal(err)
	}
	if q := jobs.QuarantinedJobs(entries); len(q) != 0 {
		t.Fatalf("deadline trip quarantined the input: %v", q)
	}
}

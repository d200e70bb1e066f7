package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"droidracer/internal/flood"
	"droidracer/internal/obs"
	"droidracer/internal/server"
)

// TestGatewayPollEndsFailedOnDeadlineTrip pins the fleet view of a
// budget trip: the poll through the gateway ends failed with the
// wall-clock reason instead of answering pending forever, the failure
// is not cached, and a resubmission without the deadline runs the job
// to a full result.
func TestGatewayPollEndsFailedOnDeadlineTrip(t *testing.T) {
	b := startBackend(t, t.TempDir())
	g, err := New(Config{Backends: []string{b.url}, Events: obs.Nop()})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range g.backends {
		st.live.Store(true)
	}
	corpus, err := flood.BuildCorpus([]string{"Music Player"}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	body := corpus[0]
	key := server.IdempotencyKey(body)

	submit := func(deadline string) (*server.SubmitResponse, int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		if deadline != "" {
			req.Header.Set(server.DeadlineHeader, deadline)
		}
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		var resp server.SubmitResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatalf("decoding submit response (%d): %v", rec.Code, err)
		}
		return &resp, rec.Code
	}
	poll := func(want string) *server.SubmitResponse {
		t.Helper()
		var last server.SubmitResponse
		for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+key, nil))
			last = server.SubmitResponse{}
			if err := json.NewDecoder(rec.Body).Decode(&last); err != nil {
				t.Fatal(err)
			}
			if last.Status == want {
				return &last
			}
		}
		t.Fatalf("poll never reached %q; last answer %+v", want, last)
		return nil
	}

	if resp, code := submit("1ns"); code != http.StatusAccepted {
		t.Fatalf("deadline submit = %d %+v", code, resp)
	}
	failed := poll(server.StatusFailed)
	if !strings.Contains(failed.Reason, "wall-clock") {
		t.Fatalf("failed reason = %q, want a wall-clock budget error", failed.Reason)
	}
	if _, ok := g.pendingFor(key); ok {
		t.Fatal("failed job still pending in the gateway")
	}
	if _, ok := g.cache.get(key); ok {
		t.Fatal("failed answer was cached")
	}

	resp, code := submit("")
	if code != http.StatusAccepted || resp.Status != server.StatusAccepted {
		t.Fatalf("resubmit after failure = %d %+v, want a fresh 202", code, resp)
	}
	if done := poll(server.StatusDone); done.Mode != "full" {
		t.Fatalf("rerun = %+v, want mode full", done)
	}
}

package gateway

// Trace-propagation chaos tests: a client's traceparent must survive a
// gateway failover — dead home backend, second forward to the peer —
// and a duplicate submission carrying a different traceparent, ending
// up as the trace_id on the one journal record the fleet writes.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"droidracer/internal/core"
	"droidracer/internal/flood"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/obs"
	"droidracer/internal/report"
	"droidracer/internal/server"
)

// inProcessBackend is a miniature racedetd running inside the test
// process: real journal, pool, and ingestion server, so its spans land
// in the process span store and its journal can be read after the job
// finishes.
type inProcessBackend struct {
	dir  string
	pool *jobs.Pool
	srv  *server.Server
	http *http.Server
	url  string
}

func startBackend(t *testing.T, dir string) *inProcessBackend {
	t.Helper()
	spool := filepath.Join(dir, "spool")
	state := filepath.Join(dir, "state")
	for _, d := range []string{spool, state} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	w, err := journal.Create(filepath.Join(state, "daemon.journal"))
	if err != nil {
		t.Fatal(err)
	}
	b := &inProcessBackend{dir: dir}
	b.pool = jobs.NewPool(jobs.Config{
		Workers:    1,
		QueueDepth: 16,
		Journal:    w,
		Quarantine: &jobs.Quarantine{Dir: filepath.Join(state, "quarantine")},
		OnFinish: func(out report.Outcome) {
			if s := b.srv; s != nil {
				s.JobFinished(out)
			}
		},
	})
	b.srv = server.New(server.Config{
		Pool:        b.pool,
		Spool:       spool,
		Analyze:     core.DefaultOptions(),
		Workers:     1,
		Events:      obs.Nop(),
		Rate:        10000,
		Burst:       10000,
		MaxInflight: 256,
	})
	srv, addr, err := b.srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.http, b.url = srv, "http://"+addr
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		b.pool.Shutdown(ctx)
	})
	return b
}

// journalTraceID returns the trace_id of the single "job" journal
// record for name on this backend, failing on zero or multiple records.
func (b *inProcessBackend) journalTraceID(t *testing.T, name string) string {
	t.Helper()
	entries, err := journal.Recover(filepath.Join(b.dir, "state", "daemon.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var found []jobs.JobEntry
	for _, e := range entries {
		if e.Type != "job" {
			continue
		}
		var je jobs.JobEntry
		if err := e.Decode(&je); err != nil {
			t.Fatal(err)
		}
		if je.Name == name {
			found = append(found, je)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d journal records for %s, want exactly 1: %+v", len(found), name, found)
	}
	return found[0].TraceID
}

// deadBackend is a backend that passes health probes but kills every
// submission mid-flight: /v1/jobs hijacks the connection and closes it,
// which the gateway sees as an in-doubt transport error — the precise
// shape of a backend SIGKILLed between spooling and answering.
func deadBackend(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/reconcile", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(server.ReconcileResponse{})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// homedBody returns a corpus body whose consistent-hash home is the
// given backend, so the failover walk deterministically starts at the
// dead one.
func homedBody(t *testing.T, g *Gateway, home string) []byte {
	t.Helper()
	corpus, err := flood.BuildCorpus([]string{"Music Player", "Aard Dictionary"}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range corpus {
		if g.ring.Order(server.IdempotencyKey(body))[0] == home {
			return body
		}
	}
	t.Fatal("no corpus body homes to the dead backend")
	return nil
}

// TestGatewayFailoverTracePropagation drives one traced submission into
// a two-backend fleet whose home backend dies mid-forward, and asserts
// the full tentpole chain: the surviving backend's reply and journal
// record carry the client's original trace ID, and the committed trace
// holds the gateway span, a failed and a successful forward with
// distinct backends, and every analysis-phase span.
func TestGatewayFailoverTracePropagation(t *testing.T) {
	dead := deadBackend(t)
	live := startBackend(t, t.TempDir())

	g, err := New(Config{
		Backends:       []string{dead.URL, live.url},
		ProbeInterval:  20 * time.Millisecond,
		ProbeTimeout:   2 * time.Second,
		EjectThreshold: 100, // keep the dead backend in routing: every walk must hit it first
		Seed:           1,
		Events:         obs.Nop(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.StartProbing(ctx)
	waitLive(t, g, 2, "startup")

	body := homedBody(t, g, dead.URL)
	key := server.IdempotencyKey(body)

	// The client side: mint a traceparent exactly as `racedet -submit`
	// does and send it with the submission.
	sc := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	rw := httptest.NewRecorder()
	g.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusAccepted {
		t.Fatalf("failover submit = %d, want 202\n%s", rw.Code, rw.Body.String())
	}
	var resp server.SubmitResponse
	if err := json.NewDecoder(rw.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Job != key {
		t.Fatalf("job %s, want %s", resp.Job, key)
	}
	if resp.TraceID != sc.TraceID {
		t.Fatalf("accepted reply trace %q, want the client's %q", resp.TraceID, sc.TraceID)
	}

	// Wait for the analysis to finish so the phase spans commit and the
	// journal record lands.
	name := key + ".trace"
	deadline := time.Now().Add(30 * time.Second)
	cl := server.Client{BaseURL: live.url}
	for {
		st, err := cl.Status(ctx, key)
		if err == nil && st.Status == server.StatusDone {
			if st.TraceID != sc.TraceID {
				t.Fatalf("done status trace %q, want %q", st.TraceID, sc.TraceID)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failed-over job never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The journal record on the surviving backend names the client's
	// trace.
	if got := live.journalTraceID(t, name); got != sc.TraceID {
		t.Fatalf("journal trace_id %q, want the client's %q", got, sc.TraceID)
	}

	// The committed trace (gateway and backend share this process's span
	// store) holds the whole story.
	spans := obs.Traces().Trace(sc.TraceID)
	if spans == nil {
		t.Fatal("trace not committed to the span store")
	}
	var sawGateway, sawServer, sawFailed, sawOK bool
	forwardBackends := make(map[string]bool)
	phases := make(map[string]bool)
	for _, sp := range spans {
		switch sp.Name {
		case "gateway.submit":
			sawGateway = true
		case "server.submit":
			sawServer = true
		case "gateway.forward":
			forwardBackends[sp.Attrs["backend"]] = true
			switch sp.Attrs["outcome"] {
			case "failed":
				sawFailed = true
				if sp.Err == "" {
					t.Error("failed forward span has no error")
				}
			case "ok":
				sawOK = true
			}
		}
		if len(sp.Name) > 6 && sp.Name[:6] == "phase." {
			phases[sp.Name] = true
		}
	}
	if !sawGateway || !sawServer {
		t.Fatalf("missing gateway.submit/server.submit spans: %+v", spanNames(spans))
	}
	if !sawFailed || !sawOK || len(forwardBackends) != 2 {
		t.Fatalf("want one failed and one ok forward across 2 backends, got %+v", spanNames(spans))
	}
	for _, want := range []string{"phase.parse", "phase.validate", "phase.annotate", "phase.stream-replay"} {
		if !phases[want] {
			t.Errorf("missing %s span; phases seen: %v", want, phases)
		}
	}
}

// TestDuplicateCoalescingKeepsOriginalTrace holds a single-worker pool
// busy, submits a job under trace A, then the same body under trace B:
// the duplicate coalesces onto the in-flight work and the journal
// record keeps A — the trace that actually analyzed the input.
func TestDuplicateCoalescingKeepsOriginalTrace(t *testing.T) {
	b := startBackend(t, t.TempDir())

	corpus, err := flood.BuildCorpus([]string{"Music Player"}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	body := corpus[0]
	key := server.IdempotencyKey(body)

	scA := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	scB := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}

	submit := func(sc obs.SpanContext) *server.SubmitResponse {
		req, err := http.NewRequest(http.MethodPost, b.url+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
		httpResp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		var resp server.SubmitResponse
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}

	first := submit(scA)
	if first.TraceID != scA.TraceID {
		t.Fatalf("first submission trace %q, want %q", first.TraceID, scA.TraceID)
	}
	// Whether the duplicate coalesces onto pending work or replays a
	// just-finished result, the answer must name trace A — the analysis
	// that owns the journal record — never B.
	second := submit(scB)
	if second.TraceID != scA.TraceID {
		t.Fatalf("duplicate submission trace %q, want the original %q (status %s)",
			second.TraceID, scA.TraceID, second.Status)
	}

	deadline := time.Now().Add(30 * time.Second)
	cl := server.Client{BaseURL: b.url}
	for {
		st, err := cl.Status(context.Background(), key)
		if err == nil && st.Status == server.StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := b.journalTraceID(t, key+".trace"); got != scA.TraceID {
		t.Fatalf("journal trace_id %q, want the original submission's %q", got, scA.TraceID)
	}
}

// spanNames summarizes spans for failure messages.
func spanNames(spans []obs.TraceSpan) []string {
	out := make([]string, 0, len(spans))
	for _, sp := range spans {
		n := sp.Name
		if b := sp.Attrs["backend"]; b != "" {
			n += "(" + b + " " + sp.Attrs["outcome"] + ")"
		}
		out = append(out, n)
	}
	return out
}

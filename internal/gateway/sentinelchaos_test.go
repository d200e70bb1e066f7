package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"droidracer/internal/core"
	"droidracer/internal/faultinject"
	"droidracer/internal/flood"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/obs"
	"droidracer/internal/report"
	"droidracer/internal/sentinel"
	"droidracer/internal/server"
)

// sentinelBackendEnv marks the re-exec'd resource-governed backend of
// the sentinel fleet chaos test; its value is the backend's root dir.
const sentinelBackendEnv = "DROIDRACER_GW_SENTINEL_BACKEND"

// sentinelWorkerMarker marks the isolated worker subprocess those
// backends re-exec for heavy inputs.
const sentinelWorkerMarker = "DROIDRACER_GW_SENTINEL_WORKER"

// sentinelWorkerMem is the worker sandbox budget in the chaos test,
// deliberately far below what a bomb's clock snapshots need.
const sentinelWorkerMem = 64 << 20

// TestSentinelWorkerHelper is the isolated worker subprocess of the
// sentinel chaos test — racedetd -worker in test-binary clothing.
func TestSentinelWorkerHelper(t *testing.T) {
	if os.Getenv(sentinelWorkerMarker) != "1" {
		t.Skip("helper subprocess only")
	}
	os.Exit(sentinel.WorkerMain())
}

// TestSentinelBackendProcess is the subprocess body of the sentinel
// fleet chaos test: the TestGatewayBackendProcess miniature racedetd
// plus full resource governance — cost admission, worker isolation for
// heavy inputs, a fast-sampling brownout sentinel, and a debug listener
// so the parent can scrape droidracer_sentinel_* series.
func TestSentinelBackendProcess(t *testing.T) {
	dir := os.Getenv(sentinelBackendEnv)
	if dir == "" {
		t.Skip("helper subprocess only")
	}
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "sentinel backend helper:", err)
		os.Exit(1)
	}
	spool := filepath.Join(dir, "spool")
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(spool, 0o777); err != nil {
		die(err)
	}
	if err := os.MkdirAll(state, 0o777); err != nil {
		die(err)
	}
	jpath := filepath.Join(state, "daemon.journal")
	entries, err := journal.Recover(jpath)
	if err != nil {
		die(err)
	}
	w, err := journal.Create(jpath)
	if err != nil {
		die(err)
	}
	events := obs.NewEventLog(os.Stderr, filepath.Base(dir))
	// The watermark is far above anything this backend's own heap
	// reaches; only the DROIDRACER_SENTINEL_FAULT brownout window (armed
	// per backend by the parent) trips it, on a fast sampling interval so
	// the forced window opens and closes within the test's patience.
	snt := sentinel.New(sentinel.Config{
		Watermark: 8 << 30,
		Interval:  25 * time.Millisecond,
		Events:    events,
	})
	snt.Start()
	defer snt.Stop()
	var srv *server.Server
	pool := jobs.NewPool(jobs.Config{
		Workers:    1,
		QueueDepth: 16,
		Journal:    w,
		Quarantine: &jobs.Quarantine{Dir: filepath.Join(state, "quarantine")},
		OnFinish: func(out report.Outcome) {
			if s := srv; s != nil {
				s.JobFinished(out)
			}
		},
	})
	srv = server.New(server.Config{
		Pool:        pool,
		Spool:       spool,
		Analyze:     core.DefaultOptions(),
		Workers:     1,
		Events:      events,
		Rate:        10000,
		Burst:       10000,
		MaxInflight: 256,
		StorageErr:  w.Err,
		Completed:   jobs.CompletedRecords(entries),
		Quarantined: jobs.QuarantinedJobs(entries),
		Sentinel:    snt,
		// Soft ceiling only: bombs are flagged heavy and ACCEPTED — the
		// sandbox, not the front door, is what must absorb them.
		Cost: sentinel.CostLimits{Soft: sentinelWorkerMem},
		Isolator: &sentinel.Isolator{
			Exe:      os.Args[0],
			Args:     []string{"-test.run=^TestSentinelWorkerHelper$", "-test.v"},
			Env:      []string{sentinelWorkerMarker + "=1"},
			MemLimit: sentinelWorkerMem,
			Wall:     time.Minute,
			Events:   events,
		},
	})
	if _, mbound, err := obs.ServeDebug("127.0.0.1:0", obs.Default()); err == nil {
		if err := os.WriteFile(filepath.Join(dir, "metrics"), []byte(mbound), 0o666); err != nil {
			die(err)
		}
	}
	addrPath := filepath.Join(dir, "addr")
	listen := "127.0.0.1:0"
	if b, rerr := os.ReadFile(addrPath); rerr == nil && len(b) > 0 {
		listen = string(b)
	}
	var bound string
	bindDeadline := time.Now().Add(10 * time.Second)
	for {
		_, bound, err = srv.Serve(listen)
		if err == nil {
			break
		}
		if time.Now().After(bindDeadline) {
			die(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := os.WriteFile(addrPath+".tmp", []byte(bound), 0o666); err != nil {
		die(err)
	}
	if err := os.Rename(addrPath+".tmp", addrPath); err != nil {
		die(err)
	}
	for {
		if srv.SweepReady() {
			if ents, err := os.ReadDir(spool); err == nil {
				for _, e := range ents {
					if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
						continue
					}
					if !srv.Claim(e.Name()) {
						continue
					}
					// The governed sweep path: a swept bomb runs isolated,
					// exactly like an HTTP-admitted one.
					job := srv.SpoolJob(e.Name(), filepath.Join(spool, e.Name()))
					if err := pool.Submit(job); err != nil {
						srv.Release(e.Name())
					}
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// sentinelBackendCmd re-execs the test binary as a resource-governed
// backend over dir, stripping every chaos variable from the parent.
func sentinelBackendCmd(t *testing.T, dir string, extraEnv ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSentinelBackendProcess$", "-test.v")
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, faultinject.EnvKillpoint+"=") ||
			strings.HasPrefix(kv, faultinject.EnvStorageFault+"=") ||
			strings.HasPrefix(kv, sentinel.EnvSentinelFault+"=") ||
			strings.HasPrefix(kv, backendHelperEnv+"=") ||
			strings.HasPrefix(kv, backendGraceEnv+"=") ||
			strings.HasPrefix(kv, sentinelBackendEnv+"=") {
			continue
		}
		cmd.Env = append(cmd.Env, kv)
	}
	cmd.Env = append(cmd.Env, sentinelBackendEnv+"="+dir)
	cmd.Env = append(cmd.Env, extraEnv...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	return cmd, &out
}

// TestSentinelFleetChaos is the resource-governance fleet proof: memory
// bombs mixed into normal traffic through the gateway cost the fleet
// exactly one "resource" quarantine record each and zero daemon deaths;
// every normal key still converges with the digest an independent local
// analysis produces; and a browned-out backend is routed around and
// reinstated like any other degraded one.
func TestSentinelFleetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	root := t.TempDir()
	const nBackends = 3
	dirs := make([]string, nBackends)
	cmds := make([]*exec.Cmd, nBackends)
	logs := make([]*bytes.Buffer, nBackends)
	addrs := make([]string, nBackends)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("b%d", i))
		if err := os.MkdirAll(dirs[i], 0o777); err != nil {
			t.Fatal(err)
		}
		cmds[i], logs[i] = sentinelBackendCmd(t, dirs[i])
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
		addrs[i] = "http://" + waitBackendAddr(t, dirs[i], logs[i])
	}
	defer func() {
		for _, c := range cmds {
			if c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	}()

	gwLog := &syncBuffer{}
	g, err := New(Config{
		Backends:       addrs,
		ProbeInterval:  50 * time.Millisecond,
		ProbeTimeout:   2 * time.Second,
		EjectThreshold: 2,
		RetryAfter:     5 * time.Second,
		Seed:           1,
		Events:         obs.NewEventLog(gwLog, "gw"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.StartProbing(ctx)
	waitLive(t, g, nBackends, "startup")
	gwSrv, gwAddr, err := g.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gwSrv.Close()
	gwURL := "http://" + gwAddr

	corpus, err := flood.BuildCorpus([]string{"Music Player", "Aard Dictionary"}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	keyToBody := make(map[string][]byte, len(corpus))
	for _, b := range corpus {
		keyToBody[server.IdempotencyKey(b)] = b
	}
	bombs := [][]byte{sentinel.WideClockBody(1500, 8000), sentinel.WideClockBody(1500, 8500)}
	bombKeys := make([]string, len(bombs))
	for i, b := range bombs {
		bombKeys[i] = server.IdempotencyKey(b)
	}

	// Flood normal traffic; mid-flood, lob the bombs in through the same
	// front door.
	floodDone := make(chan struct {
		sum *flood.Summary
		err error
	}, 1)
	go func() {
		sum, err := flood.Run(ctx, flood.Config{
			BaseURL:     gwURL,
			Requests:    30,
			RPS:         100,
			DupRatio:    0.3,
			Corpus:      corpus,
			Seed:        2,
			MaxAttempts: 4,
			Timeout:     20 * time.Second,
		})
		floodDone <- struct {
			sum *flood.Summary
			err error
		}{sum, err}
	}()
	time.Sleep(100 * time.Millisecond)
	for i, bomb := range bombs {
		r, err := http.Post(gwURL+"/v1/jobs", "text/plain", bytes.NewReader(bomb))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		// The soft ceiling flags bombs heavy but ACCEPTS them: absorbing
		// the hit in the sandbox, not refusing, is what this test proves.
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("bomb %d = %d, want 202", i, r.StatusCode)
		}
	}
	res := <-floodDone
	if res.err != nil {
		t.Fatalf("flood: %v", res.err)
	}
	sum := res.sum
	if len(sum.AcceptedKeys) == 0 {
		t.Fatalf("flood accepted nothing: %+v", sum)
	}

	// Every normal key converges to done; every bomb to quarantined with
	// a resource reason — all through the gateway.
	cl := &server.Client{BaseURL: gwURL}
	pollCtx, pollCancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer pollCancel()
	for _, key := range sum.AcceptedKeys {
		for {
			resp, err := cl.Status(pollCtx, key)
			if err == nil && resp.Status == server.StatusDone {
				break
			}
			if err == nil && resp.Status == server.StatusQuarantined {
				t.Fatalf("normal key %s quarantined (%s)", key, resp.Reason)
			}
			if pollCtx.Err() != nil {
				t.Fatalf("key %s never completed\ngateway:\n%s", key, gwLog.String())
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	for i, key := range bombKeys {
		for {
			resp, err := cl.Status(pollCtx, key)
			if err == nil && resp.Status == server.StatusQuarantined {
				if !strings.HasPrefix(resp.Reason, "resource: ") {
					t.Fatalf("bomb %d quarantine reason = %q, want a resource: prefix", i, resp.Reason)
				}
				break
			}
			if err == nil && resp.Status == server.StatusDone {
				t.Fatalf("bomb %d completed?! a %d-byte worker sandbox absorbed ~900MB of clock snapshots", i, sentinelWorkerMem)
			}
			if pollCtx.Err() != nil {
				t.Fatalf("bomb %d never quarantined\ngateway:\n%s", i, gwLog.String())
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	// Zero daemon deaths: every backend still answers liveness on its
	// original address after digesting the bombs.
	for i, addr := range addrs {
		hr, err := http.Get(addr + "/healthz")
		if err != nil {
			t.Fatalf("backend %d dead after the bombs: %v\n%s", i, err, logs[i].String())
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("backend %d healthz = %d after the bombs", i, hr.StatusCode)
		}
	}

	// The sentinel series are scrapeable, and some backend counted an
	// isolated execution.
	sawIsolated := false
	for i, dir := range dirs {
		maddr, err := os.ReadFile(filepath.Join(dir, "metrics"))
		if err != nil {
			t.Fatalf("backend %d published no metrics address: %v", i, err)
		}
		mr, err := http.Get("http://" + string(maddr) + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		scrape, _ := io.ReadAll(mr.Body)
		mr.Body.Close()
		if !bytes.Contains(scrape, []byte("droidracer_sentinel_mem_bytes")) ||
			!bytes.Contains(scrape, []byte("droidracer_sentinel_estimates_total")) {
			t.Fatalf("backend %d scrape lacks sentinel series", i)
		}
		for _, line := range strings.Split(string(scrape), "\n") {
			if strings.HasPrefix(line, "droidracer_sentinel_isolated_total") &&
				!strings.HasSuffix(strings.TrimSpace(line), " 0") {
				sawIsolated = true
			}
		}
	}
	if !sawIsolated {
		t.Fatal("no backend counted an isolated worker execution")
	}

	// Brownout routing: restart backend 0 with a forced brownout window.
	// Its /readyz must report "resource", the prober must route around
	// it, and — once the window passes — reinstate it.
	cmds[0].Process.Kill()
	cmds[0].Wait()
	waitLive(t, g, nBackends-1, "after brownout kill")
	cmds[0], logs[0] = sentinelBackendCmd(t, dirs[0],
		sentinel.EnvSentinelFault+"=brownout:1-120") // 120 samples x 25ms = a ~3s window
	if err := cmds[0].Start(); err != nil {
		t.Fatal(err)
	}
	waitBackendAddr(t, dirs[0], logs[0])
	readyzDeadline := time.Now().Add(15 * time.Second)
	for {
		rz, err := http.Get(addrs[0] + "/readyz")
		if err == nil {
			cond, _ := io.ReadAll(rz.Body)
			rz.Body.Close()
			if rz.StatusCode == http.StatusServiceUnavailable && strings.TrimSpace(string(cond)) == "resource" {
				break
			}
		}
		if time.Now().After(readyzDeadline) {
			t.Fatalf("backend 0 never reported resource-degraded readiness\n%s", logs[0].String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := len(g.LiveBackends()); n != nBackends-1 {
		t.Fatalf("browned-out backend still routed to: live=%d", n)
	}
	// The forced window expires; the sampler recovers; the prober
	// reinstates the backend without a restart.
	waitLive(t, g, nBackends, "after brownout recovery")

	// The convergence proof over the journals: exactly one record per
	// normal key with the independent digest, exactly one resource
	// quarantine record per bomb, fleet-wide.
	for _, c := range cmds {
		c.Process.Kill()
		c.Wait()
	}
	records := fleetRecords(t, dirs)
	for _, key := range sum.AcceptedKeys {
		name := key + ".trace"
		recs := records[name]
		if len(recs) != 1 {
			t.Errorf("key %s: %d journal records across the fleet, want exactly 1: %+v", key, len(recs), recs)
			continue
		}
		if want := localDigest(t, keyToBody[key]); recs[0].Digest != want {
			t.Errorf("key %s: fleet digest %q != local digest %q", key, recs[0].Digest, want)
		}
	}
	quarantines := make(map[string][]string) // name -> reasons across the fleet
	for _, dir := range dirs {
		entries, err := journal.Recover(filepath.Join(dir, "state", "daemon.journal"))
		if err != nil {
			t.Fatal(err)
		}
		for name, reason := range jobs.QuarantinedJobs(entries) {
			quarantines[name] = append(quarantines[name], reason)
		}
	}
	for i, key := range bombKeys {
		reasons := quarantines[key+".trace"]
		if len(reasons) != 1 {
			t.Errorf("bomb %d: %d quarantine records across the fleet, want exactly 1: %v", i, len(reasons), reasons)
			continue
		}
		if !strings.HasPrefix(reasons[0], "resource: ") {
			t.Errorf("bomb %d: quarantine reason %q lacks the resource prefix", i, reasons[0])
		}
	}
	if t.Failed() {
		t.Logf("gateway:\n%s", gwLog.String())
		for i, l := range logs {
			t.Logf("b%d:\n%s", i, l.String())
		}
	}
}

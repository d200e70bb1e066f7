package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"droidracer/internal/faultinject"
	"droidracer/internal/flood"
	"droidracer/internal/journal"
	"droidracer/internal/obs"
	"droidracer/internal/server"
)

// startFleet boots n backend subprocesses (extraEnv[i] applies to
// backend i) and a probing gateway over them, returning everything the
// storage chaos tests drive.
func startFleet(t *testing.T, n int, extraEnv [][]string, eject int) (dirs []string, cmds []*execCmd, addrs []string, g *Gateway, gwURL string, gwLog *syncBuffer) {
	t.Helper()
	root := t.TempDir()
	dirs = make([]string, n)
	cmds = make([]*execCmd, n)
	addrs = make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("b%d", i))
		if err := os.MkdirAll(dirs[i], 0o777); err != nil {
			t.Fatal(err)
		}
		cmd, log := backendCmd(t, dirs[i], "2s", false, extraEnv[i]...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[i] = &execCmd{Cmd: cmd, log: log}
		addrs[i] = "http://" + waitBackendAddr(t, dirs[i], log)
	}
	t.Cleanup(func() {
		for _, c := range cmds {
			if c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	})
	gwLog = &syncBuffer{}
	g, err := New(Config{
		Backends:       addrs,
		ProbeInterval:  50 * time.Millisecond,
		ProbeTimeout:   2 * time.Second,
		EjectThreshold: eject,
		RetryAfter:     5 * time.Second,
		Seed:           1,
		Events:         obs.NewEventLog(gwLog, "gw"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	g.StartProbing(ctx)
	waitLive(t, g, n, "startup")
	gwSrv, gwAddr, err := g.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gwSrv.Close() })
	return dirs, cmds, addrs, g, "http://" + gwAddr, gwLog
}

// execCmd pairs a backend subprocess with its captured log.
type execCmd struct {
	*exec.Cmd
	log *bytes.Buffer
}

// TestGatewayFleetBitFlipChaos is the bit-flip acceptance proof: one
// backend of a three-backend fleet flips a bit on every spool read.
// Flooding the fleet through the gateway, every answer must be either
// digest-correct (verified against an independent in-process analysis)
// or an explicit corruption quarantine — zero silently wrong results —
// and the journal audit must show a correct completion record for every
// done key and no completion record at all for a quarantined one.
func TestGatewayFleetBitFlipChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	const flipped = 2
	env := [][]string{nil, nil, {faultinject.EnvStorageFault + "=spool.read:flip:1"}}
	dirs, _, addrs, g, gwURL, gwLog := startFleet(t, 3, env, 2)

	// The ring places keys by the backends' random ports, so the 12
	// flooded bodies are picked from a larger pool by their home
	// backend: at least 3 home on the flipped backend and at least 3 on
	// healthy ones, whatever ports the fleet drew.
	pool, err := flood.BuildCorpus([]string{"Music Player", "Aard Dictionary", "Messenger"}, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	var corpus [][]byte
	onFlipped := 0
	for _, b := range pool {
		home := g.ring.Order(server.IdempotencyKey(b))[0]
		switch {
		case len(corpus) == 12:
		case home == addrs[flipped] && onFlipped < 6:
			corpus = append(corpus, b)
			onFlipped++
		case home != addrs[flipped] && len(corpus)-onFlipped < 9:
			corpus = append(corpus, b)
		}
	}
	if len(corpus) != 12 || onFlipped < 3 || len(corpus)-onFlipped < 3 {
		t.Fatalf("48-body pool yielded %d bodies, %d homed on the flipped backend; want 12 with at least 3 on each side",
			len(corpus), onFlipped)
	}
	keyToBody := make(map[string][]byte, len(corpus))
	for _, b := range corpus {
		keyToBody[server.IdempotencyKey(b)] = b
	}
	sum, err := flood.Run(context.Background(), flood.Config{
		BaseURL:     gwURL,
		Requests:    len(corpus),
		Corpus:      corpus,
		Seed:        2,
		MaxAttempts: 4,
		Timeout:     20 * time.Second,
	})
	if err != nil {
		t.Fatalf("flood: %v", err)
	}
	if len(sum.AcceptedKeys) == 0 {
		t.Fatalf("flood accepted nothing: %+v", sum)
	}

	// Every accepted key terminates as digest-correct done or an explicit
	// corruption quarantine; which one is dictated by its home backend.
	cl := &server.Client{BaseURL: gwURL}
	pollCtx, pollCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer pollCancel()
	quarantined := 0
	for _, key := range sum.AcceptedKeys {
		home := g.ring.Order(key)[0]
		var final *server.SubmitResponse
		for {
			resp, err := cl.Status(pollCtx, key)
			if err == nil && (resp.Status == server.StatusDone || resp.Status == server.StatusQuarantined) {
				final = resp
				break
			}
			if pollCtx.Err() != nil {
				t.Fatalf("key %s never terminated\ngateway:\n%s", key, gwLog.String())
			}
			time.Sleep(25 * time.Millisecond)
		}
		switch final.Status {
		case server.StatusDone:
			if want := localDigest(t, keyToBody[key]); final.Digest != want {
				t.Errorf("key %s (home %s): silently wrong answer — digest %q != local %q",
					key, home, final.Digest, want)
			}
		case server.StatusQuarantined:
			quarantined++
			if !containsCorrupt(final.Reason) {
				t.Errorf("key %s quarantined without an explicit corruption reason: %q", key, final.Reason)
			}
			if home != addrs[flipped] {
				t.Errorf("key %s quarantined on a healthy backend (home %s)", key, home)
			}
		}
	}
	// The flipped backend detected — not served — its rot: every key it
	// homed is an explicit quarantine.
	flippedKeys := 0
	for _, key := range sum.AcceptedKeys {
		if g.ring.Order(key)[0] == addrs[flipped] {
			flippedKeys++
		}
	}
	if flippedKeys == 0 {
		t.Fatalf("seed routed no keys to the flipped backend; pick a different corpus seed")
	}
	if quarantined != flippedKeys {
		t.Errorf("flipped backend homed %d keys but %d quarantined", flippedKeys, quarantined)
	}

	// Journal audit: a correct completion record for every done key,
	// and no completion record claiming success for a quarantined one.
	records := fleetRecords(t, dirs)
	for _, key := range sum.AcceptedKeys {
		name := key + ".trace"
		recs := records[name]
		if g.ring.Order(key)[0] == addrs[flipped] {
			if len(recs) != 0 {
				t.Errorf("quarantined key %s has %d completion records: %+v", key, len(recs), recs)
			}
			continue
		}
		if len(recs) != 1 {
			t.Errorf("key %s: %d completion records across the fleet, want 1: %+v", key, len(recs), recs)
			continue
		}
		if want := localDigest(t, keyToBody[key]); recs[0].Digest != want {
			t.Errorf("key %s: journaled digest %q != local digest %q", key, recs[0].Digest, want)
		}
	}
	if t.Failed() {
		t.Logf("gateway:\n%s", gwLog.String())
	}
}

// containsCorrupt reports whether a quarantine reason names corruption.
func containsCorrupt(reason string) bool {
	return bytes.Contains([]byte(reason), []byte("corrupt"))
}

// TestGatewayRoutesAroundStorageDegraded is the fleet half of the
// ENOSPC proof: a backend whose journal device fills poisons itself and
// flips /readyz to 503, the gateway ejects it and fails fresh work over
// to the healthy peer, and a restart with space available reinstates it
// with an intact journal and restored acceptance.
func TestGatewayRoutesAroundStorageDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	// b0's journal fsync returns ENOSPC from hit 2 onward: Create's
	// truncation sync passes, the first completion record's Sync poisons.
	env := [][]string{{faultinject.EnvStorageFault + "=journal.sync:enospc:2"}, nil}
	dirs, cmds, addrs, g, gwURL, gwLog := startFleet(t, 2, env, 1)

	corpus, err := flood.BuildCorpus([]string{"Music Player", "Aard Dictionary", "Messenger"}, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	var homed [][]byte
	for _, b := range corpus {
		if g.ring.Order(server.IdempotencyKey(b))[0] == addrs[0] {
			homed = append(homed, b)
		}
	}
	if len(homed) < 3 {
		t.Fatalf("only %d corpus bodies home to b0; enlarge the corpus", len(homed))
	}
	trigger, failover, restored := homed[0], homed[1], homed[2]

	// The trigger lands on b0, completes in memory, and its completion
	// record's fsync poisons the journal.
	cl := &server.Client{BaseURL: gwURL, BaseBackoff: 10 * time.Millisecond, MaxAttempts: 6, Seed: 5}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, _, err := cl.Submit(ctx, trigger); err != nil {
		t.Fatalf("trigger submission: %v\ngw:\n%s", err, gwLog.String())
	}
	waitDone(t, ctx, cl, server.IdempotencyKey(trigger), gwLog)

	// The poisoned backend fails its readiness probes; the gateway ejects
	// it and routes fresh work to the survivor.
	waitLive(t, g, 1, "after poison")
	resp, code := submitRaw(t, gwURL, failover)
	if code != http.StatusAccepted {
		t.Fatalf("failover submit = %d %+v, want 202 from the healthy peer\ngw:\n%s", code, resp, gwLog.String())
	}
	// (The journal audit below proves the work landed on b1 — an ejected
	// home is skipped at ring-walk time, so the failover counter, which
	// tracks mid-forward failures, legitimately stays put.)
	waitDone(t, ctx, cl, server.IdempotencyKey(failover), gwLog)

	// Restart b0 with space available (no fault): the journal recovers
	// intact — degraded, never corrupted — and acceptance is restored.
	cmds[0].Process.Kill()
	cmds[0].Wait()
	jpath := filepath.Join(dirs[0], "state", "daemon.journal")
	if _, stats, err := journal.RecoverStats(jpath); err != nil || stats.Corrupt != 0 {
		t.Fatalf("b0 journal after ENOSPC: corrupt=%d err=%v, want intact", stats.Corrupt, err)
	}
	cmd, log := backendCmd(t, dirs[0], "2s", false)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	cmds[0].Cmd, cmds[0].log = cmd, log
	waitLive(t, g, 2, "after restart")
	resp, code = submitRaw(t, gwURL, restored)
	if code != http.StatusAccepted {
		t.Fatalf("post-restart submit = %d %+v, want acceptance restored\ngw:\n%s", code, resp, gwLog.String())
	}
	waitDone(t, ctx, cl, server.IdempotencyKey(restored), gwLog)

	// The failed-over key lives on the survivor, exactly once, with the
	// independent digest.
	for _, c := range cmds {
		c.Process.Kill()
		c.Wait()
	}
	records := fleetRecords(t, dirs)
	name := server.IdempotencyKey(failover) + ".trace"
	recs := records[name]
	if len(recs) != 1 || recs[0].dir != "b1" {
		t.Fatalf("failover key records = %+v, want exactly one on b1", recs)
	}
	if want := localDigest(t, failover); recs[0].Digest != want {
		t.Fatalf("failover digest %q != local digest %q", recs[0].Digest, want)
	}
	if _, stats, err := journal.RecoverStats(jpath); err != nil || stats.Corrupt != 0 {
		t.Fatalf("b0 journal after recovery: corrupt=%d err=%v", stats.Corrupt, err)
	}
}

// submitRaw posts one body to the gateway without retries.
func submitRaw(t *testing.T, gwURL string, body []byte) (*server.SubmitResponse, int) {
	t.Helper()
	hr, err := http.Post(gwURL+"/v1/jobs", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp server.SubmitResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp, hr.StatusCode
}

// waitDone polls a key through the gateway until it completes.
func waitDone(t *testing.T, ctx context.Context, cl *server.Client, key string, gwLog *syncBuffer) {
	t.Helper()
	for {
		resp, err := cl.Status(ctx, key)
		if err == nil && resp.Status == server.StatusDone {
			return
		}
		if err == nil && resp.Status == server.StatusQuarantined {
			t.Fatalf("key %s quarantined (%s)", key, resp.Reason)
		}
		if ctx.Err() != nil {
			t.Fatalf("key %s never completed\ngw:\n%s", key, gwLog.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

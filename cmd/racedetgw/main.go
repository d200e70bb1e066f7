// Command racedetgw is the fleet front door: a gateway that routes trace
// submissions across N racedetd backends by consistent-hashing the
// content-derived idempotency key, probes backend health and ejects
// failing peers, fails accepted-but-unacknowledged submissions over to
// the next live ring peer (with a reconcile handshake that reclaims
// in-doubt spool orphans on backend recovery), and serves duplicate
// submissions of completed work from a bounded result cache without
// touching any backend.
//
// Usage:
//
//	racedetgw -listen HOST:PORT -backends URL,URL,... [-probe-interval 1s]
//	          [-probe-timeout 1s] [-eject-after 3] [-max-failover N]
//	          [-cache-entries 1024] [-max-body BYTES] [-forward-timeout 30s]
//	          [-retry-after 10s] [-seed N] [-metrics-addr HOST:PORT]
//	          [-events PATH]
//
// The gateway speaks the same /v1/jobs API as racedetd, so clients
// (racedet -submit, racedet -flood) point at it unchanged. /readyz turns
// 503 while draining or while zero backends are live; when the whole
// fleet is down, submissions get an honest 503 with a Retry-After hint
// instead of queueing without bound. SIGINT/SIGTERM drain and exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"droidracer/internal/gateway"
	"droidracer/internal/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7400", "serve the gateway API on this address")
	backends := flag.String("backends", "", "comma-separated racedetd base URLs (required)")
	probeInterval := flag.Duration("probe-interval", time.Second, "health-probe period for live backends")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe request timeout")
	ejectAfter := flag.Int("eject-after", 3, "consecutive probe/forward failures before ejecting a backend")
	maxFailover := flag.Int("max-failover", 0, "max ring peers one submission may walk (0 = all)")
	cacheEntries := flag.Int("cache-entries", 1024, "bounded LRU capacity for terminal results")
	maxBody := flag.Int64("max-body", 8<<20, "largest accepted trace body in bytes")
	forwardTimeout := flag.Duration("forward-timeout", 30*time.Second, "per-forward timeout including retry")
	retryAfter := flag.Duration("retry-after", 10*time.Second, "Retry-After hint when the fleet is unavailable")
	seed := flag.Int64("seed", 0, "jitter seed for probe backoff and forward retries")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof/ on this address (empty = off)")
	eventsPath := flag.String("events", "", "append structured JSONL lifecycle events to this file (empty = off)")
	traceSlow := flag.Duration("trace-slow", time.Second, "tail-capture threshold: unsampled submissions routed slower than this keep their trace in /debug/traces (0 = only failures)")
	eventsMaxBytes := flag.Int64("events-max-bytes", obs.DefaultEventsMaxBytes, "rotate the -events file after this many bytes (kept as <file>.1)")
	flag.Parse()
	obs.SetServiceName("racedetgw")
	if *backends == "" {
		fatal(fmt.Errorf("missing -backends"))
	}
	var fleet []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			fleet = append(fleet, strings.TrimSuffix(b, "/"))
		}
	}

	events := obs.Nop()
	if *eventsPath != "" {
		ef, err := obs.OpenRotatingFile(*eventsPath, *eventsMaxBytes)
		if err != nil {
			fatal(err)
		}
		defer ef.Close()
		events = obs.NewEventLog(ef, obs.NewRunID())
	}

	var debugSrv interface{ Close() error }
	if *metricsAddr != "" {
		srv, bound, err := obs.ServeDebug(*metricsAddr, obs.Default())
		if err != nil {
			fatal(err)
		}
		debugSrv = srv
		fmt.Fprintf(os.Stderr, "racedetgw: debug listener on http://%s/ (metrics, expvar, pprof)\n", bound)
		events.Info("gateway.debug-listener", "addr", bound)
	}

	gw, err := gateway.New(gateway.Config{
		Backends:       fleet,
		MaxBody:        *maxBody,
		CacheEntries:   *cacheEntries,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		EjectThreshold: *ejectAfter,
		MaxFailover:    *maxFailover,
		ForwardTimeout: *forwardTimeout,
		RetryAfter:     *retryAfter,
		Seed:           *seed,
		Events:         events,
		TraceSlow:      *traceSlow,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gw.StartProbing(ctx)

	hs, bound, err := gw.Serve(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "racedetgw: routing %d backend(s) on http://%s/v1/jobs\n", len(fleet), bound)
	events.Info("gateway.start", "addr", bound, "backends", len(fleet))

	<-ctx.Done()
	gw.BeginDrain()
	events.Info("gateway.stop")
	hs.Close()
	if debugSrv != nil {
		debugSrv.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "racedetgw:", err)
	os.Exit(1)
}

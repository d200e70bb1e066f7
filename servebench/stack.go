package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"droidracer/internal/core"
	"droidracer/internal/gateway"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/obs"
	"droidracer/internal/report"
	"droidracer/internal/server"
)

// The flag defaults of cmd/racedetd and cmd/racedetgw, copied by hand:
// when a flag default of either command changes, change it here too.
// Only the analysis engine follows the shipped default by itself (see
// analysisOptions). At the defaults racedetd's resource sentinel is off
// (-mem-watermark 0 makes sentinel.New return nil, and -cost-soft and
// -cost-hard 0 leave admission ungoverned, so no job is ever isolated);
// the backends here therefore run without one.
const (
	daemonWorkers       = 2
	daemonQueue         = 16
	daemonRetries       = 1
	daemonBackoff       = 100 * time.Millisecond
	daemonBreaker       = 3
	daemonMaxBody       = 8 << 20
	daemonRate          = 10
	daemonBurst         = 20
	daemonMaxInflight   = 64
	daemonMaxDeadline   = 2 * time.Minute
	daemonMaxRetryAfter = 5 * time.Minute
	daemonTraceSlow     = time.Second

	gatewayCacheEntries   = 1024
	gatewayProbeInterval  = time.Second
	gatewayProbeTimeout   = time.Second
	gatewayEjectAfter     = 3
	gatewayForwardTimeout = 30 * time.Second
	gatewayRetryAfter     = 10 * time.Second
	gatewayTraceSlow      = time.Second
)

// mirroredConfig lists every mirrored value for the report header.
func mirroredConfig(opts core.Options) string {
	return fmt.Sprintf("racedetd: workers=%d queue=%d deadline=0 retries=%d backoff=%s breaker=%d max-body=%d rate=%d burst=%d "+
		"max-inflight=%d max-deadline=%s max-retry-after=%s trace-slow=%s mem-watermark=0 cost-soft=0 cost-hard=0 "+
		"engine=%s parallelism=%d; "+
		"racedetgw: cache-entries=%d probe-interval=%s probe-timeout=%s eject-after=%d max-failover=0 "+
		"forward-timeout=%s retry-after=%s trace-slow=%s engine=(backend default)",
		daemonWorkers, daemonQueue, daemonRetries, daemonBackoff, daemonBreaker, daemonMaxBody, daemonRate, daemonBurst,
		daemonMaxInflight, daemonMaxDeadline, daemonMaxRetryAfter, daemonTraceSlow, opts.Engine, opts.Parallelism,
		gatewayCacheEntries, gatewayProbeInterval, gatewayProbeTimeout, gatewayEjectAfter,
		gatewayForwardTimeout, gatewayRetryAfter, gatewayTraceSlow)
}

// finish is what a backend pool's OnFinish hook saw for one job: the
// moment its journal record became durable and the answer it recorded.
type finish struct {
	at      time.Time
	backend int
	mode    string
	digest  string
	races   int
	phases  []obs.PhaseTiming
}

// backend is one racedetd composed in-process: pool, journal,
// quarantine and ingestion server on a loopback listener.
type backend struct {
	name string
	addr string
	pool *jobs.Pool
	srv  *server.Server
	hs   *http.Server
	jw   *journal.Writer
}

// stack is the serving path under test: one backend, or a gateway in
// front of several addressed by fixed names.
type stack struct {
	backends []*backend
	gw       *gateway.Gateway
	gwHS     *http.Server
	gwStop   context.CancelFunc
	url      string

	mu       sync.Mutex
	finished map[string]finish
	waiters  map[string]chan struct{}
}

// analysisOptions resolves the options racedetd hands every accepted
// job: core.DefaultOptions, the pool's per-job parallelism, and the
// engine that an empty -engine flag normalizes to.
func analysisOptions(pool *jobs.Pool) (core.Options, error) {
	opts := core.DefaultOptions()
	opts.Parallelism = pool.JobParallelism()
	eng, err := core.NormalizeEngine("")
	if err != nil {
		return opts, err
	}
	opts.Engine = eng
	return opts, nil
}

// startStack composes n backends under dir, with the gateway in front
// when gatewayed. The returned options are the resolved analysis options
// every backend runs with.
func startStack(dir string, n int, gatewayed bool) (*stack, core.Options, error) {
	st := &stack{finished: make(map[string]finish), waiters: make(map[string]chan struct{})}
	var opts core.Options
	for i := 0; i < n; i++ {
		b, o, err := st.startBackend(filepath.Join(dir, fmt.Sprintf("backend-%d", i)), i)
		if err != nil {
			st.stop()
			return nil, opts, err
		}
		st.backends = append(st.backends, b)
		opts = o
	}
	if !gatewayed {
		st.url = "http://" + st.backends[0].addr
		return st, opts, nil
	}
	if err := st.startGateway(); err != nil {
		st.stop()
		return nil, opts, err
	}
	return st, opts, nil
}

func (st *stack) startBackend(dir string, idx int) (*backend, core.Options, error) {
	spool := filepath.Join(dir, "spool")
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(spool, 0o777); err != nil {
		return nil, core.Options{}, err
	}
	jw, err := journal.Create(filepath.Join(state, "daemon.journal"))
	if err != nil {
		return nil, core.Options{}, err
	}
	b := &backend{name: fmt.Sprintf("backend-%d", idx), jw: jw}
	var srv *server.Server
	b.pool = jobs.NewPool(jobs.Config{
		Workers:    daemonWorkers,
		QueueDepth: daemonQueue,
		Retry:      jobs.RetryPolicy{MaxAttempts: 1 + daemonRetries, BaseBackoff: daemonBackoff},
		Breaker:    jobs.BreakerPolicy{Threshold: daemonBreaker},
		Journal:    jw,
		Quarantine: &jobs.Quarantine{Dir: filepath.Join(state, "quarantine")},
		TraceSlow:  daemonTraceSlow,
		OnFinish: func(out report.Outcome) {
			srv.JobFinished(out)
			st.recordFinish(idx, out)
		},
	})
	opts, err := analysisOptions(b.pool)
	if err != nil {
		b.pool.Shutdown(context.Background())
		jw.Close()
		return nil, opts, err
	}
	srv = server.New(server.Config{
		Pool:          b.pool,
		Spool:         spool,
		Analyze:       opts,
		Workers:       daemonWorkers,
		MaxBody:       daemonMaxBody,
		MaxInflight:   daemonMaxInflight,
		Rate:          daemonRate,
		Burst:         daemonBurst,
		MaxDeadline:   daemonMaxDeadline,
		MaxRetryAfter: daemonMaxRetryAfter,
		StorageErr:    jw.Err,
	})
	b.srv = srv
	hs, addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.pool.Shutdown(context.Background())
		jw.Close()
		return nil, opts, err
	}
	b.hs, b.addr = hs, addr
	return b, opts, nil
}

// startGateway puts gateway.New in front of the backends. Backends are
// addressed as http://backend-<i>, resolved to their loopback listeners
// by the gateway's transport, so ring placement depends only on those
// fixed names and never on the ports the listeners happened to get.
func (st *stack) startGateway() error {
	addrs := make(map[string]string, len(st.backends))
	var urls []string
	for _, b := range st.backends {
		addrs[b.name] = b.addr
		urls = append(urls, "http://"+b.name)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, err
		}
		real, ok := addrs[host]
		if !ok {
			return nil, fmt.Errorf("servebench: unknown backend %q", host)
		}
		return dialer.DialContext(ctx, network, real)
	}
	gw, err := gateway.New(gateway.Config{
		Backends:       urls,
		MaxBody:        daemonMaxBody,
		CacheEntries:   gatewayCacheEntries,
		ProbeInterval:  gatewayProbeInterval,
		ProbeTimeout:   gatewayProbeTimeout,
		EjectThreshold: gatewayEjectAfter,
		ForwardTimeout: gatewayForwardTimeout,
		RetryAfter:     gatewayRetryAfter,
		TraceSlow:      gatewayTraceSlow,
		HTTPClient:     &http.Client{Timeout: gatewayForwardTimeout, Transport: tr},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw.StartProbing(ctx)
	st.gw, st.gwStop = gw, cancel
	hs, addr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	st.gwHS, st.url = hs, "http://"+addr
	deadline := time.Now().Add(10 * time.Second)
	for len(gw.LiveBackends()) < len(st.backends) {
		if time.Now().After(deadline) {
			return fmt.Errorf("servebench: gateway sees %d of %d backends live", len(gw.LiveBackends()), len(st.backends))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// recordFinish is the tail of every backend's OnFinish hook: it runs
// after the job's journal record is fsync'd, which is when a durable
// race report exists.
func (st *stack) recordFinish(idx int, out report.Outcome) {
	if out.JobState == report.JobDrained {
		return
	}
	f := finish{at: time.Now(), backend: idx, mode: jobs.OutcomeMode(out)}
	if out.JobState == report.JobQuarantined {
		f.mode = "quarantined"
	}
	if out.Result != nil {
		f.digest = jobs.ResultDigest(out.Result)
		f.races = len(out.Result.Races)
		f.phases = out.Result.Phases
	}
	key := strings.TrimSuffix(out.Name, ".trace")
	st.mu.Lock()
	st.finished[key] = f
	if ch, ok := st.waiters[key]; ok {
		close(ch)
		delete(st.waiters, key)
	}
	st.mu.Unlock()
}

// waiter returns a channel closed once key's job has finished.
func (st *stack) waiter(key string) <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	ch := make(chan struct{})
	if _, done := st.finished[key]; done {
		close(ch)
		return ch
	}
	if prev, ok := st.waiters[key]; ok {
		return prev
	}
	st.waiters[key] = ch
	return ch
}

func (st *stack) finishOf(key string) (finish, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.finished[key]
	return f, ok
}

// shed sums the pools' load-shedding counts.
func (st *stack) shed() int {
	n := 0
	for _, b := range st.backends {
		for _, c := range b.pool.Sheds() {
			n += c
		}
	}
	return n
}

// stop drains and closes everything stackup started: gateway first, then
// each backend the way racedetd shuts down.
func (st *stack) stop() {
	if st.gwStop != nil {
		st.gw.BeginDrain()
		st.gwStop()
	}
	if st.gwHS != nil {
		st.gwHS.Close()
	}
	for _, b := range st.backends {
		b.srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		b.pool.Shutdown(ctx)
		cancel()
		b.hs.Close()
		if err := b.jw.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: closing %s journal: %v\n", b.name, err)
		}
	}
}

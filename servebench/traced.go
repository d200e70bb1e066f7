package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"droidracer/internal/core"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/obs"
	"droidracer/internal/sentinel"
	"droidracer/internal/storage"
	"droidracer/internal/trace"
)

// collector reads each traced request's spans from the public span
// store (obs.Traces) by trace id, soon after they are committed and
// long before the 512-trace ring can evict them.
type collector struct {
	st      *stack
	gateway bool

	mu      sync.Mutex
	pending []*request
	spans   map[string][]obs.TraceSpan
	stop    chan struct{}
	done    chan struct{}
}

// collectGrace is how long a request's spans may take to be committed
// after its answer (or its job's finish) before they are read as they are.
const collectGrace = time.Second

func newCollector(st *stack, gateway bool) *collector {
	c := &collector{st: st, gateway: gateway, spans: make(map[string][]obs.TraceSpan),
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.poll(true)
				return
			case <-t.C:
				c.poll(false)
			}
		}
	}()
	return c
}

// add queues a traced request once its answer has arrived. Safe on nil.
func (c *collector) add(r *request) {
	if c == nil || !r.traced || r.traceID == "" {
		return
	}
	c.mu.Lock()
	c.pending = append(c.pending, r)
	c.mu.Unlock()
}

// poll reads every pending trace that is complete, or overdue; final
// reads everything still pending.
func (c *collector) poll(final bool) {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	var keep []*request
	for _, r := range pending {
		spans := obs.Traces().Trace(r.traceID)
		if final || c.complete(r, spans) {
			c.spans[r.traceID] = spans
			continue
		}
		keep = append(keep, r)
	}
	c.mu.Lock()
	c.pending = append(c.pending, keep...)
	c.mu.Unlock()
}

// complete reports whether a request's spans are all in: the gateway's
// when it went through one, and the job's once fresh work has finished.
func (c *collector) complete(r *request, spans []obs.TraceSpan) bool {
	since := r.acked
	need := "server.submit"
	if r.fresh && r.code == 202 {
		f, ok := c.st.finishOf(r.b.key)
		if !ok {
			return false
		}
		since, need = f.at, "job.run"
	}
	if time.Since(since) > collectGrace {
		return true
	}
	has := map[string]bool{}
	for _, s := range spans {
		has[s.Name] = true
	}
	if c.gateway && !has["gateway.submit"] {
		return false
	}
	return has[need] || (c.gateway && r.resp.Cached)
}

// finish stops the collector and returns the spans read, by trace id.
func (c *collector) finish() map[string][]obs.TraceSpan {
	close(c.stop)
	<-c.done
	return c.spans
}

// generatorSlack is how late the open-loop generator may release a send
// (p99) before the run is flagged: beyond it the schedule, not the
// system, sets the load. The generator shares the process's two Ps with
// CPU-bound analyses, so a wake-up can wait out one 10 ms preemption
// slice without the offered load drifting.
const generatorSlack = 25 * time.Millisecond

// enginePhases maps the analysis phases (core.Result.Phases, and the
// "phase.<name>" spans) to their per-layer metric names.
var enginePhases = []struct{ phase, metric string }{
	{"validate", "core.validate_ms"},
	{"annotate", "core.annotate_ms"},
	{"happens-before", "core.hb_ms"},
	{"race-scan", "core.race_scan_ms"},
	{"stream-replay", "core.stream_replay_ms"},
}

// perLayer computes the traced run's per-layer metrics and prints the
// blocking-path breakdown. Span-derived figures cover the traced half of
// the sends; counts and shares cover every send.
func perLayer(outs []outcome, spans map[string][]obs.TraceSpan, rep *replayReport, wl workload, elapsed time.Duration) map[string]metric {
	var (
		lag, hop, fwd, admit, queue, run, parse, journalSeg []float64
		tracedRes, untracedRes                              []float64
		phases                                              = map[string][]float64{}
		runSum                                              time.Duration
		runN, freshFin, fullFin, dups, hits                 int
		perBackend                                          = make([]int, wl.backends)
		rejected                                            = map[string]int{}
		paths                                               []pathParts
	)
	for _, o := range outs {
		r := o.r
		lag = append(lag, ms(r.handed.Sub(r.due)))
		if o.refused() {
			switch o.reason {
			case "rate-limited", "queue-full", "inflight-exceeded":
				rejected[o.reason]++
			default:
				rejected["other"]++
			}
		}
		if !r.fresh {
			dups++
			if r.resp.Cached {
				hits++
			}
		}
		if r.fresh && o.hasFin {
			freshFin++
			perBackend[o.fin.backend]++
			if o.fin.mode == "full" {
				fullFin++
			}
			for _, p := range o.fin.phases {
				phases[p.Phase] = append(phases[p.Phase], ms(p.Duration))
			}
		}
		if r.fresh && o.ok {
			if r.traced {
				tracedRes = append(tracedRes, ms(o.result))
			} else {
				untracedRes = append(untracedRes, ms(o.result))
			}
		}
		if !r.traced {
			continue
		}
		by := map[string][]obs.TraceSpan{}
		for _, s := range spans[r.traceID] {
			by[s.Name] = append(by[s.Name], s)
		}
		if g := by["gateway.submit"]; len(g) > 0 {
			self := g[0].Duration
			for _, f := range by["gateway.forward"] {
				self -= f.Duration
				fwd = append(fwd, ms(f.Duration))
			}
			hop = append(hop, ms(self))
		}
		if !r.fresh || r.code != 202 {
			continue
		}
		if s := by["server.submit"]; len(s) > 0 {
			admit = append(admit, ms(s[0].Duration))
		}
		if s := by["queue-wait"]; len(s) > 0 {
			queue = append(queue, ms(s[0].Duration))
		}
		if s := by["phase.parse"]; len(s) > 0 {
			parse = append(parse, ms(s[0].Duration))
		}
		jr := by["job.run"]
		if len(jr) == 0 {
			continue
		}
		run = append(run, ms(jr[0].Duration))
		runSum += jr[0].Duration
		runN++
		if o.hasFin {
			journalSeg = append(journalSeg, ms(o.fin.at.Sub(jr[0].Start.Add(jr[0].Duration))))
		}
		if o.ok {
			if p, ok := blockingPath(o, by); ok {
				paths = append(paths, p)
			}
		}
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string, n int) {
		m[name] = metric{Value: v, Unit: unit}
		fmt.Printf("servebench: %s = %.4f %s (n=%d)\n", name, v, unit, n)
	}
	sends := len(outs)
	put("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms", len(lag))
	if quantile(lag, 0.99) > ms(generatorSlack) {
		fmt.Printf("servebench: WARNING: the generator fell behind its schedule (p99 lag above %s); this run's open loop is not valid\n", generatorSlack)
	}
	put("loadgen.offered_rps", float64(sends)/elapsed.Seconds(), "1/s", sends)
	put("gateway.hop_ms", quantile(hop, 0.5), "ms", len(hop))
	put("gateway.forward_ms", quantile(fwd, 0.5), "ms", len(fwd))
	put("gateway.cache_hit_ratio", ratio(hits, dups), "share", dups)
	minShare := 0.0
	if freshFin > 0 {
		minShare = 1
		for i, n := range perBackend {
			share := float64(n) / float64(freshFin)
			fmt.Printf("servebench: backend-%d fresh-key share = %.4f (n=%d)\n", i, share, freshFin)
			if share < minShare {
				minShare = share
			}
		}
	}
	put("gateway.backend_share_min", minShare, "share", freshFin)
	put("server.admit_p50_ms", quantile(admit, 0.5), "ms", len(admit))
	put("server.admit_p99_ms", quantile(admit, 0.99), "ms", len(admit))
	for _, reason := range []string{"rate-limited", "queue-full", "inflight-exceeded", "other"} {
		put("server.rejected."+reason, float64(rejected[reason]), "count", sends)
	}
	put("storage.key_ms", quantile(rep.key, 0.5), "ms", len(rep.key))
	put("storage.verify_ms", quantile(rep.verify, 0.5), "ms", len(rep.verify))
	put("sentinel.estimate_ms", quantile(rep.estimate, 0.5), "ms", len(rep.estimate))
	put("jobs.queue_wait_p50_ms", quantile(queue, 0.5), "ms", len(queue))
	put("jobs.queue_wait_p99_ms", quantile(queue, 0.99), "ms", len(queue))
	put("jobs.run_ms", quantile(run, 0.5), "ms", len(run))
	busy := 0.0
	if runN > 0 {
		// Σ job.run over the traced jobs, scaled up to every finished job.
		total := runSum.Seconds() * float64(freshFin) / float64(runN)
		busy = total / (float64(daemonWorkers*wl.backends) * elapsed.Seconds())
	}
	put("jobs.busy_share", busy, "share", runN)
	put("jobs.shed", float64(rep.shed), "count", sends)
	put("jobs.full_share", ratio(fullFin, freshFin), "share", freshFin)
	put("trace.parse_ms", quantile(parse, 0.5), "ms", len(parse))
	put("trace.parse_mb_s", rep.parseMBs(), "MB/s", len(rep.parse))
	put("trace.parse_alloc_ratio", rep.parseAllocRatio(), "ratio", len(rep.parse))
	for _, p := range enginePhases {
		put(p.metric, quantile(phases[p.phase], 0.5), "ms", len(phases[p.phase]))
	}
	put("core.alloc_mb", rep.analyzeAllocMB(), "MB", len(rep.analyze))
	put("journal.append_fsync_ms", quantile(journalSeg, 0.5), "ms", len(journalSeg))
	overhead := quantile(tracedRes, 0.5) - quantile(untracedRes, 0.5)
	fmt.Printf("servebench: result_p50_ms traced = %.4f ms (n=%d), untraced = %.4f ms (n=%d)\n",
		quantile(tracedRes, 0.5), len(tracedRes), quantile(untracedRes, 0.5), len(untracedRes))
	put("tracing.overhead_ms", overhead, "ms", len(tracedRes)+len(untracedRes))
	put("path.unexplained_ms", printBreakdown(paths), "ms", len(paths))
	rep.print()
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pathParts splits one fresh request's result latency along its
// blocking path.
type pathParts struct {
	result time.Duration
	parts  [8]time.Duration
}

var pathNames = [8]string{
	"wait for a connection (due to send)",
	"send to admission (transport, gateway)",
	"admit (server.submit)",
	"queue wait",
	"spool read + verify + parse",
	"engine (validate..race scan)",
	"job.run outside phases (pruning, stats)",
	"journal append + fsync",
}

func blockingPath(o outcome, by map[string][]obs.TraceSpan) (pathParts, bool) {
	ss, qw, jr, ps := by["server.submit"], by["queue-wait"], by["job.run"], by["phase.parse"]
	if len(ss) == 0 || len(qw) == 0 || len(jr) == 0 || len(ps) == 0 {
		return pathParts{}, false
	}
	var engine time.Duration
	for _, p := range enginePhases {
		for _, s := range by["phase."+p.phase] {
			engine += s.Duration
		}
	}
	for _, s := range by["phase.degrade"] {
		engine += s.Duration
	}
	r := o.r
	return pathParts{result: o.result, parts: [8]time.Duration{
		r.sent.Sub(r.due),
		ss[0].Start.Sub(r.sent),
		ss[0].Duration,
		qw[0].Duration,
		ps[0].Duration,
		engine,
		jr[0].Duration - ps[0].Duration - engine,
		o.fin.at.Sub(jr[0].Start.Add(jr[0].Duration)),
	}}, true
}

// printBreakdown explains the traced result_p50_ms: it averages each
// blocking-path part over the requests whose result latency ranks within
// five percentiles of the median, and returns the unexplained remainder
// (gaps between spans: enqueue, hand-offs, scheduling).
func printBreakdown(paths []pathParts) float64 {
	if len(paths) == 0 {
		fmt.Println("servebench: blocking path: no complete traced request")
		return 0
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].result < paths[j].result })
	mid, half := len(paths)/2, len(paths)/20
	if half < 2 {
		half = 2
	}
	lo, hi := max(mid-half, 0), min(mid+half+1, len(paths))
	band := paths[lo:hi]
	var res time.Duration
	var sum [8]time.Duration
	for _, p := range band {
		res += p.result
		for i, d := range p.parts {
			sum[i] += d
		}
	}
	n := time.Duration(len(band))
	fmt.Printf("servebench: blocking path around the traced median (n=%d of %d), mean result %.4f ms:\n", len(band), len(paths), ms(res/n))
	explained := time.Duration(0)
	for i, d := range sum {
		explained += d / n
		fmt.Printf("servebench:   %-40s %9.4f ms\n", pathNames[i], ms(d/n))
	}
	rest := res/n - explained
	fmt.Printf("servebench:   %-40s %9.4f ms\n", "unexplained remainder", ms(rest))
	return ms(rest)
}

// replayReport holds the direct per-call replay: the benchmark's own
// spans around each public call, with allocation deltas.
type replayReport struct {
	spans                                             []obs.TraceSpan
	key, estimate, verify, parse, analyze, journalOps []float64
	parseBytes, parseAlloc, analyzeAlloc              uint64
	shed                                              int
}

func (r *replayReport) parseMBs() float64 {
	total := 0.0
	for _, d := range r.parse {
		total += d
	}
	if total == 0 {
		return 0
	}
	return float64(r.parseBytes) / (1 << 20) / (total / 1000)
}

func (r *replayReport) parseAllocRatio() float64 {
	if r.parseBytes == 0 {
		return 0
	}
	return float64(r.parseAlloc) / float64(r.parseBytes)
}

func (r *replayReport) analyzeAllocMB() float64 {
	if len(r.analyze) == 0 {
		return 0
	}
	return float64(r.analyzeAlloc) / (1 << 20) / float64(len(r.analyze))
}

func (r *replayReport) print() {
	fmt.Printf("servebench: direct replay, median per call: storage.Key %.4f ms, sentinel.EstimateBytes %.4f ms, "+
		"storage.VerifyBody %.4f ms, trace.ParseBytes %.4f ms, core.AnalyzeContext %.4f ms, journal AppendSeq+Sync %.4f ms (n=%d)\n",
		quantile(r.key, 0.5), quantile(r.estimate, 0.5), quantile(r.verify, 0.5), quantile(r.parse, 0.5),
		quantile(r.analyze, 0.5), quantile(r.journalOps, 0.5), len(r.parse))
}

// replayBudget bounds the direct replay's wall time.
const replayBudget = 5 * time.Second

// replay runs the workload's bodies through each public call of the
// serving path on its own, after the served run has stopped, timing each
// call under a span of the benchmark's own and measuring its allocation.
func replay(dir string, bodies []*body, opts core.Options) (*replayReport, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	jw, err := journal.Create(filepath.Join(dir, "replay.journal"))
	if err != nil {
		return nil, err
	}
	defer jw.Close()
	rep := &replayReport{}
	traceID := obs.NewTraceID()
	measure := func(parent, name string, samples *[]float64, fn func() error) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		rep.spans = append(rep.spans, obs.TraceSpan{TraceID: traceID, SpanID: obs.NewSpanID(), Parent: parent,
			Name: name, Service: "servebench", Start: t0, Duration: d,
			Attrs: map[string]string{"alloc_bytes": strconv.FormatUint(alloc, 10)}})
		*samples = append(*samples, ms(d))
		return alloc, err
	}
	start := time.Now()
	for i, b := range bodies {
		if i == replayLimit || time.Since(start) > replayBudget {
			break
		}
		parent := obs.NewSpanID()
		name := b.key + ".trace"
		var tr *trace.Trace
		var res *core.Result
		steps := []struct {
			name    string
			samples *[]float64
			fn      func() error
		}{
			{"replay.storage.Key", &rep.key, func() error { storage.Key(b.data); return nil }},
			{"replay.sentinel.EstimateBytes", &rep.estimate, func() error { _, err := sentinel.EstimateBytes(b.data); return err }},
			{"replay.storage.VerifyBody", &rep.verify, func() error { return storage.VerifyBody(name, b.data) }},
			{"replay.trace.ParseBytes", &rep.parse, func() (err error) { tr, err = trace.ParseBytes(b.data); return err }},
			{"replay.core.AnalyzeContext", &rep.analyze, func() (err error) {
				res, err = core.AnalyzeContext(context.Background(), tr, opts)
				return err
			}},
			{"replay.journal.AppendSeq+Sync", &rep.journalOps, func() error {
				je := jobs.JobEntry{Name: name, Mode: "full", Attempts: 1, Races: len(res.Races), Digest: jobs.ResultDigest(res)}
				if _, err := jw.AppendSeq("job", je); err != nil {
					return err
				}
				return jw.Sync()
			}},
		}
		for _, s := range steps {
			alloc, err := measure(parent, s.name, s.samples, s.fn)
			if err != nil {
				return nil, fmt.Errorf("replay %s on %s body: %w", s.name, b.app, err)
			}
			switch s.name {
			case "replay.trace.ParseBytes":
				rep.parseBytes += uint64(len(b.data))
				rep.parseAlloc += alloc
			case "replay.core.AnalyzeContext":
				rep.analyzeAlloc += alloc
			}
		}
	}
	return rep, nil
}

// writeSpans writes the served and replay spans of a traced run under
// .bench_build/results.
func writeSpans(workload string, seed int64, served map[string][]obs.TraceSpan, own []obs.TraceSpan) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"served": served, "replay": own})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), raw, 0o666)
}

// Command racedetd is the resilient analysis daemon: it watches a spool
// directory for trace files, runs each through the supervised job pool
// (bounded queue, per-job budgets, retry-with-backoff, a per-input
// circuit breaker that stops re-running inputs that keep panicking), and
// journals finished work under a state directory so a restarted daemon
// re-analyzes only unfinished inputs.
//
// Usage:
//
//	racedetd -spool DIR -state DIR [-workers N]
//	         [-queue N] [-deadline 30s] [-retries N] [-poll 2s] [-once]
//	         [-drain-timeout 30s] [-metrics-addr HOST:PORT]
//	         [-events PATH] [-listen HOST:PORT] [-max-body BYTES]
//	         [-rate N] [-burst N] [-max-inflight N] [-max-deadline 2m]
//	         [-mem-watermark BYTES] [-cost-soft BYTES] [-cost-hard BYTES]
//	         [-worker-mem BYTES] [-worker-wall 2m] [-isolate]
//
// Every job runs the streaming vector-clock engine, which reports the
// graph closure's races in linear memory while clocks stay narrow.
//
// Resource governance (see internal/sentinel and DESIGN.md §16):
// -cost-hard refuses submissions whose estimated analysis footprint no
// ceiling allows (413 cost-exceeded, estimate in the body); -cost-soft
// flags them heavy, and with -isolate (the default) heavy inputs run in
// a re-exec'd `racedetd -worker` subprocess under -worker-mem
// (GOMEMLIMIT + RLIMIT_AS) and the -worker-wall watchdog, so a memory
// bomb costs one quarantine record instead of the daemon.
// -mem-watermark arms the brownout sentinel: above that heap level the
// daemon refuses heavy work 503 resource-degraded and reports
// "resource" on /readyz so gateway probers route around it until it
// recovers; non-heavy work still runs the full analysis.
//
// -metrics-addr starts the debug HTTP listener: Prometheus-text
// /metrics, expvar /debug/vars, and net/http/pprof under /debug/pprof/.
// The bound address is printed to stderr (port 0 picks a free port).
// -events appends a structured JSONL event log (log/slog) with a
// per-incarnation run ID; job-finish events carry the journal sequence
// number of their WAL record.
//
// -listen starts the ingestion API (see internal/server and DESIGN.md
// §11): POST /v1/jobs accepts a trace body under admission control
// (body-size bound via -max-body, per-client token bucket via -rate and
// -burst, global in-flight cap via -max-inflight, request deadlines
// capped by -max-deadline), answers duplicates idempotently from the
// journal, and spools accepted bodies durably before acknowledging
// them. /healthz reports liveness; /readyz flips to 503 the moment a
// shutdown signal arrives, before in-flight work finishes draining.
//
// Poison inputs — jobs that fail deterministically after retries with a
// parse error or an isolated panic — are dead-lettered: a quarantine
// journal entry is made durable and the trace file moves to
// <state>/quarantine/, so a restart never re-ingests it.
//
// SIGINT/SIGTERM trigger a graceful shutdown: readiness flips false,
// intake closes, in-flight analyses run to completion (bounded by
// -drain-timeout, after which they are cancelled into partial
// outcomes), queued jobs are recorded as drained for the next
// incarnation, and the per-job report prints to stdout. -once sweeps
// the spool a single time, waits for the pool to quiesce, and exits —
// the mode batch pipelines and the CI smoke test drive.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/jobs"
	"droidracer/internal/journal"
	"droidracer/internal/obs"
	"droidracer/internal/report"
	"droidracer/internal/sentinel"
	"droidracer/internal/server"
	"droidracer/internal/storage"
)

// journalName is the daemon's completed-work journal inside -state.
const journalName = "daemon.journal"

// quarantineDir is the dead-letter directory inside -state.
const quarantineDir = "quarantine"

func main() {
	// The -worker subcommand is the sandboxed analysis child the sentinel
	// isolator re-execs for heavy inputs. It must run before flag.Parse:
	// the worker's contract is the DROIDRACER_WORKER spec, not the
	// daemon's flag set.
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(sentinel.WorkerMain())
	}
	spool := flag.String("spool", "", "directory of trace files to analyze")
	state := flag.String("state", "", "state directory for the completed-work journal")
	workers := flag.Int("workers", 2, "concurrent analysis workers")
	queue := flag.Int("queue", 16, "admission queue depth; a full queue sheds new work")
	deadline := flag.Duration("deadline", 0, "wall-clock budget per analysis attempt (0 = unlimited)")
	retries := flag.Int("retries", 1, "extra attempts per job after a transient failure")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "base backoff between attempts")
	breaker := flag.Int("breaker", 3, "consecutive recovered panics on one input before refusing it until restart (-1 disables)")
	poll := flag.Duration("poll", 2*time.Second, "spool re-scan interval")
	once := flag.Bool("once", false, "sweep the spool once, drain, and exit")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for in-flight jobs")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof/ on this address (empty = off)")
	eventsPath := flag.String("events", "", "append structured JSONL lifecycle events to this file (empty = off)")
	listen := flag.String("listen", "", "serve the trace-ingestion API on this address (empty = off)")
	maxBody := flag.Int64("max-body", 8<<20, "largest accepted trace body in bytes")
	rate := flag.Float64("rate", 10, "per-client submissions per second")
	burst := flag.Int("burst", 20, "per-client submission burst")
	maxInflight := flag.Int("max-inflight", 64, "concurrently admitted submissions")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "cap on per-request X-Analysis-Deadline")
	maxRetryAfter := flag.Duration("max-retry-after", 5*time.Minute, "ceiling on queue-derived Retry-After hints")
	sweepGrace := flag.Duration("sweep-grace", 0, "hold the restart spool sweep until a gateway reconcile arrives or this grace expires (0 = sweep immediately)")
	traceSlow := flag.Duration("trace-slow", time.Second, "tail-capture threshold: unsampled jobs slower than this keep their trace in /debug/traces (0 = only failures)")
	memWatermark := flag.Int64("mem-watermark", 0, "heap bytes that flip the daemon into memory brownout (0 = off)")
	costSoft := flag.Int64("cost-soft", 0, "estimated analysis bytes above which a submission runs isolated (0 = off)")
	costHard := flag.Int64("cost-hard", 0, "estimated analysis bytes above which a submission is refused 413 (0 = off)")
	workerMem := flag.Int64("worker-mem", 512<<20, "memory budget per isolated worker subprocess (GOMEMLIMIT + RLIMIT_AS)")
	workerWall := flag.Duration("worker-wall", 2*time.Minute, "wall-clock watchdog per isolated worker subprocess")
	isolate := flag.Bool("isolate", true, "run heavy submissions in a sandboxed -worker subprocess")
	eventsMaxBytes := flag.Int64("events-max-bytes", obs.DefaultEventsMaxBytes, "rotate the -events file after this many bytes (kept as <file>.1)")
	flag.Parse()
	obs.SetServiceName("racedetd")
	if *spool == "" || *state == "" {
		fatal(fmt.Errorf("missing -spool or -state"))
	}

	events := obs.Nop()
	runID := obs.NewRunID()
	if *eventsPath != "" {
		ef, err := obs.OpenRotatingFile(*eventsPath, *eventsMaxBytes)
		if err != nil {
			fatal(err)
		}
		defer ef.Close()
		events = obs.NewEventLog(ef, runID)
	}

	var debugSrv interface{ Close() error }
	if *metricsAddr != "" {
		srv, bound, err := obs.ServeDebug(*metricsAddr, obs.Default())
		if err != nil {
			fatal(err)
		}
		debugSrv = srv
		fmt.Fprintf(os.Stderr, "racedetd: debug listener on http://%s/ (metrics, expvar, pprof)\n", bound)
		events.Info("daemon.debug-listener", "addr", bound)
	}

	jpath := filepath.Join(*state, journalName)
	entries, rstats, err := journal.RecoverStats(jpath)
	if err != nil {
		if storage.IsCorrupt(err) {
			// Acknowledged, fsync'd history changed under us. Truncating
			// it away silently would drop work a client was promised, so
			// the daemon refuses to start; the operator decides.
			fatal(fmt.Errorf("%w\nthe journal is corrupt; inspect it with `racedet -fsck %s` and repair with `racedet -fsck %s -repair`",
				err, *state, *state))
		}
		fatal(err)
	}
	if rstats.Torn() {
		// A hard crash left a torn tail; the discarded bytes were never
		// acknowledged durable, but say what resume is not replaying.
		fmt.Fprintf(os.Stderr, "racedetd: journal recovery discarded a torn tail (%d entr(ies), %d bytes)\n",
			rstats.DiscardedEntries, rstats.DiscardedBytes)
	}
	completed := jobs.CompletedRecords(entries)
	quarantined := jobs.QuarantinedJobs(entries)
	if len(completed) > 0 {
		fmt.Fprintf(os.Stderr, "racedetd: journal holds %d completed input(s); skipping them\n", len(completed))
	}
	q := &jobs.Quarantine{Dir: filepath.Join(*state, quarantineDir)}
	// Replay dead-letter moves: a crash between the quarantine journal
	// entry and the file rename leaves the poison input in the spool;
	// the journal is the truth, so converge the file system to it.
	for name := range quarantined {
		if err := q.Absorb(filepath.Join(*spool, name)); err != nil {
			fmt.Fprintf(os.Stderr, "racedetd: quarantine replay %s: %v\n", name, err)
		}
	}
	if len(quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "racedetd: journal holds %d quarantined input(s); never re-ingesting them\n", len(quarantined))
	}
	events.Info("daemon.start", "spool", *spool, "state", *state,
		"recovered_entries", rstats.Entries,
		"torn_entries", rstats.DiscardedEntries, "torn_bytes", rstats.DiscardedBytes,
		"completed_jobs", len(completed), "quarantined_jobs", len(quarantined))
	w, err := journal.Create(jpath)
	if err != nil {
		fatal(err)
	}

	// The server holds the idempotency index even when -listen is off:
	// the spool sweep claims names through it, and the pool's OnFinish
	// hook moves them to their terminal states. The indirection through
	// srv is safe: it is assigned before any job can be submitted.
	var srv *server.Server
	pool := jobs.NewPool(jobs.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Budget:     budget.Limits{Wall: *deadline},
		Retry:      jobs.RetryPolicy{MaxAttempts: 1 + *retries, BaseBackoff: *backoff},
		Breaker:    jobs.BreakerPolicy{Threshold: *breaker},
		Journal:    w,
		Events:     events,
		Quarantine: q,
		TraceSlow:  *traceSlow,
		OnFinish: func(out report.Outcome) {
			if s := srv; s != nil {
				s.JobFinished(out)
			}
		},
	})
	// Resource governance: the brownout sentinel samples the daemon's own
	// heap, and the isolator re-execs this binary as `racedetd -worker`
	// for heavy inputs so a memory bomb dies in a subprocess.
	snt := sentinel.New(sentinel.Config{Watermark: *memWatermark, Events: events})
	snt.Start()
	defer snt.Stop()
	var iso jobs.Runner
	if *isolate {
		if exe, err := os.Executable(); err == nil {
			iso = &sentinel.Isolator{
				Exe:      exe,
				Args:     []string{"-worker"},
				MemLimit: *workerMem,
				Wall:     *workerWall,
				Events:   events,
			}
		} else {
			fmt.Fprintf(os.Stderr, "racedetd: isolation disabled, cannot resolve own executable: %v\n", err)
		}
	}
	srv = server.New(server.Config{
		Pool:          pool,
		Spool:         *spool,
		Analyze:       core.DefaultOptions(),
		Workers:       *workers,
		MaxBody:       *maxBody,
		MaxInflight:   *maxInflight,
		Rate:          *rate,
		Burst:         *burst,
		MaxDeadline:   *maxDeadline,
		MaxRetryAfter: *maxRetryAfter,
		SweepGrace:    *sweepGrace,
		Completed:     completed,
		Quarantined:   quarantined,
		Events:        events,
		// A poisoned journal writer (failed fsync — fsyncgate) flips the
		// daemon storage-degraded: /readyz 503 "storage", submissions
		// refused 503 storage-degraded until a restart re-proves what is
		// actually on disk.
		StorageErr: w.Err,
		Sentinel:   snt,
		Cost:       sentinel.CostLimits{Soft: *costSoft, Hard: *costHard},
		Isolator:   iso,
	})
	var ingestSrv interface{ Close() error }
	if *listen != "" {
		hs, bound, err := srv.Serve(*listen)
		if err != nil {
			fatal(err)
		}
		ingestSrv = hs
		fmt.Fprintf(os.Stderr, "racedetd: ingestion listener on http://%s/v1/jobs\n", bound)
		events.Info("daemon.ingest-listener", "addr", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Readiness must flip the moment the signal lands — before the sweep
	// loop notices, before Pool.Shutdown — so load balancers stop routing
	// while accepted work drains.
	go func() {
		<-ctx.Done()
		srv.BeginDrain()
	}()

	for {
		// Behind a gateway, the restart sweep waits for the reconcile
		// handshake (or the grace deadline): spooled orphans the fleet
		// completed elsewhere must be reclaimed, not re-analyzed.
		if srv.SweepReady() {
			if err := sweep(pool, srv, *spool); err != nil {
				fmt.Fprintf(os.Stderr, "racedetd: %v\n", err)
			}
		}
		if *once {
			pool.Quiesce()
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(*poll):
			continue
		}
		break
	}

	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	events.Info("daemon.drain", "timeout", drainTimeout.String())
	outs := pool.Shutdown(drainCtx)
	fmt.Print(report.Pipeline(outs))
	events.Info("daemon.stop", "outcomes", len(outs), "journal_seq", w.Seq())
	if ingestSrv != nil {
		ingestSrv.Close()
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
}

// sweep submits every spool file not already claimed in the server's
// idempotency index — which covers journal-completed work, quarantined
// inputs, HTTP-accepted submissions, and earlier sweeps. A shed
// submission (saturated queue) releases its claim, so the next sweep
// retries it — the producer-side reaction to backpressure. Dotfiles are
// skipped: the ingestion layer stages bodies as hidden temp files
// before the durable rename.
func sweep(pool *jobs.Pool, srv *server.Server, spool string) error {
	ents, err := os.ReadDir(spool)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if !srv.Claim(name) {
			continue
		}
		// SpoolJob applies the same resource governance as HTTP admission:
		// a swept file that estimates heavy runs in the isolation sandbox
		// instead of on the daemon's heap.
		job := srv.SpoolJob(name, filepath.Join(spool, name))
		if err := pool.Submit(job); err != nil {
			srv.Release(name)
			fmt.Fprintf(os.Stderr, "racedetd: %s: %v\n", name, err)
			continue
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "racedetd:", err)
	os.Exit(1)
}

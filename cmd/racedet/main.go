// Command racedet is the offline Race Detector component of DroidRacer
// (§5): it reads an execution trace in the textual core-language format,
// computes the happens-before relation, and reports classified data races.
//
// Usage:
//
//	racedet [-all] [-stats] [-naive] [-no-enable] [-no-fifo] [-explain]
//	        [-dot FILE] [-minimize] [-deadline 5s] [trace.txt]
//	racedet -campaign "Paper Music Player" -state DIR [-k N] [-seed N]
//	racedet -resume DIR
//	racedet -submit URL [-deadline 30s] [-client-id ID] [-trace-out FILE] [trace.txt]
//	racedet -trace ID URL_OR_FILE...
//	racedet -flood URL [-requests N] [-rps N] [-dup 0.5] [-corpus N]
//	        [-flood-apps "Music Player,..."] [-seed N] [-client-id ID]
//	racedet -fsck STATEDIR [-spool DIR] [-repair]
//
// With no file argument the trace is read from standard input. The
// analysis is one streaming vector-clock replay. -explain and -minimize
// replay the trace again with every operation's clocks recorded and
// query the relation from them. -dot builds the paper's happens-before
// graph (quadratic memory) only to write it out. Under -deadline the
// analysis is budgeted: when the deadline passes it exits 1 with the
// partial (sound) races printed and the budget error on stderr; the
// -explain, -minimize and -dot work that follows is not budgeted.
//
// Submit mode (-submit URL) posts the trace to a racedetd ingestion
// endpoint instead of analyzing it locally: retryable refusals (429,
// 503, transport errors) are retried with jittered backoff honoring
// Retry-After, under a content-derived idempotency key that is stable
// across attempts — resubmitting after a timeout or daemon crash never
// duplicates work. Exit status 0 for accepted/done submissions, 1 for
// quarantined inputs or exhausted retries. Every submission mints a
// W3C traceparent so the fleet records a distributed trace under the
// printed trace ID; -trace-out FILE additionally writes the client-side
// span as JSON, mergeable into `racedet -trace`.
//
// Trace mode (-trace ID SOURCE...) stitches one distributed trace back
// together: each SOURCE is either a process base URL (its
// /debug/traces/ID endpoint is queried — gateway and backends each hold
// their own fragment) or a local span-JSON file (such as a -trace-out
// file). The merged tree renders as a waterfall with per-hop and
// per-phase durations. Unreachable sources warn and are skipped; exit
// status 1 when no source knows the trace.
//
// Campaign mode (-campaign/-resume) runs a restartable exploration
// campaign over an application model, journaling DFS progress and
// per-test race results under the -state directory. A campaign killed
// mid-run — crash, OOM, SIGKILL — is resumed with -resume DIR and
// produces the same race report as an uninterrupted run. The race
// report goes to stdout; progress and resume statistics go to stderr,
// so reports diff cleanly across kill/resume schedules.
//
// Fsck mode (-fsck STATEDIR) runs the offline storage-integrity scanner
// over a racedetd state directory (and, with -spool DIR, its spool):
// journal checksums and sequence continuity, spool and quarantine
// content digests, stale staging files. Without -repair it only prints
// the repair plan. Exit status: 0 when the directories are clean (or
// every finding was repaired), 1 when findings remain, 2 when the scan
// itself failed — CI can gate on it directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"droidracer"
	"droidracer/internal/apps"
	"droidracer/internal/core"
	"droidracer/internal/flood"
	"droidracer/internal/fsck"
	"droidracer/internal/hb"
	"droidracer/internal/jobs"
	"droidracer/internal/obs"
	"droidracer/internal/report"
	"droidracer/internal/server"
)

func main() {
	all := flag.Bool("all", false, "report every racing pair instead of one per location and category")
	stats := flag.Bool("stats", false, "print trace statistics")
	naive := flag.Bool("naive", false, "use the naive combination of multithreaded and event rules (ablation)")
	noEnable := flag.Bool("no-enable", false, "ignore enable operations (ablation)")
	noFIFO := flag.Bool("no-fifo", false, "drop the FIFO rule (ablation)")
	noValidate := flag.Bool("no-validate", false, "skip the Figure 5 semantic validation")
	explainFlag := flag.Bool("explain", false, "print a debugging explanation per race (chains, hints, near misses)")
	dotFile := flag.String("dot", "", "write the happens-before graph (transitive reduction) as Graphviz DOT to this file")
	minimizeFlag := flag.Bool("minimize", false, "print a minimized witness trace for the first reported race")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the analysis (0 = unlimited)")
	phaseTimings := flag.Bool("phase-timings", false, "append a per-phase wall-clock timing table to the report")
	submitURL := flag.String("submit", "", "submit the trace to this racedetd ingestion URL instead of analyzing locally")
	clientID := flag.String("client-id", "", "rate-limit principal sent as X-Client-ID with -submit/-flood")
	traceOut := flag.String("trace-out", "", "with -submit, write the client-side span of the distributed trace to this JSON file")
	stitchID := flag.String("trace", "", "stitch and print the distributed trace with this ID from the /debug/traces sources (URLs or span-JSON files) given as arguments")
	floodURL := flag.String("flood", "", "flood this ingestion URL (a backend or the racedetgw gateway) with generated traces and print a JSON summary")
	floodRequests := flag.Int("requests", 100, "total submissions for -flood")
	floodRPS := flag.Float64("rps", 0, "target submissions per second for -flood (0 = unpaced)")
	floodDup := flag.Float64("dup", 0, "duplicate ratio in [0,1] for -flood: fraction of sends that repeat an earlier body")
	floodCorpus := flag.Int("corpus", 20, "distinct trace bodies to generate for -flood")
	floodApps := flag.String("flood-apps", "Music Player,Aard Dictionary,Messenger", "comma-separated Table 2 app models the -flood corpus draws from")
	fsckDir := flag.String("fsck", "", "scan this racedetd state directory for storage damage and print a repair plan")
	fsckSpool := flag.String("spool", "", "spool directory to digest-verify alongside -fsck")
	fsckRepair := flag.Bool("repair", false, "with -fsck, execute the repair plan instead of only printing it")
	campaignApp := flag.String("campaign", "", "run a restartable exploration campaign over this application model")
	stateDir := flag.String("state", "", "state directory for the campaign journal (with -campaign)")
	resumeDir := flag.String("resume", "", "resume the campaign journaled under this state directory")
	k := flag.Int("k", 0, "event-sequence bound for -campaign (0 = the app's default)")
	seed := flag.Int64("seed", 0, "scheduling seed for -campaign (0 = round-robin); also seeds the -flood corpus and jitter")
	flag.Parse()

	if *phaseTimings {
		// Attach a metrics consumer so the per-phase histogram mirror
		// runs and the timing table can show quantile columns.
		obs.MarkExporterAttached()
	}
	if *fsckDir != "" {
		runFsck(*fsckDir, *fsckSpool, *fsckRepair)
		return
	}
	if *campaignApp != "" || *resumeDir != "" {
		runCampaign(*campaignApp, *stateDir, *resumeDir, *k, *seed)
		return
	}
	if *stitchID != "" {
		runTrace(*stitchID, flag.Args())
		return
	}
	if *submitURL != "" {
		runSubmit(*submitURL, *clientID, *traceOut, *deadline)
		return
	}
	if *floodURL != "" {
		runFlood(*floodURL, *clientID, *floodApps, *floodRequests, *floodCorpus, *floodRPS, *floodDup, *seed)
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	parseStart := time.Now()
	tr, err := droidracer.ParseTrace(in)
	if err != nil {
		fatal(err)
	}
	parseDur := time.Since(parseStart)

	opts := droidracer.DefaultOptions()
	opts.Dedup = !*all
	opts.Validate = !*noValidate
	opts.HB.Naive = *naive
	opts.HB.EnableEdges = !*noEnable
	opts.HB.FIFO = !*noFIFO
	opts.Budget = droidracer.Budget{Wall: *deadline}

	partial := false
	res, err := droidracer.AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		be, ok := droidracer.AsBudgetError(err)
		if !ok || res == nil {
			fatal(err)
		}
		partial = true
		fmt.Fprintf(os.Stderr, "racedet: %v; reporting partial results\n", be)
	}
	if *stats {
		s := res.Stats
		fmt.Printf("trace: %d ops, %d fields, %d threads w/o queues, %d with, %d async tasks\n",
			s.Length, s.Fields, s.ThreadsNoQ, s.ThreadsQ, s.AsyncTasks)
	}
	if *dotFile != "" {
		if err := writeDOT(*dotFile, res, opts.HB); err != nil {
			fatal(err)
		}
	}
	var rel droidracer.Relation
	if *explainFlag && len(res.Races) > 0 {
		if rel, err = droidracer.HappensBefore(res, opts.HB); err != nil {
			fatal(err)
		}
	}
	for _, r := range res.Races {
		if rel != nil {
			fmt.Print(droidracer.Explain(rel, r))
			continue
		}
		first, second := tr.Op(r.First), tr.Op(r.Second)
		fmt.Printf("%s: %v @%d vs %v @%d\n", r.Category, first, r.First, second, r.Second)
	}
	if len(res.Races) == 0 {
		fmt.Println("no data races detected")
		if *phaseTimings {
			printPhases(res, parseDur)
		}
		if partial {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("%d race report(s)\n", len(res.Races))
	if *minimizeFlag {
		min, err := droidracer.Minimize(res.Trace, res.Races[0], opts.HB)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nminimized witness for the first race (%d -> %d ops):\n",
			res.Trace.Len(), min.Trace.Len())
		if err := droidracer.FormatTrace(os.Stdout, min.Trace); err != nil {
			fatal(err)
		}
	}
	if *phaseTimings {
		printPhases(res, parseDur)
	}
	if partial {
		os.Exit(1)
	}
}

// runSubmit is the -submit entry point: it reads the trace bytes (file
// argument or stdin) and posts them to a racedetd ingestion endpoint
// with the retrying client. A -deadline is forwarded as the
// X-Analysis-Deadline request header rather than applied locally.
//
// Each submission mints a trace context and sends it as the W3C
// traceparent header, which makes the fleet keep the distributed trace
// (client-sampled traces always commit); the trace ID prints to stderr
// so the operator can stitch it later with `racedet -trace`.
func runSubmit(url, clientID, traceOut string, deadline time.Duration) {
	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	body, err := io.ReadAll(in)
	if err != nil {
		fatal(err)
	}
	sc := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	c := &server.Client{
		BaseURL:     strings.TrimSuffix(url, "/"),
		Deadline:    deadline,
		ClientID:    clientID,
		Seed:        time.Now().UnixNano(),
		Traceparent: sc.Traceparent(),
	}
	start := time.Now()
	resp, attempts, err := c.Submit(context.Background(), body)
	writeClientSpan(sc, url, traceOut, start, time.Since(start), len(attempts), err)
	fmt.Fprintf(os.Stderr, "racedet: trace %s\n", sc.TraceID)
	retried := attempts
	if n := len(retried); n > 0 {
		retried = retried[:n-1] // the last attempt is the terminal answer
	}
	for _, at := range retried {
		if at.Err != nil {
			fmt.Fprintf(os.Stderr, "racedet: submit attempt failed (%v); retrying in %v\n", at.Err, at.Wait)
		} else {
			fmt.Fprintf(os.Stderr, "racedet: submit refused (%d); retrying in %v\n", at.Code, at.Wait)
		}
	}
	if err != nil {
		// Terminal failure: replay the full attempt history so the
		// operator sees what each try got — status code, structured
		// rejection reason, and the backoff actually slept.
		fmt.Fprintf(os.Stderr, "racedet: submission failed after %d attempt(s):\n", len(attempts))
		for i, at := range attempts {
			fmt.Fprintf(os.Stderr, "  attempt %d: %s\n", i+1, formatAttempt(at))
		}
		fatal(err)
	}
	switch resp.Status {
	case server.StatusDone:
		fmt.Printf("job %s: done (%s, %d race(s), digest %s)\n", resp.Job, resp.Mode, resp.Races, resp.Digest)
	case server.StatusQuarantined:
		fmt.Printf("job %s: quarantined (%s)\n", resp.Job, resp.Reason)
		os.Exit(1)
	default:
		coalesced := ""
		if resp.Coalesced {
			coalesced = ", coalesced onto in-flight work"
		}
		fmt.Printf("job %s: %s%s\n", resp.Job, resp.Status, coalesced)
	}
}

// formatAttempt renders one submission attempt for the terminal-failure
// history: "HTTP 429 (rate-limited), slept 1s" or "transport error
// (connection refused)".
func formatAttempt(at server.Attempt) string {
	var b strings.Builder
	switch {
	case at.Err != nil:
		fmt.Fprintf(&b, "transport error (%v)", at.Err)
	case at.Reason != "":
		fmt.Fprintf(&b, "HTTP %d (%s)", at.Code, at.Reason)
	default:
		fmt.Fprintf(&b, "HTTP %d", at.Code)
	}
	if at.Wait > 0 {
		fmt.Fprintf(&b, ", slept %v", at.Wait)
	}
	return b.String()
}

// runFlood is the -flood entry point: generate a distinct-trace corpus
// from Table 2 app models, push it at the target rate with the
// duplicate-ratio knob, and print the JSON summary (latency histogram,
// per-code counts, accepted keys, cache hits).
func runFlood(url, clientID, appList string, requests, corpus int, rps, dup float64, seed int64) {
	var names []string
	for _, n := range strings.Split(appList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	bodies, err := flood.BuildCorpus(names, corpus, seed)
	if err != nil {
		fatal(err)
	}
	sum, err := flood.Run(context.Background(), flood.Config{
		BaseURL:  strings.TrimSuffix(url, "/"),
		Requests: requests,
		RPS:      rps,
		DupRatio: dup,
		Corpus:   bodies,
		Seed:     seed,
		ClientID: clientID,
	})
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fatal(err)
	}
}

// printPhases appends the -phase-timings table to the report: the trace
// parse, then the pipeline's per-phase spans in completion order, with
// p50/p90/p99 columns for phases the process-wide histogram has
// observed (a single analysis observes each phase once; a daemon
// embedding the pipeline accumulates a real distribution).
func printPhases(res *droidracer.Result, parse time.Duration) {
	// The file parse happens before the pipeline's collector exists;
	// mirror it into the process-wide histogram so its quantile cells
	// render like every other phase's.
	obs.NewPhases().Record("parse", parse)
	timings := append([]obs.PhaseTiming{{Phase: "parse", Duration: parse}}, res.Phases...)
	fmt.Print("\n" + report.PhaseTableQuantiles(timings, obs.PhaseQuantiles))
}

// runFsck is the -fsck entry point: scan the state (and optionally
// spool) directory, print the plan or the repairs, exit 0 clean /
// 1 findings / 2 scan failure.
func runFsck(state, spool string, repair bool) {
	rep, err := fsck.Run(fsck.Options{State: state, Spool: spool, Repair: repair, Log: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "racedet:", err)
		os.Exit(2)
	}
	switch {
	case rep.Clean():
		fmt.Printf("fsck: clean (%d journal record(s), %d spool bod%s, %d quarantined bod%s verified)\n",
			rep.JournalEntries, rep.SpoolChecked, plural(rep.SpoolChecked, "y", "ies"),
			rep.QuarantineChecked, plural(rep.QuarantineChecked, "y", "ies"))
	case repair && rep.Repaired():
		fmt.Printf("fsck: repaired %d finding(s); state directory is consistent\n", len(rep.Findings))
	default:
		fmt.Printf("fsck: %d finding(s); run with -repair to fix\n", len(rep.Findings))
		os.Exit(1)
	}
}

// runCampaign is the -campaign/-resume entry point: it builds (or
// rebuilds from the journal header) the campaign for an app model and
// runs it under the state directory. The sorted race report prints to
// stdout; everything stateful (resume counts, partial-progress notes)
// prints to stderr.
func runCampaign(appName, stateDir, resumeDir string, k int, seed int64) {
	switch {
	case appName != "" && resumeDir != "":
		fatal(fmt.Errorf("-campaign and -resume are mutually exclusive"))
	case appName != "" && stateDir == "":
		fatal(fmt.Errorf("-campaign requires -state DIR"))
	case resumeDir != "":
		stateDir = resumeDir
		// The journal header identifies the campaign; the original
		// bounds override any flags given here.
		name, eopts, err := jobs.Header(resumeDir)
		if err != nil {
			fatal(err)
		}
		appName, k, seed = name, eopts.MaxEvents, eopts.Seed
	}
	app, err := apps.New(appName)
	if err != nil {
		fatal(err)
	}
	explore := app.Explore()
	explore.MaxTests = 0 // campaigns run the DFS to its bound
	if k > 0 {
		explore.MaxEvents = k
	}
	explore.Seed = seed
	c := jobs.Campaign{
		Name:    appName,
		Factory: apps.Factory(app),
		Explore: explore,
		Analyze: core.DefaultOptions(),
	}
	res, err := jobs.RunCampaign(context.Background(), c, stateDir)
	if err != nil {
		if res == nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "racedet: campaign checkpointed mid-run (%v); resume with -resume %s\n", err, stateDir)
	}
	if res.Resumed {
		fmt.Fprintf(os.Stderr, "racedet: resumed %d journaled test(s), explored %d new sequence(s)\n",
			res.ResumedTests, res.SequencesExplored)
	}
	if res.Recovered.Torn() {
		fmt.Fprintf(os.Stderr, "racedet: journal recovery discarded a torn tail (%d entr%s, %d bytes); that work was re-explored\n",
			res.Recovered.DiscardedEntries, plural(res.Recovered.DiscardedEntries, "y", "ies"), res.Recovered.DiscardedBytes)
	}
	for _, id := range res.Races {
		fmt.Printf("%s: %s (%s vs %s)\n", id.Category, id.Loc, id.First, id.Second)
	}
	s := res.Summary
	fmt.Printf("%d race(s) over %d test(s): %d multithreaded, %d co-enabled, %d delayed, %d cross-posted, %d unknown\n",
		len(res.Races), res.Tests, s.Multithreaded, s.CoEnabled, s.Delayed, s.CrossPosted, s.Unknown)
	if !res.Complete {
		os.Exit(1)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// writeDOT builds the happens-before graph of res's annotated trace
// under cfg and writes its transitive reduction to path.
func writeDOT(path string, res *droidracer.Result, cfg droidracer.HBConfig) error {
	if res.Info == nil {
		return fmt.Errorf("-dot: the budget ran out before the trace was annotated")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := hb.Build(res.Info, cfg).WriteDOT(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "racedet:", err)
	os.Exit(1)
}

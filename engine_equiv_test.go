// Engine-differential gates: the streaming vector-clock engine behind
// Analyze must report exactly the races the graph engine — the paper's
// closure, kept as the test oracle — reports: same locations, same
// access pairs, same categories, on every Table 2 application trace and
// on a generated random-trace corpus. CI runs these as the
// engine-differential job and uploads any divergent trace as an
// artifact; FuzzStreamVsGraph extends the same property to adversarial
// inputs in the fuzz smoke step.
package droidracer_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"droidracer"
	"droidracer/internal/apps"
	"droidracer/internal/explorer"
	"droidracer/internal/hb"
	"droidracer/internal/paper"
	"droidracer/internal/race"
	"droidracer/internal/semantics"
	"droidracer/internal/sentinel"
	"droidracer/internal/trace"
)

// graphRaces is the graph-engine oracle: the cancellation pruning,
// validation and annotation Analyze performs, then the paper's
// happens-before closure and exhaustive pair scan.
func graphRaces(tr *droidracer.Trace, opts droidracer.Options) ([]droidracer.Race, error) {
	if opts.DropCancelled {
		tr = tr.WithoutCancelled()
	}
	if opts.Validate {
		if i, err := semantics.ValidateInferred(tr); err != nil {
			return nil, fmt.Errorf("trace is not a valid execution (op %d): %w", i, err)
		}
	}
	info, err := trace.Analyze(tr)
	if err != nil {
		return nil, err
	}
	d := race.NewDetector(hb.Build(info, opts.HB))
	if opts.Dedup {
		return d.DetectDeduped(), nil
	}
	return d.Detect(), nil
}

// diffEngines analyzes tr with Analyze and with the graph oracle and
// reports the two race sets plus whether they diverge. A trace both
// reject is not a divergence.
func diffEngines(t *testing.T, tr *droidracer.Trace) (graph, stream []droidracer.Race, diverged bool) {
	t.Helper()
	graph, gerr := graphRaces(tr, droidracer.DefaultOptions())
	sres, serr := droidracer.Analyze(tr, droidracer.DefaultOptions())
	if (gerr == nil) != (serr == nil) {
		t.Errorf("engines disagree on acceptance: graph err=%v, stream err=%v", gerr, serr)
		return nil, nil, true
	}
	if gerr != nil {
		return nil, nil, false
	}
	stream = sres.Races
	if len(graph) == 0 && len(stream) == 0 {
		return graph, stream, false
	}
	return graph, stream, !reflect.DeepEqual(graph, stream)
}

// TestEngineEquivalence is the acceptance gate from the paper
// reproduction: on every Table 2 application's representative trace,
// Analyze reports the identical deduplicated race set the graph engine
// reports.
func TestEngineEquivalence(t *testing.T) {
	for _, app := range apps.All() {
		name := app.Name()
		t.Run(name, func(t *testing.T) {
			tr := representative(t, name).Trace
			graph, stream, diverged := diffEngines(t, tr)
			if diverged {
				t.Errorf("race sets diverge on %s:\n graph:  %v\n stream: %v", name, graph, stream)
			}
		})
	}
}

// TestEngineDifferentialCorpus runs both engines over a generated
// corpus of random explorer traces and fails on any divergence,
// writing the offending trace where CI can pick it up as an artifact
// (ENGINE_DIFF_DIR, defaulting to the test's temp dir).
func TestEngineDifferentialCorpus(t *testing.T) {
	perApp := 40
	if testing.Short() {
		perApp = 6
	}
	corpusApps := []string{"Aard Dictionary", "Music Player", "Messenger", "My Tracks", "Tomdroid Notes"}
	total, divergent := 0, 0
	for _, name := range corpusApps {
		app, err := apps.New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := explorer.RandomExplore(apps.Factory(app), explorer.RandomOptions{
			Events: 4, Runs: perApp, Seed: 20260808,
		})
		if err != nil {
			t.Fatal(err)
		}
		for ti, tst := range res.Tests {
			total++
			graph, stream, diverged := diffEngines(t, tst.Trace)
			if !diverged {
				continue
			}
			divergent++
			path := saveDivergentTrace(t, fmt.Sprintf("%s-%d", strings.ReplaceAll(name, " ", "_"), ti),
				tst.Trace, graph, stream)
			t.Errorf("%s trace %d: engines diverge (saved to %s)\n graph:  %v\n stream: %v",
				name, ti, path, graph, stream)
		}
	}
	t.Logf("engine-differential corpus: %d traces, %d divergent", total, divergent)
}

// saveDivergentTrace writes the trace text and both race sets to the
// artifact directory so a CI failure ships a reproducer.
func saveDivergentTrace(t *testing.T, name string, tr *droidracer.Trace, graph, stream []droidracer.Race) string {
	t.Helper()
	dir := os.Getenv("ENGINE_DIFF_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Logf("cannot create %s: %v", dir, err)
		dir = t.TempDir()
	}
	var sb strings.Builder
	if err := droidracer.FormatTrace(&sb, tr); err != nil {
		t.Fatalf("format divergent trace: %v", err)
	}
	sb.WriteString(fmt.Sprintf("\n# graph:  %v\n# stream: %v\n", graph, stream))
	path := filepath.Join(dir, name+".divergent.trace")
	if err := os.WriteFile(path, []byte(sb.String()), 0o666); err != nil {
		t.Logf("cannot write %s: %v", path, err)
	}
	return path
}

// hostileTrace builds the alternating-thread write bomb: n ops that
// merge into almost no graph nodes' worth of runs (every access flips
// threads, so every access is its own node) — the shape that maximizes
// the O(nodes²) closure. The streaming engine replays it with two
// clock contexts and per-location shadow state in O(n).
func hostileTrace(tb testing.TB, n int) *droidracer.Trace {
	tb.Helper()
	ops := make([]trace.Op, 0, n+4)
	ops = append(ops,
		trace.ThreadInit(1),
		trace.Fork(1, 2), trace.ThreadInit(2),
		trace.Fork(1, 3), trace.ThreadInit(3),
	)
	for i := len(ops); i < n; i++ {
		th := trace.ThreadID(2 + i%2)
		ops = append(ops, trace.Write(th, "Bomb.value"))
	}
	return trace.FromOps(ops)
}

// TestStreamAdmitsHostileTrace is the cost-governance acceptance gate:
// the alternating-thread bomb, whose O(nodes²) closure no ceiling
// admits, classifies as normal work under the streaming cost model —
// and Analyze actually analyzes it, finding its races.
func TestStreamAdmitsHostileTrace(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	tr := hostileTrace(t, n)
	var sb strings.Builder
	if err := droidracer.FormatTrace(&sb, tr); err != nil {
		t.Fatal(err)
	}
	est, err := sentinel.EstimateBytes([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	// A soft budget generous enough for any linear-cost job: three
	// threads keep every clock at most three components wide, so the
	// estimate is the per-op term (~240 MB for a million ops).
	lim := sentinel.CostLimits{Soft: 256 << 20, Hard: 1 << 30}
	if got := est.Classify(lim); got != sentinel.ClassNormal {
		t.Errorf("stream cost model should admit the bomb (est %d bytes), classified %s", est.StreamBytes, got)
	}

	opts := droidracer.DefaultOptions()
	opts.Validate = false // the replay semantics check is O(n) but not the point here
	res, err := droidracer.Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Races {
		if r.Loc == "Bomb.value" && r.Category == droidracer.Multithreaded {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a multithreaded race on Bomb.value, got %v", res.Races)
	}
}

// FuzzStreamVsGraph fuzzes trace text through Analyze and the graph
// oracle: any input both accept must yield identical race sets, and
// acceptance itself must agree. The seed corpus (testdata/fuzz/FuzzStreamVsGraph) holds
// the paper figures and an async-rule sampler.
func FuzzStreamVsGraph(f *testing.F) {
	for _, tr := range []*droidracer.Trace{paper.Figure3(), paper.Figure4()} {
		var sb strings.Builder
		if err := droidracer.FormatTrace(&sb, tr); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(sb.String()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // keep per-input analysis bounded
		}
		tr, err := droidracer.ParseTrace(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		graph, gerr := graphRaces(tr, droidracer.DefaultOptions())
		sres, serr := droidracer.Analyze(tr, droidracer.DefaultOptions())
		if (gerr == nil) != (serr == nil) {
			t.Fatalf("engines disagree on acceptance: graph err=%v, stream err=%v", gerr, serr)
		}
		if gerr != nil {
			return
		}
		if !reflect.DeepEqual(graph, sres.Races) &&
			(len(graph) > 0 || len(sres.Races) > 0) {
			t.Fatalf("race sets diverge:\n graph:  %v\n stream: %v", graph, sres.Races)
		}
	})
}

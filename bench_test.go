// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). One benchmark family per artifact:
//
//	BenchmarkFigure3Analysis / BenchmarkFigure4Analysis — the motivating
//	    traces through the full pipeline (Figures 3 and 4);
//	BenchmarkFigure5Validation — the operational-semantics replay;
//	BenchmarkFigure6n7HappensBefore — happens-before construction;
//	BenchmarkFigure8Lifecycle — the lifecycle state machine;
//	BenchmarkTable2TraceGen/<app> — trace generation for each Table 2 row
//	    (the representative test's event sequence, replayed);
//	BenchmarkTable3Detection/<app> — race detection + classification on
//	    each representative trace (Table 3);
//	BenchmarkNodeMerging/{merged,unmerged} — the §6 graph-size optimization;
//	BenchmarkTraceGenOverhead/{recording,no-recording} — the §6 "up to 5x
//	    slowdown" instrumentation-overhead experiment;
//	BenchmarkAblation/* — the §4.1 specializations and the naive
//	    combination (DESIGN.md ablations);
//	BenchmarkBaseline/* — the §7 comparison detectors.
package droidracer_test

import (
	"sync"
	"testing"

	"droidracer"
	"droidracer/internal/android"
	"droidracer/internal/apps"
	"droidracer/internal/baseline"
	"droidracer/internal/explorer"
	"droidracer/internal/hb"
	"droidracer/internal/paper"
	"droidracer/internal/race"
	"droidracer/internal/semantics"
	"droidracer/internal/sentinel"
	"droidracer/internal/trace"
)

// benchApps are the Table 2/3 rows benchmarked individually. The full
// 15-app set runs through cmd/benchtables; the benchmarks cover a spread
// of trace sizes (smallest, the motivating app's scale, mid, largest).
var benchApps = []string{
	"Aard Dictionary",
	"Music Player",
	"K-9 Mail",
	"Flipkart",
}

// repCache holds each app's representative test, computed once.
var (
	repMu    sync.Mutex
	repCache = map[string]*explorer.Test{}
)

func representative(tb testing.TB, name string) *explorer.Test {
	tb.Helper()
	repMu.Lock()
	defer repMu.Unlock()
	if t, ok := repCache[name]; ok {
		return t
	}
	app, err := apps.New(name)
	if err != nil {
		tb.Fatal(err)
	}
	t, err := apps.RepresentativeTest(app)
	if err != nil {
		tb.Fatal(err)
	}
	repCache[name] = t
	return t
}

func analyzeInfo(tb testing.TB, tr *trace.Trace) *trace.Info {
	tb.Helper()
	info, err := trace.Analyze(tr)
	if err != nil {
		tb.Fatal(err)
	}
	return info
}

func BenchmarkFigure3Analysis(b *testing.B) {
	tr := paper.Figure3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := droidracer.Analyze(tr, droidracer.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Races) != 0 {
			b.Fatalf("Figure 3 should be race free, got %v", res.Races)
		}
	}
}

func BenchmarkFigure4Analysis(b *testing.B) {
	tr := paper.Figure4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := droidracer.Analyze(tr, droidracer.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Races) != 2 {
			b.Fatalf("Figure 4 should have 2 races, got %v", res.Races)
		}
	}
}

func BenchmarkFigure5Validation(b *testing.B) {
	tr := representative(b, "Music Player").Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx, err := semantics.ValidateInferred(tr); err != nil {
			b.Fatalf("op %d: %v", idx, err)
		}
	}
}

func BenchmarkFigure6n7HappensBefore(b *testing.B) {
	info := analyzeInfo(b, representative(b, "Music Player").Trace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.Build(info, hb.DefaultConfig())
	}
}

func BenchmarkFigure8Lifecycle(b *testing.B) {
	opts := droidracer.DefaultEnvOptions()
	for i := 0; i < b.N; i++ {
		env := droidracer.NewEnv(opts)
		env.RegisterActivity("A", func() droidracer.Activity { return &benchActivity{} })
		if err := env.Launch("A"); err != nil {
			b.Fatal(err)
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
		if err := env.Fire(droidracer.UIEvent{Kind: droidracer.EvBack}); err != nil {
			b.Fatal(err)
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
		if err := env.Shutdown(); err != nil {
			b.Fatal(err)
		}
	}
}

type benchActivity struct {
	droidracer.BaseActivity
}

func (a *benchActivity) OnCreate(c *droidracer.Ctx) { c.Write("A.state") }

func BenchmarkTable2TraceGen(b *testing.B) {
	for _, name := range benchApps {
		name := name
		b.Run(name, func(b *testing.B) {
			rep := representative(b, name)
			app, err := apps.New(name)
			if err != nil {
				b.Fatal(err)
			}
			factory := apps.Factory(app)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := explorer.Replay(factory, 0, rep.Sequence)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(tr.Len()), "trace-ops")
			}
		})
	}
}

func BenchmarkTable3Detection(b *testing.B) {
	for _, name := range benchApps {
		name := name
		b.Run(name, func(b *testing.B) {
			tr := representative(b, name).Trace
			info := analyzeInfo(b, tr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := hb.Build(info, hb.DefaultConfig())
				races := race.NewDetector(g).DetectDeduped()
				b.ReportMetric(float64(len(races)), "races")
				b.ReportMetric(float64(g.NodeCount()), "graph-nodes")
			}
		})
	}
}

// BenchmarkSentinelOverhead pins what the resource-governance layer
// costs when it is DISABLED — the default standalone-daemon
// configuration, and the price every job pays for the sentinel merely
// existing. The governed variant runs the closure-heaviest workload
// (the serial happens-before build of K-9 Mail) plus the exact
// disabled-path checks the server performs per job: the nil-receiver
// brownout probes and the zero-ceiling class check. Its budget is
// within 5% of baseline; the benchtables regression gate holds it there
// against the committed BENCH_baseline.json.
func BenchmarkSentinelOverhead(b *testing.B) {
	info := analyzeInfo(b, representative(b, "K-9 Mail").Trace)
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hb.Build(info, hb.DefaultConfig())
		}
	})
	b.Run("governed", func(b *testing.B) {
		var snt *sentinel.Sentinel
		var lim sentinel.CostLimits
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if lim.Enabled() || snt != nil {
				b.Fatal("governance unexpectedly enabled")
			}
			if snt.Brownout() {
				b.Fatal("nil sentinel browned out")
			}
			_ = snt.RetryAfter()
			hb.Build(info, hb.DefaultConfig())
		}
	})
}

// BenchmarkStreamEngine pins the graph↔stream crossover: Analyze and
// the graph oracle (graphRaces) analyze the closure-heaviest Table 2
// trace (K-9 Mail), and Analyze alone analyzes a generated million-op
// alternating-thread trace whose graph closure is out of admission
// range under any cost ceiling (hostileTrace, the memory-chaos bomb
// shape). `benchtables -crossover` renders the table appended to the
// bench artifact from these series; the regression gate holds both
// engines to the committed baseline.
func BenchmarkStreamEngine(b *testing.B) {
	run := func(b *testing.B, tr *trace.Trace, analyze func(*trace.Trace, droidracer.Options) ([]droidracer.Race, error)) {
		opts := droidracer.DefaultOptions()
		// Engine cost only: the semantics replay is engine-independent.
		opts.Validate = false
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			races, err := analyze(tr, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(races)), "races")
		}
	}
	stream := func(tr *trace.Trace, opts droidracer.Options) ([]droidracer.Race, error) {
		res, err := droidracer.Analyze(tr, opts)
		if err != nil {
			return nil, err
		}
		return res.Races, nil
	}
	b.Run("K-9 Mail", func(b *testing.B) {
		tr := representative(b, "K-9 Mail").Trace
		b.Run("graph", func(b *testing.B) { run(b, tr, graphRaces) })
		b.Run("stream", func(b *testing.B) { run(b, tr, stream) })
	})
	b.Run("bomb-1M", func(b *testing.B) {
		tr := hostileTrace(b, 1_000_000)
		// No graph column: admission rejects this shape under the graph
		// cost model (TestStreamAdmitsHostileTrace), so the stream series
		// is the whole point.
		b.Run("stream", func(b *testing.B) { run(b, tr, stream) })
	})
}

func BenchmarkNodeMerging(b *testing.B) {
	info := analyzeInfo(b, representative(b, "Music Player").Trace)
	b.Run("merged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := hb.Build(info, hb.DefaultConfig())
			b.ReportMetric(float64(g.NodeCount()), "nodes")
		}
	})
	b.Run("unmerged", func(b *testing.B) {
		cfg := hb.DefaultConfig()
		cfg.MergeAccesses = false
		for i := 0; i < b.N; i++ {
			g := hb.Build(info, cfg)
			b.ReportMetric(float64(g.NodeCount()), "nodes")
		}
	})
}

func BenchmarkTraceGenOverhead(b *testing.B) {
	app, err := apps.New("Aard Dictionary")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, record bool) {
		for i := 0; i < b.N; i++ {
			opts := app.Options()
			opts.Record = record
			env := android.NewEnv(opts)
			app.Register(env)
			if err := env.Launch(app.MainActivity()); err != nil {
				b.Fatal(err)
			}
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
			if err := env.Shutdown(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("recording", func(b *testing.B) { run(b, true) })
	b.Run("no-recording", func(b *testing.B) { run(b, false) })
}

func BenchmarkAblation(b *testing.B) {
	// The ablation workload is race free under the full rules except for
	// one real race; each disabled rule surfaces its specific false
	// positives (see internal/apps/ablation.go).
	info := analyzeInfo(b, representative(b, "Ablation Workload").Trace)
	cases := []struct {
		name string
		mut  func(*hb.Config)
	}{
		{"full", func(*hb.Config) {}},
		{"no-enable", func(c *hb.Config) { c.EnableEdges = false }},
		{"no-fifo", func(c *hb.Config) { c.FIFO = false }},
		{"no-nopre", func(c *hb.Config) { c.NoPre = false }},
		{"naive-combination", func(c *hb.Config) { c.Naive = true }},
		{"event-only", func(c *hb.Config) { c.STOnly = true }},
		{"whole-thread-po", func(c *hb.Config) { c.WholeThreadPO = true }},
	}
	for _, cse := range cases {
		cse := cse
		b.Run(cse.name, func(b *testing.B) {
			cfg := hb.DefaultConfig()
			cse.mut(&cfg)
			for i := 0; i < b.N; i++ {
				g := hb.Build(info, cfg)
				// Undeduplicated pairs discriminate the rule sets better
				// than per-location reports.
				races := race.NewDetector(g).Detect()
				b.ReportMetric(float64(len(races)), "racing-pairs")
			}
		})
	}
}

func BenchmarkBaseline(b *testing.B) {
	tr := representative(b, "Music Player").Trace
	for _, d := range baseline.All() {
		d := d
		b.Run(d.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs := d.Detect(tr)
				b.ReportMetric(float64(len(fs)), "racy-locs")
			}
		})
	}
}

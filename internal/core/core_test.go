package core

import (
	"strings"
	"testing"

	"droidracer/internal/hb"
	"droidracer/internal/obs"
	"droidracer/internal/paper"
	"droidracer/internal/race"
	"droidracer/internal/trace"
)

func TestAnalyzeFigure4(t *testing.T) {
	res, err := Analyze(paper.Figure4(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 2 {
		t.Fatalf("races = %v, want 2", res.Races)
	}
	cats := map[race.Category]bool{}
	for _, r := range res.Races {
		cats[r.Category] = true
	}
	if !cats[race.Multithreaded] || !cats[race.CrossPosted] {
		t.Fatalf("categories = %v", res.Races)
	}
	if res.Stats.Length != res.Trace.Len() || res.Info == nil {
		t.Fatal("result incompletely populated")
	}
}

// TestAnalyzeRejectsUnknownEngine pins that Options.Engine names only
// the streaming engine: any other value is an error, never a silent
// fallback.
func TestAnalyzeRejectsUnknownEngine(t *testing.T) {
	for _, eng := range []string{"", EngineStream} {
		opts := DefaultOptions()
		opts.Engine = eng
		if _, err := Analyze(paper.Figure4(), opts); err != nil {
			t.Errorf("engine %q: %v", eng, err)
		}
	}
	opts := DefaultOptions()
	opts.Engine = "graph"
	if res, err := Analyze(paper.Figure4(), opts); err == nil || res != nil {
		t.Fatalf("engine %q: res=%v err=%v, want an error and no result", opts.Engine, res, err)
	}
}

func TestAnalyzeRejectsInvalidTrace(t *testing.T) {
	bad := trace.FromOps([]trace.Op{trace.Begin(1, "p")})
	_, err := Analyze(bad, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "not a valid execution") {
		t.Fatalf("err = %v", err)
	}
	// Validation can be disabled; the structural pass still rejects it.
	opts := DefaultOptions()
	opts.Validate = false
	if _, err := Analyze(bad, opts); err == nil {
		t.Fatal("structurally malformed trace accepted")
	}
}

func TestAnalyzeWithoutDedup(t *testing.T) {
	// Three pairwise-racing writer tasks: 3 pairs undeduped, 1 deduped.
	tr := trace.FromOps([]trace.Op{
		trace.ThreadInit(1),
		trace.AttachQ(1),
		trace.LoopOnQ(1),
		trace.ThreadInit(2),
		trace.ThreadInit(3),
		trace.ThreadInit(4),
		trace.Post(2, "a", 1),
		trace.Post(3, "b", 1),
		trace.Post(4, "c", 1),
		trace.Begin(1, "a"),
		trace.Write(1, "x"),
		trace.End(1, "a"),
		trace.Begin(1, "b"),
		trace.Write(1, "x"),
		trace.End(1, "b"),
		trace.Begin(1, "c"),
		trace.Write(1, "x"),
		trace.End(1, "c"),
	})
	opts := DefaultOptions()
	opts.Dedup = false
	res, err := Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 3 {
		t.Fatalf("undeduped races = %d, want 3", len(res.Races))
	}
	res, err = Analyze(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 1 {
		t.Fatalf("deduped races = %d, want 1", len(res.Races))
	}
}

func TestAnalyzeDropsCancelledPosts(t *testing.T) {
	tr := trace.FromOps([]trace.Op{
		trace.ThreadInit(1),
		trace.AttachQ(1),
		trace.LoopOnQ(1),
		trace.ThreadInit(2),
		trace.Post(2, "never", 1),
		trace.Cancel(2, "never"),
	})
	res, err := Analyze(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Trace.Ops() {
		if op.Kind == trace.OpCancel || (op.Kind == trace.OpPost && op.Task == "never") {
			t.Fatalf("cancelled post survived: %v", op)
		}
	}
}

func TestAnalyzeAblation(t *testing.T) {
	// The naive-combination ablation plugs straight into Options.HB.
	opts := DefaultOptions()
	opts.HB = hb.Config{MergeAccesses: true, EnableEdges: true, FIFO: true, NoPre: true, Naive: true}
	res, err := Analyze(paper.Figure4(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The naive relation is strictly stronger, so it cannot report more
	// races than the precise one.
	precise, err := Analyze(paper.Figure4(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) > len(precise.Races) {
		t.Fatalf("naive %d races > precise %d", len(res.Races), len(precise.Races))
	}
}

// TestStreamAnalysisCountsRaces pins that droidracer_races_total counts
// the races of a streaming analysis by category — the series is not
// the graph engine's alone.
func TestStreamAnalysisCountsRaces(t *testing.T) {
	obs.MarkExporterAttached()
	counter := func(c race.Category) *obs.Counter {
		return obs.Default().Counter("droidracer_races_total", "", "category", c.String())
	}
	mt, cp := counter(race.Multithreaded).Value(), counter(race.CrossPosted).Value()
	if _, err := Analyze(paper.Figure4(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if got := counter(race.Multithreaded).Value() - mt; got != 1 {
		t.Errorf("races_total{category=multithreaded} rose by %d, want 1", got)
	}
	if got := counter(race.CrossPosted).Value() - cp; got != 1 {
		t.Errorf("races_total{category=cross-posted} rose by %d, want 1", got)
	}
}

package stream

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"droidracer/internal/apps"
	"droidracer/internal/explorer"
	"droidracer/internal/hb"
	"droidracer/internal/paper"
	"droidracer/internal/race"
	"droidracer/internal/trace"
	"droidracer/internal/vc"
)

func analyze(t testing.TB, tr *trace.Trace) *trace.Info {
	t.Helper()
	info, err := trace.Analyze(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return info
}

func runStream(t testing.TB, info *trace.Info, cfg hb.Config, dedup bool) *Outcome {
	t.Helper()
	out, err := Run(info, Options{HB: cfg, Dedup: dedup, RecordClocks: true}, nil)
	if err != nil {
		t.Fatalf("stream.Run: %v", err)
	}
	return out
}

func graphRaces(t testing.TB, info *trace.Info, cfg hb.Config, dedup bool) []race.Race {
	t.Helper()
	g := hb.Build(info, cfg)
	d := race.NewDetector(g)
	if dedup {
		return d.DetectDeduped()
	}
	return d.Detect()
}

// dedupRaces derives the deduplicated set from the full sorted race list
// the way DetectDeduped does — first race per (location, category) — so
// comparisons against both reporting modes cost one graph build.
func dedupRaces(all []race.Race) []race.Race {
	type key struct {
		loc trace.Loc
		cat race.Category
	}
	seen := make(map[key]bool)
	var out []race.Race
	for _, r := range all {
		k := key{r.Loc, r.Category}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// diffRaces compares two race sets; both are sorted by (First, Second).
func diffRaces(t *testing.T, want, got []race.Race) {
	t.Helper()
	if len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("race sets diverge:\n graph:  %v\n stream: %v", want, got)
	}
}

// queriedPairs compares stream ordering against graph ordering for every
// pair of operations race analysis can query: two accesses, or two
// posts (the classifier's oracle). The engines intentionally differ on
// pairs outside these classes (e.g. a same-thread fork→init base mt
// edge, which no race query ever reads).
func queriedPairs(t *testing.T, info *trace.Info, g *hb.Graph, out *Outcome) {
	t.Helper()
	tr := info.Trace()
	var acc, posts []int
	for i, op := range tr.Ops() {
		switch {
		case op.Kind.IsAccess():
			acc = append(acc, i)
		case op.Kind == trace.OpPost && info.BeginIdx(op.Task) >= 0:
			posts = append(posts, i)
		}
	}
	check := func(idxs []int, kind string) {
		// The exhaustive sweep is quadratic; cap it so representative
		// traces with tens of thousands of accesses stay tractable. The
		// race-set diff still covers those in full.
		const maxClass = 2000
		if len(idxs) > maxClass {
			idxs = idxs[:maxClass]
		}
		for _, i := range idxs {
			for _, j := range idxs {
				if gw, sw := g.OrderedLE(i, j), out.OrderedLE(i, j); gw != sw {
					t.Errorf("%s pair (%d,%d): graph=%v stream=%v", kind, i, j, gw, sw)
				}
			}
		}
	}
	check(acc, "access")
	check(posts, "post")
}

// ablations are the configuration points the streaming engine supports;
// STOnly is excluded by contract (ErrSTOnly).
func ablations() map[string]hb.Config {
	def := hb.DefaultConfig()
	mk := func(mut func(*hb.Config)) hb.Config {
		c := def
		mut(&c)
		return c
	}
	return map[string]hb.Config{
		"default":         def,
		"no-merge":        mk(func(c *hb.Config) { c.MergeAccesses = false }),
		"no-enable":       mk(func(c *hb.Config) { c.EnableEdges = false }),
		"no-fifo":         mk(func(c *hb.Config) { c.FIFO = false }),
		"no-nopre":        mk(func(c *hb.Config) { c.NoPre = false }),
		"no-task-rules":   mk(func(c *hb.Config) { c.FIFO = false; c.NoPre = false }),
		"naive":           mk(func(c *hb.Config) { c.Naive = true }),
		"whole-thread-po": mk(func(c *hb.Config) { c.WholeThreadPO = true }),
	}
}

func TestStreamMatchesGraphOnFigures(t *testing.T) {
	for name, tr := range map[string]*trace.Trace{
		"figure3": paper.Figure3(),
		"figure4": paper.Figure4(),
	} {
		info := analyze(t, tr)
		for cfgName, cfg := range ablations() {
			for _, dedup := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/dedup=%v", name, cfgName, dedup), func(t *testing.T) {
					out := runStream(t, info, cfg, dedup)
					diffRaces(t, graphRaces(t, info, cfg, dedup), out.Races)
				})
			}
		}
	}
}

func TestStreamFigure4Races(t *testing.T) {
	// The paper reports exactly the (12, 21) and (16, 21) read/write
	// races on Figure 4; the streaming engine must find the same pairs.
	info := analyze(t, paper.Figure4())
	out := runStream(t, info, hb.DefaultConfig(), false)
	want := [][2]int{
		{paper.Idx(12), paper.Idx(21)},
		{paper.Idx(16), paper.Idx(21)},
	}
	if len(out.Races) != len(want) {
		t.Fatalf("got %d races %v, want %d", len(out.Races), out.Races, len(want))
	}
	for k, r := range out.Races {
		if r.First != want[k][0] || r.Second != want[k][1] {
			t.Errorf("race %d = (%d,%d), want (%d,%d)", k, r.First, r.Second, want[k][0], want[k][1])
		}
	}
}

func TestStreamMatchesGraphOnExplorerTraces(t *testing.T) {
	names := apps.Names()
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			app, err := apps.New(name)
			if err != nil {
				t.Fatal(err)
			}
			test, err := apps.RepresentativeTest(app)
			if err != nil {
				t.Fatal(err)
			}
			info := analyze(t, test.Trace)
			cfg := hb.DefaultConfig()
			g := hb.Build(info, cfg)
			out := runStream(t, info, cfg, true)
			diffRaces(t, race.NewDetector(g).DetectDeduped(), out.Races)
			queriedPairs(t, info, g, out)
		})
	}
}

func TestStreamMatchesGraphOnRandomTraces(t *testing.T) {
	runs := 6
	if testing.Short() {
		runs = 2
	}
	// Traces above this size only run the default configuration: one
	// graph build on a large trace costs seconds, and the small traces
	// already exercise every ablation.
	const fullMatrixOps = 6000
	for _, name := range []string{"Aard Dictionary", "Music Player", "K-9 Mail"} {
		app, err := apps.New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := explorer.RandomExplore(apps.Factory(app), explorer.RandomOptions{
			Events: 6, Runs: runs, Seed: 20260808,
		})
		if err != nil {
			t.Fatal(err)
		}
		for ti := range res.Tests {
			info := analyze(t, res.Tests[ti].Trace)
			cfgs := ablations()
			if len(res.Tests[ti].Trace.Ops()) > fullMatrixOps {
				cfgs = map[string]hb.Config{"default": hb.DefaultConfig()}
			}
			for cfgName, cfg := range cfgs {
				// One graph build answers both reporting modes.
				all := graphRaces(t, info, cfg, false)
				for _, dedup := range []bool{false, true} {
					out := runStream(t, info, cfg, dedup)
					want := all
					if dedup {
						want = dedupRaces(all)
					}
					if !reflect.DeepEqual(want, out.Races) && (len(want) > 0 || len(out.Races) > 0) {
						t.Errorf("%s test %d %s dedup=%v:\n graph:  %v\n stream: %v",
							name, ti, cfgName, dedup, want, out.Races)
					}
				}
			}
		}
	}
}

func TestStreamRejectsSTOnly(t *testing.T) {
	info := analyze(t, paper.Figure3())
	cfg := hb.DefaultConfig()
	cfg.STOnly = true
	if _, err := Run(info, Options{HB: cfg}, nil); err != ErrSTOnly {
		t.Fatalf("err = %v, want ErrSTOnly", err)
	}
}

// TestRuleTransfers exercises each async rule as a clock transfer
// against hand-computed ordering facts. Each case lists the op pairs
// (by trace index) that must be ordered and pairs that must not be.
func TestRuleTransfers(t *testing.T) {
	type pair struct{ a, b int }
	cases := []struct {
		name      string
		ops       []trace.Op
		ordered   []pair
		unordered []pair
	}{
		{
			// POST-ST: everything before the post happens before the
			// task body; a later same-looper access without an ordering
			// rule stays concurrent with a pre-post access only when on
			// another queue-less thread.
			name: "post",
			ops: []trace.Op{
				trace.ThreadInit(1), // 0
				trace.AttachQ(1),    // 1
				trace.LoopOnQ(1),    // 2
				trace.ThreadInit(2), // 3
				trace.Write(2, "x"), // 4
				trace.Post(2, "p", 1),
				trace.Begin(1, "p"), // 6
				trace.Write(1, "x"), // 7
				trace.End(1, "p"),   // 8
				trace.ThreadExit(2), // 9
			},
			ordered:   []pair{{4, 7}, {5, 6}, {2, 6}},
			unordered: []pair{{7, 9}},
		},
		{
			// FIFO: two plain posts to one looper from one thread are
			// dispatched in post order, so end(p1) ≼ begin(p2) and the
			// task bodies are ordered.
			name: "fifo",
			ops: []trace.Op{
				trace.ThreadInit(1),   // 0
				trace.AttachQ(1),      // 1
				trace.LoopOnQ(1),      // 2
				trace.ThreadInit(2),   // 3
				trace.Post(2, "a", 1), // 4
				trace.Post(2, "b", 1), // 5
				trace.Begin(1, "a"),   // 6
				trace.Write(1, "x"),   // 7
				trace.End(1, "a"),     // 8
				trace.Begin(1, "b"),   // 9
				trace.Write(1, "x"),   // 10
				trace.End(1, "b"),     // 11
			},
			ordered:   []pair{{8, 9}, {7, 10}, {4, 5}},
			unordered: []pair{{4, 3}},
		},
		{
			// Delayed posts: a delayed post does not FIFO-order ahead of
			// a plain one, so the task bodies race; two delayed posts
			// with ascending delays are ordered.
			name: "delayed-post",
			ops: []trace.Op{
				trace.ThreadInit(1),                  // 0
				trace.AttachQ(1),                     // 1
				trace.LoopOnQ(1),                     // 2
				trace.ThreadInit(2),                  // 3
				trace.PostDelayed(2, "slow", 1, 100), // 4
				trace.Post(2, "quick", 1),            // 5
				trace.PostDelayed(2, "later", 1, 200),
				trace.Begin(1, "slow"),  // 7
				trace.Write(1, "x"),     // 8
				trace.End(1, "slow"),    // 9
				trace.Begin(1, "quick"), // 10
				trace.Write(1, "x"),     // 11
				trace.End(1, "quick"),   // 12
				trace.Begin(1, "later"), // 13
				trace.Write(1, "x"),     // 14
				trace.End(1, "later"),   // 15
			},
			// slow(δ=100) ≼ later(δ=200) by FIFO-delayed; quick enqueues
			// immediately so nothing orders slow before quick.
			ordered:   []pair{{9, 13}, {8, 14}, {12, 13}},
			unordered: []pair{{8, 11}, {11, 8}},
		},
		{
			// Front-of-queue: a front post overtakes the queue — FIFO
			// must not order the earlier-posted task before it.
			name: "front-of-queue",
			ops: []trace.Op{
				trace.ThreadInit(1),        // 0
				trace.AttachQ(1),           // 1
				trace.LoopOnQ(1),           // 2
				trace.ThreadInit(2),        // 3
				trace.Post(2, "a", 1),      // 4
				trace.PostFront(2, "f", 1), // 5
				trace.Begin(1, "f"),        // 6
				trace.Write(1, "x"),        // 7
				trace.End(1, "f"),          // 8
				trace.Begin(1, "a"),        // 9
				trace.Write(1, "x"),        // 10
				trace.End(1, "a"),          // 11
			},
			// f ran first; a's body is ordered after f's only via NOPRE
			// when f posted a — it did not, so the bodies stay
			// unordered and the accesses race.
			unordered: []pair{{7, 10}, {10, 7}},
			ordered:   []pair{{4, 9}},
		},
		{
			// ENABLE: the enable of an event precedes its post from
			// another thread, ordering the enabling task's earlier
			// writes before the handler.
			name: "enable",
			ops: []trace.Op{
				trace.ThreadInit(1),       // 0
				trace.AttachQ(1),          // 1
				trace.LoopOnQ(1),          // 2
				trace.Enable(1, "init"),   // 3
				trace.Post(0, "init", 1),  // 4
				trace.Begin(1, "init"),    // 5
				trace.Write(1, "x"),       // 6
				trace.Enable(1, "click"),  // 7
				trace.End(1, "init"),      // 8
				trace.Post(0, "click", 1), // 9
				trace.Begin(1, "click"),   // 10
				trace.Read(1, "x"),        // 11
				trace.End(1, "click"),     // 12
			},
			ordered: []pair{{7, 9}, {6, 11}, {8, 10}},
		},
		{
			// FORK/JOIN: fork's past reaches the child; the child's
			// whole lifetime reaches the join.
			name: "fork-join",
			ops: []trace.Op{
				trace.ThreadInit(1), // 0
				trace.Write(1, "x"), // 1
				trace.Fork(1, 2),    // 2
				trace.ThreadInit(2), // 3
				trace.Read(2, "x"),  // 4
				trace.Write(2, "y"), // 5
				trace.ThreadExit(2), // 6
				trace.Join(1, 2),    // 7
				trace.Read(1, "y"),  // 8
			},
			ordered: []pair{{1, 4}, {2, 3}, {5, 8}, {6, 7}},
		},
		{
			// LOCK: a release transfers the critical section to a later
			// cross-thread acquire, but NOT to a same-thread one — the
			// decomposed relation's key refinement, which keeps two
			// tasks on one looper sharing a lock racy.
			name: "lock",
			ops: []trace.Op{
				trace.ThreadInit(1),        // 0
				trace.AttachQ(1),           // 1
				trace.LoopOnQ(1),           // 2
				trace.ThreadInit(2),        // 3
				trace.Post(2, "a", 1),      // 4
				trace.PostFront(2, "f", 1), // 5
				trace.Begin(1, "f"),        // 6
				trace.Acquire(1, "l"),      // 7
				trace.Write(1, "x"),        // 8
				trace.Release(1, "l"),      // 9
				trace.End(1, "f"),          // 10
				trace.Begin(1, "a"),        // 11
				trace.Acquire(1, "l"),      // 12
				trace.Read(1, "x"),         // 13
				trace.Release(1, "l"),      // 14
				trace.End(1, "a"),          // 15
				trace.Acquire(2, "l"),      // 16
				trace.Read(2, "x"),         // 17
				trace.Release(2, "l"),      // 18
			},
			ordered:   []pair{{9, 16}, {8, 17}},
			unordered: []pair{{9, 12}, {8, 13}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			info := analyze(t, trace.FromOps(tc.ops))
			cfg := hb.DefaultConfig()
			out := runStream(t, info, cfg, false)
			g := hb.Build(info, cfg)
			for _, p := range tc.ordered {
				if !g.OrderedLE(p.a, p.b) {
					t.Errorf("test vector wrong: graph says %d ⋠ %d", p.a, p.b)
				}
				if !out.OrderedLE(p.a, p.b) {
					t.Errorf("stream: want %d ≼ %d", p.a, p.b)
				}
			}
			for _, p := range tc.unordered {
				if g.OrderedLE(p.a, p.b) {
					t.Errorf("test vector wrong: graph says %d ≼ %d", p.a, p.b)
				}
				if out.OrderedLE(p.a, p.b) {
					t.Errorf("stream: want %d ⋠ %d", p.a, p.b)
				}
			}
		})
	}
}

// TestPostTransferClocks pins the exact clock contents after the POST
// transfer in the "post" trace above: context 0 is thread 1's root
// (three ops), context 1 is thread 2's root, context 2 is task p. The
// write inside p must carry thread 2's pre-post past only in its Full
// view (the post is cross-thread), never in its ST view.
func TestPostTransferClocks(t *testing.T) {
	info := analyze(t, trace.FromOps([]trace.Op{
		trace.ThreadInit(1),   // 0
		trace.AttachQ(1),      // 1
		trace.LoopOnQ(1),      // 2
		trace.ThreadInit(2),   // 3
		trace.Write(2, "x"),   // 4
		trace.Post(2, "p", 1), // 5
		trace.Begin(1, "p"),   // 6
		trace.Write(1, "x"),   // 7
		trace.End(1, "p"),     // 8
	}))
	out := runStream(t, info, hb.DefaultConfig(), false)
	st, full := out.Clocks(7)
	wantST := vc.VC{0: 3, 2: 2}
	wantFull := vc.VC{0: 3, 1: 3, 2: 2}
	if !st.Equal(wantST) {
		t.Errorf("ST view of op 7 = %v, want %v", st, wantST)
	}
	if !full.Equal(wantFull) {
		t.Errorf("Full view of op 7 = %v, want %v", full, wantFull)
	}
	if ep := out.EpochOf(7); ep != (vc.Epoch{C: 2, T: 2}) {
		t.Errorf("epoch of op 7 = %v, want 2@2", ep)
	}
}

// TestStreamRaceSetOrderStable is the quick.Check property that the
// streaming race set is deterministic and emerges already sorted by the
// (First, Second) merge order, independent of replay internals: two
// replays of one explored trace agree element-for-element.
func TestStreamRaceSetOrderStable(t *testing.T) {
	app, err := apps.New("Aard Dictionary")
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		res, err := explorer.RandomExplore(apps.Factory(app), explorer.RandomOptions{
			Events: 4, Runs: 1, Seed: seed,
		})
		if err != nil || len(res.Tests) == 0 {
			return false
		}
		info, err := trace.Analyze(res.Tests[0].Trace)
		if err != nil {
			return false
		}
		for _, dedup := range []bool{false, true} {
			a := runStream(t, info, hb.DefaultConfig(), dedup)
			b := runStream(t, info, hb.DefaultConfig(), dedup)
			if len(a.Races) != len(b.Races) {
				return false
			}
			for i := range a.Races {
				if a.Races[i] != b.Races[i] {
					return false
				}
				if i > 0 && (a.Races[i].First < a.Races[i-1].First ||
					(a.Races[i].First == a.Races[i-1].First && a.Races[i].Second <= a.Races[i-1].Second)) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

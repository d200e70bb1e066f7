package jobs

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"

	"droidracer/internal/android"
	"droidracer/internal/core"
	"droidracer/internal/explorer"
	"droidracer/internal/journal"
	"droidracer/internal/race"
)

// Campaign is one restartable exploration campaign: a bound-k DFS over
// an app model's UI events (§5) with every recorded test analyzed for
// races as it is produced. Its progress lives in a write-ahead journal
// under a state directory, so a crash — power loss, OOM-kill, SIGKILL
// mid-drain — loses at most the subtree currently being explored; a
// resume skips every journaled subtree and merges the journaled race
// results with the newly computed ones.
//
// Resume invariant: the explorer marks a subtree done only after all of
// its tests are durably journaled (explorer.CheckpointSink), so
// union(journaled races, re-explored races) over any crash/resume
// schedule equals the race set of an uninterrupted run.
type Campaign struct {
	// Name identifies the campaign; a journal records it and refuses to
	// resume under a different name.
	Name string
	// Factory builds the app environment per exploration run.
	Factory explorer.AppFactory
	// Explore bounds the DFS. Checkpoint and OnTest are owned by the
	// campaign runner and must be nil.
	Explore explorer.Options
	// Analyze configures the per-test race analysis.
	Analyze core.Options
}

// RaceID identifies a race stably across runs and replays: the
// classification, the location, and the replay-stable access keys of the
// two accesses (see race.AccessKey). Journaled races from a pre-crash
// run are merged with post-resume races by this identity.
type RaceID struct {
	Cat      int    `json:"cat"`
	Category string `json:"category"`
	Loc      string `json:"loc"`
	First    string `json:"first"`
	Second   string `json:"second"`
}

func (id RaceID) less(o RaceID) bool {
	if id.Cat != o.Cat {
		return id.Cat < o.Cat
	}
	if id.Loc != o.Loc {
		return id.Loc < o.Loc
	}
	if id.First != o.First {
		return id.First < o.First
	}
	return id.Second < o.Second
}

// CampaignResult is the merged outcome of a (possibly resumed) campaign.
type CampaignResult struct {
	// Name echoes the campaign name.
	Name string
	// Races is the deduplicated union of races across all tests, sorted.
	Races []RaceID
	// Summary tallies Races by category — the classification counts the
	// chaos tests compare across kill/resume schedules.
	Summary race.Summary
	// Tests counts distinct recorded tests (journaled + new).
	Tests int
	// ResumedTests counts tests recovered from the journal rather than
	// re-executed.
	ResumedTests int
	// SequencesExplored counts DFS prefixes executed in this process
	// (resumed subtrees are skipped, not re-counted).
	SequencesExplored int
	// Resumed reports that journaled pre-crash work contributed.
	Resumed bool
	// Complete reports that the DFS ran to the bound; false when a
	// budget trip or drain checkpointed mid-campaign.
	Complete bool
	// Recovered reports what journal recovery kept and discarded when
	// this run reopened the state directory (zero on a fresh start):
	// a non-zero torn tail means the previous incarnation died
	// mid-append and that work will be re-explored.
	Recovered journal.RecoveryStats
}

// Journal entry payloads.
type campaignHeader struct {
	Name      string `json:"name"`
	MaxEvents int    `json:"maxEvents"`
	Seed      int64  `json:"seed"`
	RecordAll bool   `json:"recordAll"`
}

type testEntry struct {
	Key   string   `json:"key"`
	Mode  string   `json:"mode"` // "full", "error"
	Races []RaceID `json:"races,omitempty"`
	Err   string   `json:"err,omitempty"`
}

type doneEntry struct {
	Key string `json:"key"`
}

// JournalName is the campaign journal file inside a state directory.
const JournalName = "campaign.journal"

// seqKey renders an event sequence as its stable journal key, e.g.
// "click(play);BACK" ("<root>" for the empty prefix, which is also a
// DFS node).
func seqKey(seq []android.UIEvent) string {
	if len(seq) == 0 {
		return "<root>"
	}
	s := ""
	for i, ev := range seq {
		if i > 0 {
			s += ";"
		}
		s += ev.String()
	}
	return s
}

// Header reads the campaign identity journaled under stateDir: the
// campaign (= app model) name and the exploration options the campaign
// was started with. Resume front-ends use it to rebuild the Campaign
// value without the caller re-specifying the original flags.
func Header(stateDir string) (string, explorer.Options, error) {
	st, err := recoverCampaign(filepath.Join(stateDir, JournalName))
	if err != nil {
		return "", explorer.Options{}, err
	}
	if st.header == nil {
		return "", explorer.Options{}, fmt.Errorf("jobs: %s holds no campaign journal", stateDir)
	}
	return st.header.Name, explorer.Options{
		MaxEvents: st.header.MaxEvents,
		Seed:      st.header.Seed,
		RecordAll: st.header.RecordAll,
	}, nil
}

// campaignState is what recovery reads back from a journal.
type campaignState struct {
	header   *campaignHeader
	done     map[string]bool
	tests    map[string]testEntry
	complete bool
}

func recoverCampaign(path string) (*campaignState, error) {
	entries, err := journal.Recover(path)
	if err != nil {
		return nil, err
	}
	st := &campaignState{done: make(map[string]bool), tests: make(map[string]testEntry)}
	for _, e := range entries {
		switch e.Type {
		case "campaign":
			var h campaignHeader
			if err := e.Decode(&h); err != nil {
				return nil, err
			}
			st.header = &h
		case "test":
			var t testEntry
			if err := e.Decode(&t); err != nil {
				return nil, err
			}
			// A crash between a test entry and its subtree's done marker
			// re-records the test on resume; last write wins.
			st.tests[t.Key] = t
		case "done":
			var d doneEntry
			if err := e.Decode(&d); err != nil {
				return nil, err
			}
			st.done[d.Key] = true
		case "campaign-done":
			st.complete = true
		}
	}
	return st, nil
}

// journalSink adapts the journal to explorer.CheckpointSink: done
// markers are fsync'd before SubtreeDone returns, making "skip this
// subtree on resume" safe.
type journalSink struct {
	w    *journal.Writer
	done map[string]bool
}

func (s *journalSink) SkipSubtree(prefix []android.UIEvent) bool {
	return s.done[seqKey(prefix)]
}

func (s *journalSink) SubtreeDone(prefix []android.UIEvent) error {
	key := seqKey(prefix)
	if err := s.w.Append("done", doneEntry{Key: key}); err != nil {
		return err
	}
	// The done marker is the durability barrier: every test entry of the
	// subtree precedes it in the journal, so one fsync covers them all.
	if err := s.w.Sync(); err != nil {
		return err
	}
	s.done[key] = true
	return nil
}

// RunCampaign executes (or resumes) a campaign with its journal under
// stateDir. A first run explores from scratch, journaling as it goes; a
// resume validates the journal header against c, skips completed
// subtrees, and merges journaled test results. A campaign whose journal
// already holds the campaign-done marker is rebuilt entirely from the
// journal without touching the app model (idempotent re-resume).
//
// On a budget trip or context cancellation the work completed so far is
// journaled and the partial CampaignResult is returned together with the
// error — the state directory is always left resumable.
func RunCampaign(ctx context.Context, c Campaign, stateDir string) (*CampaignResult, error) {
	if c.Explore.Checkpoint != nil || c.Explore.OnTest != nil {
		return nil, fmt.Errorf("jobs: campaign %s: Explore.Checkpoint/OnTest are owned by the campaign runner", c.Name)
	}
	path := filepath.Join(stateDir, JournalName)
	st, err := recoverCampaign(path)
	if err != nil {
		return nil, err
	}
	if st.header != nil {
		h := *st.header
		if h.Name != c.Name || h.MaxEvents != c.Explore.MaxEvents ||
			h.Seed != c.Explore.Seed || h.RecordAll != c.Explore.RecordAll {
			return nil, fmt.Errorf("jobs: state dir %s holds campaign %q (k=%d, seed=%d), not %q (k=%d, seed=%d)",
				stateDir, h.Name, h.MaxEvents, h.Seed, c.Name, c.Explore.MaxEvents, c.Explore.Seed)
		}
	}
	resumedTests := len(st.tests)
	if st.complete {
		// Nothing left to explore; the journal is the result.
		res := mergeCampaign(c.Name, st.tests, nil, resumedTests, 0)
		res.Resumed = true
		res.Complete = true
		return res, nil
	}
	w, err := journal.Create(path)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if st.header == nil {
		if err := w.Append("campaign", campaignHeader{
			Name: c.Name, MaxEvents: c.Explore.MaxEvents,
			Seed: c.Explore.Seed, RecordAll: c.Explore.RecordAll,
		}); err != nil {
			return nil, err
		}
		if err := w.Sync(); err != nil {
			return nil, err
		}
	}

	newTests := make(map[string]testEntry)
	opts := c.Explore
	opts.Checkpoint = &journalSink{w: w, done: st.done}
	opts.OnTest = func(t *explorer.Test) error {
		entry := analyzeTest(ctx, c.Analyze, t)
		newTests[entry.Key] = entry
		// Durable before the subtree's done marker (explorer calls
		// SubtreeDone, which syncs, strictly afterwards); the explicit
		// append keeps the entry inside the next sync's chunk.
		return w.Append("test", entry)
	}

	res, xerr := explorer.ExploreContext(ctx, c.Factory, opts)
	explored := 0
	if res != nil {
		explored = res.SequencesExplored
	}
	if xerr != nil {
		// Checkpointed mid-campaign (budget, cancellation, model error):
		// persist what we have and hand back a resumable partial result.
		w.Sync()
		out := mergeCampaign(c.Name, st.tests, newTests, resumedTests, explored)
		out.Resumed = resumedTests > 0
		out.Recovered = w.Recovered()
		return out, xerr
	}
	if err := w.Append("campaign-done", struct{}{}); err != nil {
		return nil, err
	}
	if err := w.Sync(); err != nil {
		return nil, err
	}
	out := mergeCampaign(c.Name, st.tests, newTests, resumedTests, explored)
	out.Resumed = resumedTests > 0
	out.Complete = true
	out.Recovered = w.Recovered()
	return out, nil
}

// analyzeTest runs the race analysis on one recorded test and renders
// the journal entry. Analysis failure is recorded, not fatal: the
// campaign's job is to preserve exploration work, and a deterministic
// analysis error will recur identically on resume.
func analyzeTest(ctx context.Context, opts core.Options, t *explorer.Test) testEntry {
	entry := testEntry{Key: seqKey(t.Sequence), Mode: "full"}
	res, err := core.AnalyzeContext(ctx, t.Trace, opts)
	if err != nil || res == nil {
		entry.Mode = "error"
		if err != nil {
			entry.Err = err.Error()
		}
		return entry
	}
	entry.Races = raceIDs(res)
	return entry
}

// raceIDs converts detected races to their replay-stable identities.
// When an access key is unavailable, the trace indices — which are
// deterministic for a fixed exploration seed — stand in.
func raceIDs(res *core.Result) []RaceID {
	ids := make([]RaceID, 0, len(res.Races))
	for _, r := range res.Races {
		id := RaceID{Cat: int(r.Category), Category: r.Category.String(), Loc: string(r.Loc)}
		if ka, err := race.KeyOf(res.Info, r.First); err == nil {
			id.First = accessKeyString(ka)
		}
		if kb, err := race.KeyOf(res.Info, r.Second); err == nil {
			id.Second = accessKeyString(kb)
		}
		if id.First == "" {
			id.First = fmt.Sprintf("@%d", r.First)
		}
		if id.Second == "" {
			id.Second = fmt.Sprintf("@%d", r.Second)
		}
		ids = append(ids, id)
	}
	return ids
}

func accessKeyString(k race.AccessKey) string {
	return fmt.Sprintf("%s|%s|t%d|%d", k.Loc, k.TaskBase, k.Thread, k.Ordinal)
}

// mergeCampaign unions journaled and new test results into the final
// deduplicated, sorted race set.
func mergeCampaign(name string, old, new map[string]testEntry, resumedTests, explored int) *CampaignResult {
	seen := make(map[RaceID]bool)
	var races []RaceID
	var sum race.Summary
	tests := 0
	add := func(m map[string]testEntry) {
		for _, t := range m {
			tests++
			for _, id := range t.Races {
				if seen[id] {
					continue
				}
				seen[id] = true
				races = append(races, id)
				switch race.Category(id.Cat) {
				case race.Multithreaded:
					sum.Multithreaded++
				case race.CoEnabled:
					sum.CoEnabled++
				case race.Delayed:
					sum.Delayed++
				case race.CrossPosted:
					sum.CrossPosted++
				default:
					sum.Unknown++
				}
			}
		}
	}
	// New results win over journaled ones for the same key (a test
	// re-recorded after a crash between its entry and the done marker).
	merged := make(map[string]testEntry, len(old)+len(new))
	for k, v := range old {
		merged[k] = v
	}
	for k, v := range new {
		merged[k] = v
	}
	add(merged)
	sort.Slice(races, func(i, j int) bool { return races[i].less(races[j]) })
	return &CampaignResult{
		Name:              name,
		Races:             races,
		Summary:           sum,
		Tests:             tests,
		ResumedTests:      resumedTests,
		SequencesExplored: explored,
	}
}

// Package minimize shrinks an execution trace while preserving a chosen
// data race — delta-debugging support for race reports, complementing the
// explanations of internal/explain. The result is a small witness trace a
// developer can read end to end (and render with racedet -dot).
//
// The reduction is greedy over three candidate classes, largest first:
//
//  1. whole threads (with every task transitively posted by them),
//  2. whole asynchronous tasks (with every task transitively posted from
//     inside them),
//  3. memory accesses of unrelated locations (always safe: accesses
//     induce no happens-before edges).
//
// A candidate removal is kept only when the reduced trace is still a
// valid execution (Figure 5) and the race — identified structurally via
// race.AccessKey, not by position — is still reported. The race check
// and the final classification replay each candidate on the streaming
// engine with recorded clocks; MinimizeWith accepts another
// happens-before oracle (the graph engine, in the tests).
package minimize

import (
	"fmt"

	"droidracer/internal/hb"
	"droidracer/internal/race"
	"droidracer/internal/semantics"
	"droidracer/internal/stream"
	"droidracer/internal/trace"
)

// Result is a completed minimization.
type Result struct {
	// Trace is the reduced trace.
	Trace *trace.Trace
	// Race is the preserved race, re-indexed into the reduced trace.
	Race race.Race
	// Removed counts operations eliminated from the original.
	Removed int
}

// Order computes the happens-before relation of one analyzed trace
// under cfg, as a reflexive αi ≼ αj predicate.
type Order func(info *trace.Info, cfg hb.Config) (func(i, j int) bool, error)

// streamOrder replays the trace on the streaming engine with recorded
// clocks. It fails only for configurations the streaming engine does
// not support (the STOnly ablation).
func streamOrder(info *trace.Info, cfg hb.Config) (func(i, j int) bool, error) {
	out, err := stream.Run(info, stream.Options{HB: cfg, RecordClocks: true}, nil)
	if err != nil {
		return nil, err
	}
	return out.OrderedLE, nil
}

// Minimize reduces tr while preserving r (which must be a race detected
// on tr under cfg).
func Minimize(tr *trace.Trace, r race.Race, cfg hb.Config) (*Result, error) {
	return MinimizeWith(tr, r, cfg, streamOrder)
}

// MinimizeWith is Minimize over the given happens-before oracle.
func MinimizeWith(tr *trace.Trace, r race.Race, cfg hb.Config, order Order) (*Result, error) {
	info, err := trace.Analyze(tr)
	if err != nil {
		return nil, err
	}
	keyA, err := race.KeyOf(info, r.First)
	if err != nil {
		return nil, err
	}
	keyB, err := race.KeyOf(info, r.Second)
	if err != nil {
		return nil, err
	}
	m := &minimizer{cfg: cfg, order: order, keyA: keyA, keyB: keyB}
	if !m.racePresent(tr) {
		return nil, fmt.Errorf("minimize: the given race is not present in the trace")
	}

	cur := tr
	// Drop unrelated accesses first: always happens-before-safe and
	// usually the bulk of the trace.
	if reduced := m.try(cur, dropForeignAccesses(cur, keyA.Loc, keyB.Loc)); reduced != nil {
		cur = reduced
	}
	// Then greedily remove threads and tasks to a fixpoint.
	for {
		reduced := m.removeOneCandidate(cur)
		if reduced == nil {
			break
		}
		cur = reduced
	}

	info, err = trace.Analyze(cur)
	if err != nil {
		return nil, err
	}
	a, b := race.FindAccess(info, keyA), race.FindAccess(info, keyB)
	first, second := a, b
	if second < first {
		first, second = second, first
	}
	le, err := order(info, cfg)
	if err != nil {
		return nil, err
	}
	out := race.Race{
		First:    first,
		Second:   second,
		Loc:      keyA.Loc,
		Category: race.NewClassifier(info, le).Classify(first, second),
	}
	return &Result{Trace: cur, Race: out, Removed: tr.Len() - cur.Len()}, nil
}

type minimizer struct {
	cfg        hb.Config
	order      Order
	keyA, keyB race.AccessKey
}

// racePresent checks the identified pair still conflicts and is unordered.
func (m *minimizer) racePresent(tr *trace.Trace) bool {
	info, err := trace.Analyze(tr)
	if err != nil {
		return false
	}
	if i, err := semantics.ValidateInferred(tr); err != nil || i >= 0 {
		return false
	}
	a, b := race.FindAccess(info, m.keyA), race.FindAccess(info, m.keyB)
	if a < 0 || b < 0 || a == b {
		return false
	}
	if !tr.Op(a).Conflicts(tr.Op(b)) {
		return false
	}
	le, err := m.order(info, m.cfg)
	if err != nil {
		return false
	}
	return !le(a, b) && !le(b, a)
}

// try returns candidate when it is a valid reduction preserving the race,
// else nil. A nil or not-smaller candidate is rejected outright.
func (m *minimizer) try(cur, candidate *trace.Trace) *trace.Trace {
	if candidate == nil || candidate.Len() >= cur.Len() {
		return nil
	}
	if !m.racePresent(candidate) {
		return nil
	}
	return candidate
}

// removeOneCandidate attempts every thread and task removal and returns
// the first successful reduction, or nil.
func (m *minimizer) removeOneCandidate(cur *trace.Trace) *trace.Trace {
	info, err := trace.Analyze(cur)
	if err != nil {
		return nil
	}
	for _, t := range info.Threads() {
		if reduced := m.try(cur, dropThread(cur, info, t)); reduced != nil {
			return reduced
		}
	}
	// Tasks in trace order.
	seen := map[trace.TaskID]bool{}
	for _, op := range cur.Ops() {
		if op.Kind != trace.OpBegin || seen[op.Task] {
			continue
		}
		seen[op.Task] = true
		if reduced := m.try(cur, dropTasks(cur, info, map[trace.TaskID]bool{op.Task: true})); reduced != nil {
			return reduced
		}
	}
	return nil
}

// dropForeignAccesses removes read/write operations on locations other
// than the racing ones.
func dropForeignAccesses(tr *trace.Trace, keep ...trace.Loc) *trace.Trace {
	keepSet := map[trace.Loc]bool{}
	for _, l := range keep {
		keepSet[l] = true
	}
	out := trace.New(tr.Len())
	for _, op := range tr.Ops() {
		if op.Kind.IsAccess() && !keepSet[op.Loc] {
			continue
		}
		out.Append(op)
	}
	return out
}

// taskClosure expands the victim set with every task posted from inside a
// victim task (their posts disappear with the parent).
func taskClosure(tr *trace.Trace, info *trace.Info, victims map[trace.TaskID]bool) {
	for changed := true; changed; {
		changed = false
		for _, op := range tr.Ops() {
			if op.Kind != trace.OpPost || victims[op.Task] {
				continue
			}
			if parent := info.Task(info.PostIdx(op.Task)); parent != "" && victims[parent] {
				victims[op.Task] = true
				changed = true
			}
		}
	}
}

// dropTasks removes every operation belonging to the victim tasks, their
// posts and enables, transitively including tasks posted from inside them.
func dropTasks(tr *trace.Trace, info *trace.Info, victims map[trace.TaskID]bool) *trace.Trace {
	taskClosure(tr, info, victims)
	out := trace.New(tr.Len())
	for i, op := range tr.Ops() {
		if victims[info.Task(i)] {
			continue
		}
		switch op.Kind {
		case trace.OpPost, trace.OpEnable, trace.OpCancel:
			if victims[op.Task] {
				continue
			}
		}
		out.Append(op)
	}
	return out
}

// dropThread removes a thread: all its operations, fork/join references
// to it, every post targeting its queue, and (transitively) every task it
// posted anywhere.
func dropThread(tr *trace.Trace, info *trace.Info, t trace.ThreadID) *trace.Trace {
	victims := map[trace.TaskID]bool{}
	for _, op := range tr.Ops() {
		if op.Kind == trace.OpPost && (op.Thread == t || op.Other == t) {
			victims[op.Task] = true
		}
	}
	taskClosure(tr, info, victims)
	out := trace.New(tr.Len())
	for i, op := range tr.Ops() {
		if op.Thread == t || victims[info.Task(i)] {
			continue
		}
		switch op.Kind {
		case trace.OpFork, trace.OpJoin:
			if op.Other == t {
				continue
			}
		case trace.OpPost, trace.OpEnable, trace.OpCancel:
			if victims[op.Task] {
				continue
			}
		}
		out.Append(op)
	}
	return out
}

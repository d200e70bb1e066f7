// Package stream implements the streaming vector-clock analysis engine:
// a second backend that replays the trace event-by-event and reports the
// same races as the happens-before graph engine without materializing a
// graph or running a transitive closure.
//
// Every program-order segment — a thread's pre-loop region, one
// asynchronous task, one merged run of out-of-task accesses — is a
// *context* carrying two vector clocks: an ST view (which operations
// precede this point via single-threaded Figure 6 rules alone) and a
// Full view (which precede it via any rule path). Each Figure 6–7 rule
// becomes a clock transfer: an st edge joins the source's ST view into
// the target's ST view and its Full view into the target's Full view; an
// mt edge joins Full into Full only. Ordering queries then decompose
// exactly like the paper's st/mt relation: a same-thread pair consults
// the ST view, a cross-thread pair the Full view. Ops are stamped with
// FastTrack-style epochs (context, time), and shadow state per memory
// location answers most race checks with a single epoch-in-clock
// comparison.
//
// The engine is exact with respect to the graph engine for every query
// race detection makes (access-pair ordering and the classifier's
// post-ordering oracle): same-thread mt base edges exist in the graph
// (e.g. a thread forking itself) but never touch accesses or posts, and
// the graph's edges all point forward in trace order, so a single
// forward pass computes final views (see DESIGN.md §17 for the
// rule-by-rule transfer table and the equivalence argument).
package stream

import (
	"errors"
	"sort"

	"droidracer/internal/budget"
	"droidracer/internal/hb"
	"droidracer/internal/race"
	"droidracer/internal/trace"
	"droidracer/internal/vc"
)

// ErrSTOnly is returned for the STOnly ablation, which the streaming
// engine does not support: STOnly truncates the multithreaded relation
// non-transitively (base mt edges without closure), which a clock —
// inherently transitive — cannot express. The graph engine remains the
// backend for that ablation.
var ErrSTOnly = errors.New("stream: STOnly ablation requires the graph engine")

// Options configures one streaming analysis.
type Options struct {
	// HB carries the same rule toggles as the graph engine. STOnly is
	// rejected (ErrSTOnly); every other combination is supported.
	HB hb.Config
	// Dedup reports one representative race per (location, category) —
	// the same representative DetectDeduped picks.
	Dedup bool
	// RecordClocks retains per-operation view snapshots so explanations,
	// minimization and tests can query arbitrary op pairs via
	// Outcome.OrderedLE and Outcome.Clocks. Costs O(ops × clock width)
	// memory; the analysis pipeline leaves it off.
	RecordClocks bool
}

// Stats summarizes the work one replay performed.
type Stats struct {
	// Ops is the number of trace operations replayed.
	Ops int
	// Contexts is the number of clock contexts created (thread roots,
	// task slots, stray runs).
	Contexts int
	// Joins is the number of clock components raised by rule transfers.
	Joins int
	// EpochHits counts shadow-state scans skipped because a location
	// summary clock was covered by the accessor's view.
	EpochHits int
	// Pairs is the number of candidate access pairs actually examined.
	Pairs int
}

// Outcome is the result of one streaming replay.
type Outcome struct {
	// Races is the detected race set, sorted by (First, Second); with
	// Options.Dedup it holds one representative per (location,
	// category), exactly the pair DetectDeduped reports.
	Races []race.Race
	// Stats summarizes the replay.
	Stats Stats

	info   *trace.Info
	naive  bool
	epochs []vc.Epoch
	runID  []int32
	stV    []vc.VC // per-op ST views; RecordClocks only
	fullV  []vc.VC // per-op Full views; RecordClocks only
}

// Run replays the trace under the given options. On a budget trip the
// partial (still sound) race set found so far is returned together with
// the *budget.Error.
func Run(info *trace.Info, opts Options, ck *budget.Checker) (*Outcome, error) {
	if opts.HB.STOnly {
		return nil, ErrSTOnly
	}
	e := newEngine(info, opts, ck)
	err := e.replay()
	out := &Outcome{
		Races:  e.finish(),
		Stats:  e.stats,
		info:   info,
		naive:  e.naive,
		epochs: e.epochs,
		runID:  e.runID,
		stV:    e.stV,
		fullV:  e.fullV,
	}
	publishReplay(out)
	return out, err
}

// Info returns the trace annotations the replay ran over.
func (o *Outcome) Info() *trace.Info { return o.info }

// OrderedLE reports αi ≼ αj over the replayed relation, decomposed
// exactly as the graph's OrderedLE for the pairs race analysis queries.
// Requires Options.RecordClocks.
func (o *Outcome) OrderedLE(i, j int) bool {
	if i == j {
		return true
	}
	if i > j {
		return false
	}
	if o.runID != nil && o.runID[i] >= 0 && o.runID[i] == o.runID[j] {
		return true // same merged access run: ordered by trace position
	}
	if o.stV == nil {
		panic("stream: OrderedLE requires Options.RecordClocks")
	}
	tr := o.info.Trace()
	if !o.naive && tr.Op(i).Thread == tr.Op(j).Thread {
		return o.epochs[i].LEq(o.stV[j])
	}
	return o.epochs[i].LEq(o.fullV[j])
}

// Clocks returns copies of operation i's ST and Full views (after the
// op executed). Requires Options.RecordClocks.
func (o *Outcome) Clocks(i int) (st, full vc.VC) {
	if o.stV == nil {
		panic("stream: Clocks requires Options.RecordClocks")
	}
	return o.stV[i].Copy(), o.fullV[i].Copy()
}

// EpochOf returns the (context, time) stamp of operation i.
func (o *Outcome) EpochOf(i int) vc.Epoch { return o.epochs[i] }

// ctx is one program-order segment's clock state. Views are
// own-inclusive: after an op ticks, view[id] is that op's time, so
// joining a view transfers the source op itself along with its past.
// Under Config.Naive st and full alias one map (the naive combination
// has a single, unrestricted relation).
type ctx struct {
	id   vc.ID
	time uint64
	st   vc.VC
	full vc.VC
}

// snap is a frozen copy of a context's views at one operation, stored
// where a rule will later need the source side of a clock transfer.
type snap struct {
	st   vc.VC
	full vc.VC
}

// taskState is the per-asynchronous-task bookkeeping.
type taskState struct {
	id      trace.TaskID
	postIdx int
	postOp  trace.Op
	post    snap // views at the post op; set once the post is replayed
	postSet bool

	c    *ctx
	base uint64 // c.time before the task's first op

	endEpoch vc.Epoch
	end      snap
	ended    bool

	// fullyCovered records that every earlier task on this thread had
	// end ≼st this task's begin when it began — the prefix property the
	// FIFO/NOPRE walk uses to stop early.
	fullyCovered bool
}

type threadState struct {
	id   trace.ThreadID
	loop int
	root *ctx

	curTask *taskState
	begun   []*taskState // tasks begun on this thread, in begin order

	strayCtx *ctx // context of the current merged out-of-task access run
	strayRun int32
}

// accEntry is one access in a location's shadow state.
type accEntry struct {
	idx   int
	ep    vc.Epoch
	write bool
}

// threadAcc groups a location's accesses by thread, with summary clocks
// over write (wSum) and all (aSum) entry epochs for the epoch fast path.
type threadAcc struct {
	entries []accEntry
	wSum    vc.VC
	aSum    vc.VC
}

// locState is the shadow state of one memory location.
type locState struct {
	threads map[trace.ThreadID]*threadAcc
	order   []trace.ThreadID
	best    [race.Unknown + 1]race.Race
	seen    [race.Unknown + 1]bool
}

type engine struct {
	info  *trace.Info
	tr    *trace.Trace
	cfg   hb.Config
	ck    *budget.Checker
	dedup bool
	naive bool

	nextCtx vc.ID
	epochs  []vc.Epoch
	runID   []int32 // merged-run id per access, -1 otherwise; nil unless MergeAccesses

	threads map[trace.ThreadID]*threadState
	tasks   map[trace.TaskID]*taskState
	postOf  map[int]*taskState // post trace index → its task

	enables  map[trace.TaskID]snap    // views at each task's first enable
	attach   map[trace.ThreadID]snap  // views at each thread's attachQ
	forkAcc  map[trace.ThreadID]vc.VC // Full views of forks targeting a thread
	exitSnap map[trace.ThreadID]vc.VC // Full view at a thread's last exit
	lastInit map[trace.ThreadID]int
	lastExit map[trace.ThreadID]int
	lockRel  map[trace.LockID]map[trace.ThreadID]vc.VC

	locs map[trace.Loc]*locState
	cl   *race.Classifier
	all  []race.Race // non-dedup mode accumulator

	record bool
	stV    []vc.VC
	fullV  []vc.VC

	stats Stats
}

func newEngine(info *trace.Info, opts Options, ck *budget.Checker) *engine {
	e := &engine{
		info:     info,
		tr:       info.Trace(),
		cfg:      opts.HB,
		ck:       ck,
		dedup:    opts.Dedup,
		naive:    opts.HB.Naive,
		epochs:   make([]vc.Epoch, info.Trace().Len()),
		threads:  make(map[trace.ThreadID]*threadState),
		tasks:    make(map[trace.TaskID]*taskState),
		postOf:   make(map[int]*taskState),
		enables:  make(map[trace.TaskID]snap),
		attach:   make(map[trace.ThreadID]snap),
		forkAcc:  make(map[trace.ThreadID]vc.VC),
		exitSnap: make(map[trace.ThreadID]vc.VC),
		lastInit: make(map[trace.ThreadID]int),
		lastExit: make(map[trace.ThreadID]int),
		lockRel:  make(map[trace.LockID]map[trace.ThreadID]vc.VC),
		locs:     make(map[trace.Loc]*locState),
		record:   opts.RecordClocks,
	}
	e.cl = race.NewClassifier(info, e.orderedAt)
	if e.record {
		e.stV = make([]vc.VC, e.tr.Len())
		e.fullV = make([]vc.VC, e.tr.Len())
	}
	return e
}

// replay is the single forward pass. All graph edges point forward in
// trace order, so when an op is processed every rule source it could
// receive a transfer from already carries its final views.
func (e *engine) replay() error {
	e.prescan()
	for i, op := range e.tr.Ops() {
		if err := e.ck.Check(); err != nil {
			return err
		}
		e.stats.Ops++
		if err := e.step(i, op); err != nil {
			return err
		}
	}
	return nil
}

// prescan mirrors the graph's last-wins init/exit maps (FORK targets the
// last threadinit, JOIN sources the last threadexit) and, under
// MergeAccesses, assigns run ids: maximal same-thread sequences of
// accesses sharing one enclosing task, which the graph merges into one
// node and thereby orders internally by trace position.
func (e *engine) prescan() {
	type runState struct {
		run   int32
		task  trace.TaskID
		valid bool
	}
	var per map[trace.ThreadID]*runState
	var next int32
	if e.cfg.MergeAccesses {
		e.runID = make([]int32, e.tr.Len())
		per = make(map[trace.ThreadID]*runState)
	}
	for i, op := range e.tr.Ops() {
		switch op.Kind {
		case trace.OpThreadInit:
			e.lastInit[op.Thread] = i
		case trace.OpThreadExit:
			e.lastExit[op.Thread] = i
		}
		if e.runID == nil {
			continue
		}
		s := per[op.Thread]
		if !op.Kind.IsAccess() {
			if s != nil {
				s.valid = false
			}
			e.runID[i] = -1
			continue
		}
		if s == nil {
			s = &runState{}
			per[op.Thread] = s
		}
		if t := e.info.Task(i); !s.valid || s.task != t {
			next++
			s.run, s.task, s.valid = next, t, true
		}
		e.runID[i] = s.run
	}
}

func (e *engine) step(i int, op trace.Op) error {
	ts := e.thread(op.Thread)
	var c *ctx
	if op.Kind == trace.OpBegin && e.taskCtxs(ts, i) {
		c = e.beginTask(i, op, ts)
	} else {
		c = e.ctxFor(i, op, ts)
		e.applyIncoming(i, op, c)
	}
	c.time++
	t := c.time
	c.st[c.id] = t
	c.full[c.id] = t
	ep := vc.Epoch{C: c.id, T: t}
	e.epochs[i] = ep
	if e.record {
		e.stV[i] = c.st.Copy()
		e.fullV[i] = c.full.Copy()
	}
	e.applyOutgoing(i, op, c, ts)
	if op.Kind.IsAccess() {
		return e.access(i, op, c, ep)
	}
	return nil
}

// taskCtxs reports whether op i on ts lives in the per-task context
// regime: the thread loops on a queue, i is past the loop, and the
// WholeThreadPO ablation (which subsumes task boundaries under total
// program order) is off.
func (e *engine) taskCtxs(ts *threadState, i int) bool {
	return !e.cfg.WholeThreadPO && ts.loop >= 0 && i > ts.loop
}

func (e *engine) thread(id trace.ThreadID) *threadState {
	ts := e.threads[id]
	if ts == nil {
		st, full := e.newViews()
		ts = &threadState{id: id, loop: e.info.LoopIdx(id), root: e.mkCtx(st, full)}
		e.threads[id] = ts
	}
	return ts
}

func (e *engine) task(id trace.TaskID) *taskState {
	td := e.tasks[id]
	if td == nil {
		td = &taskState{id: id, postIdx: e.info.PostIdx(id)}
		e.tasks[id] = td
	}
	return td
}

func (e *engine) newViews() (st, full vc.VC) {
	st = vc.New()
	if e.naive {
		return st, st
	}
	return st, vc.New()
}

func (e *engine) mkCtx(st, full vc.VC) *ctx {
	id := e.nextCtx
	e.nextCtx++
	e.stats.Contexts++
	return &ctx{id: id, st: st, full: full}
}

// snapshot freezes c's views. Under Naive both fields alias one copy.
func (e *engine) snapshot(c *ctx) snap {
	st := c.st.Copy()
	if e.naive {
		return snap{st: st, full: st}
	}
	return snap{st: st, full: c.full.Copy()}
}

// ctxFor resolves the context of a non-begin operation: the thread root
// (pre-loop, queueless thread, or WholeThreadPO), the running task, or a
// stray context for post-loop out-of-task ops. Under MergeAccesses a
// maximal run of stray accesses shares one context — the graph merges
// them into a single node, ordering the run internally — while every
// other stray op gets a fresh singleton context, mutually unordered
// exactly as the graph leaves out-of-task nodes unordered.
func (e *engine) ctxFor(i int, op trace.Op, ts *threadState) *ctx {
	if !e.taskCtxs(ts, i) {
		return ts.root
	}
	if e.info.Task(i) != "" && ts.curTask != nil {
		return ts.curTask.c
	}
	if op.Kind.IsAccess() && e.runID != nil && ts.strayCtx != nil && e.runID[i] == ts.strayRun {
		return ts.strayCtx
	}
	// NO-Q-PO: loopOnQ precedes every post-loop region entry. Root views
	// are frozen after the loop op (the root region is the prefix), so
	// seeding from them is the loop→stray transfer.
	st, full := e.newViews()
	e.stats.Joins += st.JoinCounted(ts.root.st)
	if !e.naive {
		e.stats.Joins += full.JoinCounted(ts.root.full)
	}
	c := e.mkCtx(st, full)
	if op.Kind.IsAccess() && e.runID != nil {
		ts.strayCtx, ts.strayRun = c, e.runID[i]
	} else {
		ts.strayCtx = nil
	}
	return c
}

// beginTask replays OpBegin: it gathers every rule transfer targeting
// the begin (NO-Q-PO from the loop, POST, FIFO, NOPRE) into tentative
// views, then either reuses the previous task's context slot — sound
// when that task's end is ≼st this begin, which keeps clock width at
// O(threads) on FIFO-ordered loopers — or opens a fresh context.
func (e *engine) beginTask(i int, op trace.Op, ts *threadState) *ctx {
	td := e.task(op.Task)
	tst, tfull := e.newViews()

	// NO-Q-PO: loop → begin.
	e.stats.Joins += tst.JoinCounted(ts.root.st)
	if !e.naive {
		e.stats.Joins += tfull.JoinCounted(ts.root.full)
	}
	// POST-ST/MT: post(p) → begin(p). Analyze guarantees the post
	// precedes the begin, so its snapshot is final.
	if td.postSet {
		e.join(tst, tfull, td.postOp.Thread == op.Thread, td.post)
	}
	e.taskWalk(td, ts, tst, tfull)

	// Context slot: reuse the previous task's context iff its end is
	// already ≼st this begin under the tentative views.
	if n := len(ts.begun); n > 0 {
		if prev := ts.begun[n-1]; prev.ended && prev.endEpoch.LEq(tst) {
			c := prev.c
			e.stats.Joins += c.st.JoinCounted(tst)
			if !e.naive {
				e.stats.Joins += c.full.JoinCounted(tfull)
			}
			td.c, td.base = c, c.time
			ts.begun = append(ts.begun, td)
			ts.curTask = td
			return c
		}
	}
	c := e.mkCtx(tst, tfull)
	td.c, td.base = c, 0
	ts.begun = append(ts.begun, td)
	ts.curTask = td
	return c
}

// taskWalk applies FIFO and NOPRE: for each earlier ended task p1 on the
// thread whose end is not yet ≼st this begin, test the rule premises
// against p1's and this task's post snapshots and, when one holds, join
// p1's end views. Walking newest-first lets a covered task that was
// itself fully covered terminate the walk: every older task is then
// transitively covered.
func (e *engine) taskWalk(td *taskState, ts *threadState, tst, tfull vc.VC) {
	if !e.cfg.FIFO && !e.cfg.NoPre {
		td.fullyCovered = len(ts.begun) == 0
		return
	}
	fully := true
	for k := len(ts.begun) - 1; k >= 0; k-- {
		p1 := ts.begun[k]
		if !p1.ended { // trace ends inside p1; no end to order
			fully = false
			continue
		}
		if p1.endEpoch.LEq(tst) {
			if p1.fullyCovered {
				break
			}
			continue
		}
		added := false
		if e.cfg.FIFO && td.postSet && p1.postSet &&
			fifoCompatible(p1.postOp, td.postOp) && e.orderedAt(p1.postIdx, td.postIdx) {
			added = true
		}
		if !added && e.cfg.NoPre && td.postSet && e.noPreHolds(p1, td, ts.id) {
			added = true
		}
		if added {
			// FIFO/NOPRE: end(p1) → begin(p2) is an st edge.
			e.join(tst, tfull, true, p1.end)
		} else {
			fully = false
		}
	}
	td.fullyCovered = fully
}

// noPreHolds tests the NOPRE premise: some operation of p1 is ≼ this
// task's post. The post may run inside p1 itself (reflexivity); else
// the post's view must cover part of p1's context segment — a component
// past p1's base time means some p1 op reaches the post. Same-thread
// reach is st-only (the only base mt edges out of a task's ops that
// reach a post, ENABLE-MT, are cross-thread by construction). p1 runs
// on thread t.
func (e *engine) noPreHolds(p1, td *taskState, t trace.ThreadID) bool {
	if e.info.Task(td.postIdx) == p1.id {
		return true
	}
	view := td.post.full
	if !e.naive && td.postOp.Thread == t {
		view = td.post.st
	}
	return view.Get(p1.c.id) > p1.base
}

// join transfers a snapshot along an edge: st edges feed both views,
// mt edges the Full view only (Naive aliases the two, making every
// edge feed the single combined relation).
func (e *engine) join(tst, tfull vc.VC, sameThread bool, s snap) {
	if sameThread {
		e.stats.Joins += tst.JoinCounted(s.st)
	}
	e.stats.Joins += tfull.JoinCounted(s.full)
}

// orderedAt reports αx ≼ αy for the post-ordering queries the FIFO
// premise and the race classifier make, answered from retained post
// snapshots: x ≼ y iff x's epoch is in y's (thread-appropriate) view.
func (e *engine) orderedAt(x, y int) bool {
	if x == y {
		return true
	}
	if x > y {
		return false
	}
	ty := e.postOf[y]
	if ty == nil || !ty.postSet {
		return false
	}
	if !e.naive && e.tr.Op(x).Thread == e.tr.Op(y).Thread {
		return e.epochs[x].LEq(ty.post.st)
	}
	return e.epochs[x].LEq(ty.post.full)
}

// applyIncoming joins every rule transfer targeting a non-begin op into
// its context. A transfer whose source has not been replayed yet
// corresponds to a backward rule instance, which the graph rejects; the
// missing snapshot skips it here for the same effect.
func (e *engine) applyIncoming(i int, op trace.Op, c *ctx) {
	switch op.Kind {
	case trace.OpBegin:
		// Reached only outside the per-task context regime (e.g.
		// WholeThreadPO collapses tasks into thread program order); the
		// POST rule still applies there, with task-rule transfers
		// subsumed by the total program order.
		if td := e.tasks[op.Task]; td != nil && td.postSet {
			e.join(c.st, c.full, td.postOp.Thread == op.Thread, td.post)
		}
	case trace.OpPost:
		// ENABLE-ST/MT: the task's first enable → its post.
		if e.cfg.EnableEdges {
			if en := e.info.EnableIdx(op.Task); en >= 0 {
				if s, ok := e.enables[op.Task]; ok {
					e.join(c.st, c.full, e.tr.Op(en).Thread == op.Thread, s)
				}
			}
		}
		// ATTACH-Q-MT: the target thread's attachQ → a cross-thread
		// post (same-thread posts are covered by program order).
		if op.Thread != op.Other {
			if s, ok := e.attach[op.Other]; ok {
				e.join(c.st, c.full, false, s)
			}
		}
	case trace.OpThreadInit:
		// FORK: every fork targeting this thread → its last init.
		if e.lastInit[op.Thread] == i {
			if acc := e.forkAcc[op.Thread]; acc != nil {
				e.stats.Joins += c.full.JoinCounted(acc)
			}
		}
	case trace.OpJoin:
		// JOIN: the joined thread's last exit → this join.
		if s := e.exitSnap[op.Other]; s != nil {
			e.stats.Joins += c.full.JoinCounted(s)
		}
	case trace.OpAcquire:
		// LOCK: every earlier release of this lock on another thread
		// (Naive: any thread) → this acquire.
		for relT, acc := range e.lockRel[op.Lock] {
			if e.naive || relT != op.Thread {
				e.stats.Joins += c.full.JoinCounted(acc)
			}
		}
	}
}

// applyOutgoing freezes the snapshots and accumulators that later ops'
// incoming transfers will consume.
func (e *engine) applyOutgoing(i int, op trace.Op, c *ctx, ts *threadState) {
	switch op.Kind {
	case trace.OpAttachQ:
		if e.info.AttachIdx(op.Thread) == i {
			e.attach[op.Thread] = e.snapshot(c)
		}
	case trace.OpEnable:
		if e.cfg.EnableEdges && e.info.EnableIdx(op.Task) == i {
			e.enables[op.Task] = e.snapshot(c)
		}
	case trace.OpPost:
		// Snapshots are only consumed for tasks that begin (POST edge,
		// FIFO/NOPRE premises, and the classifier all query posts of
		// begun tasks), so unexecuted tasks cost nothing.
		if e.info.BeginIdx(op.Task) >= 0 {
			td := e.task(op.Task)
			td.postOp = op
			td.post = e.snapshot(c)
			td.postSet = true
			e.postOf[i] = td
		}
	case trace.OpFork:
		acc := e.forkAcc[op.Other]
		if acc == nil {
			acc = vc.New()
			e.forkAcc[op.Other] = acc
		}
		e.stats.Joins += acc.JoinCounted(c.full)
	case trace.OpThreadExit:
		if e.lastExit[op.Thread] == i {
			e.exitSnap[op.Thread] = c.full.Copy()
		}
	case trace.OpRelease:
		m := e.lockRel[op.Lock]
		if m == nil {
			m = make(map[trace.ThreadID]vc.VC)
			e.lockRel[op.Lock] = m
		}
		acc := m[op.Thread]
		if acc == nil {
			acc = vc.New()
			m[op.Thread] = acc
		}
		e.stats.Joins += acc.JoinCounted(c.full)
	case trace.OpEnd:
		if ts.curTask != nil && ts.curTask.id == op.Task {
			td := ts.curTask
			td.endEpoch = e.epochs[i]
			td.end = e.snapshot(c)
			td.ended = true
			ts.curTask = nil
		}
	}
}

// access runs race detection for one read/write against the location's
// shadow state, then records the access. Partners are grouped by thread:
// cross-thread racing pairs are always Multithreaded, same-thread pairs
// carry the other four categories, and per-group summary clocks skip
// whole scans when every prior conflicting access is already ordered
// before this one.
func (e *engine) access(i int, op trace.Op, c *ctx, ep vc.Epoch) error {
	ls := e.locs[op.Loc]
	if ls == nil {
		ls = &locState{threads: make(map[trace.ThreadID]*threadAcc)}
		e.locs[op.Loc] = ls
	}
	w := op.Kind == trace.OpWrite
	var err error
	if e.dedup {
		err = e.scanDedup(i, op, c, ls, w)
	} else {
		err = e.scanAll(i, op, c, ls, w)
	}
	ta := ls.threads[op.Thread]
	if ta == nil {
		ta = &threadAcc{wSum: vc.New(), aSum: vc.New()}
		ls.threads[op.Thread] = ta
		ls.order = append(ls.order, op.Thread)
	}
	ta.entries = append(ta.entries, accEntry{idx: i, ep: ep, write: w})
	if w {
		ta.wSum.JoinEpoch(ep)
	}
	ta.aSum.JoinEpoch(ep)
	return err
}

// orderedSame reports whether prior same-thread access a is ≼ the
// current op in context c. Accesses merged into one graph node (same
// run) are ordered by trace position; otherwise the ST view decides.
func (e *engine) orderedSame(a accEntry, i int, c *ctx) bool {
	if e.runID != nil && e.runID[a.idx] == e.runID[i] {
		return true
	}
	if e.naive {
		return a.ep.LEq(c.full)
	}
	return a.ep.LEq(c.st)
}

const maxIdx = int(^uint(0) >> 1)

// sameThreshold is the first-index cutoff for same-thread scans in
// dedup mode: an entry at or past the largest recorded First of the
// four single-threaded categories cannot improve any representative.
func (e *engine) sameThreshold(ls *locState) int {
	maxT := 0
	for cat := race.CoEnabled; cat <= race.Unknown; cat++ {
		if !ls.seen[cat] {
			return maxIdx
		}
		if f := ls.best[cat].First; f > maxT {
			maxT = f
		}
	}
	return maxT
}

// scanDedup maintains, per (location, category), the lexicographically
// least racing pair — exactly the representative DetectDeduped reports.
// Seconds arrive in ascending trace order, so a recorded pair is only
// ever replaced by one with a strictly smaller First, and entries are
// scanned in ascending order so the per-category cutoffs make scans
// stop as soon as no improvement is possible.
func (e *engine) scanDedup(i int, op trace.Op, c *ctx, ls *locState, w bool) error {
	if me := ls.threads[op.Thread]; me != nil {
		sum := me.wSum
		if w {
			sum = me.aSum
		}
		view := c.st
		if e.naive {
			view = c.full
		}
		if view.Covers(sum) {
			e.stats.EpochHits++
		} else {
			maxT := e.sameThreshold(ls)
			for _, a := range me.entries {
				if a.idx >= maxT {
					break
				}
				if err := e.ck.Check(); err != nil {
					return err
				}
				if !a.write && !w {
					continue
				}
				e.stats.Pairs++
				if e.orderedSame(a, i, c) {
					continue
				}
				cat := e.cl.Classify(a.idx, i)
				if !ls.seen[cat] || a.idx < ls.best[cat].First {
					ls.best[cat] = race.Race{First: a.idx, Second: i, Loc: op.Loc, Category: cat}
					ls.seen[cat] = true
					maxT = e.sameThreshold(ls)
				}
			}
		}
	}
	mtT := maxIdx
	if ls.seen[race.Multithreaded] {
		mtT = ls.best[race.Multithreaded].First
	}
	bestA := -1
	for _, t := range ls.order {
		if t == op.Thread {
			continue
		}
		ta := ls.threads[t]
		sum := ta.wSum
		if w {
			sum = ta.aSum
		}
		if c.full.Covers(sum) {
			e.stats.EpochHits++
			continue
		}
		limit := mtT
		if bestA >= 0 && bestA < limit {
			limit = bestA
		}
		for _, a := range ta.entries {
			if a.idx >= limit {
				break
			}
			if err := e.ck.Check(); err != nil {
				return err
			}
			if !a.write && !w {
				continue
			}
			e.stats.Pairs++
			if a.ep.LEq(c.full) {
				continue
			}
			bestA = a.idx
			break
		}
	}
	if bestA >= 0 && (!ls.seen[race.Multithreaded] || bestA < ls.best[race.Multithreaded].First) {
		ls.best[race.Multithreaded] = race.Race{First: bestA, Second: i, Loc: op.Loc, Category: race.Multithreaded}
		ls.seen[race.Multithreaded] = true
	}
	return nil
}

// scanAll enumerates every racing pair, for the non-dedup mode.
func (e *engine) scanAll(i int, op trace.Op, c *ctx, ls *locState, w bool) error {
	for _, t := range ls.order {
		ta := ls.threads[t]
		same := t == op.Thread
		sum := ta.wSum
		if w {
			sum = ta.aSum
		}
		view := c.full
		if same && !e.naive {
			view = c.st
		}
		if view.Covers(sum) {
			e.stats.EpochHits++
			continue
		}
		for _, a := range ta.entries {
			if err := e.ck.Check(); err != nil {
				return err
			}
			if !a.write && !w {
				continue
			}
			e.stats.Pairs++
			if same {
				if e.orderedSame(a, i, c) {
					continue
				}
			} else if a.ep.LEq(c.full) {
				continue
			}
			e.all = append(e.all, race.Race{
				First: a.idx, Second: i, Loc: op.Loc, Category: e.cl.Classify(a.idx, i),
			})
		}
	}
	return nil
}

// finish sorts the collected race set by (First, Second) — the same
// order both graph-engine detection modes report.
func (e *engine) finish() []race.Race {
	out := e.all
	if e.dedup {
		for _, ls := range e.locs {
			for cat, ok := range ls.seen {
				if ok {
					out = append(out, ls.best[cat])
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].First != out[b].First {
			return out[a].First < out[b].First
		}
		return out[a].Second < out[b].Second
	})
	return out
}

// fifoCompatible mirrors the graph engine's FIFO side conditions for
// delayed and front-of-queue posts (§4.2): given ordered posts β1 ≼ β2
// to one thread, β1's task is dispatched first when β2 does not jump
// the queue and β1 does not lag behind β2 on a delay.
func fifoCompatible(b1, b2 trace.Op) bool {
	if b2.Front {
		return false
	}
	if b1.Delayed {
		return b2.Delayed && b1.Delay <= b2.Delay
	}
	return true
}

package hb

import (
	"droidracer/internal/bitset"
	"droidracer/internal/trace"
)

// addBaseEdges installs every non-recursive rule instance: program order
// (NO-Q-PO and ASYNC-PO), ENABLE-ST/MT, POST-ST/MT, ATTACH-Q-MT, FORK,
// JOIN, and LOCK. The recursive rules (FIFO, NOPRE, TRANS-ST, TRANS-MT)
// run in the fixpoint loop.
func (g *Graph) addBaseEdges() {
	tr := g.info.Trace()

	// Gather per-thread operation lists and per-thread bookkeeping in one
	// pass.
	opsOn := make(map[trace.ThreadID][]int)
	initOf := make(map[trace.ThreadID]int) // threadinit op per thread
	exitOf := make(map[trace.ThreadID]int) // threadexit op per thread
	postsTo := make(map[trace.ThreadID][]int)
	acquires := make(map[trace.LockID][]int)
	releases := make(map[trace.LockID][]int)
	for i, op := range tr.Ops() {
		opsOn[op.Thread] = append(opsOn[op.Thread], i)
		switch op.Kind {
		case trace.OpThreadInit:
			initOf[op.Thread] = i
		case trace.OpThreadExit:
			exitOf[op.Thread] = i
		case trace.OpPost:
			postsTo[op.Other] = append(postsTo[op.Other], i)
		case trace.OpAcquire:
			acquires[op.Lock] = append(acquires[op.Lock], i)
		case trace.OpRelease:
			releases[op.Lock] = append(releases[op.Lock], i)
		}
	}

	// Program order. On a thread with a task queue, program order holds up
	// to and including loopOnQ (NO-Q-PO) and within each asynchronous task
	// (ASYNC-PO). loopOnQ itself satisfies the NO-Q-PO antecedent, so it
	// is ordered before every later operation on its thread; edges from it
	// to each post-loop region entry (task begins and out-of-task
	// operations) make that reachable transitively.
	for t, ops := range opsOn {
		loop := g.info.LoopIdx(t)
		for k := 0; k+1 < len(ops); k++ {
			a, b := ops[k], ops[k+1]
			switch {
			case g.cfg.WholeThreadPO, loop < 0, a <= loop:
				g.addST(g.nodeOf[a], g.nodeOf[b], RuleNoQPO)
			default:
				if ta := g.info.Task(a); ta != "" && ta == g.info.Task(b) {
					g.addST(g.nodeOf[a], g.nodeOf[b], RuleAsyncPO)
				}
			}
		}
		if loop >= 0 && !g.cfg.WholeThreadPO {
			loopNode := g.nodeOf[loop]
			for _, c := range ops {
				if c <= loop {
					continue
				}
				task := g.info.Task(c)
				if task == "" || g.info.BeginIdx(task) == c {
					g.addST(loopNode, g.nodeOf[c], RuleNoQPO)
				}
			}
		}
	}

	// ENABLE-ST / ENABLE-MT and POST-ST / POST-MT.
	for i, op := range tr.Ops() {
		if op.Kind != trace.OpPost {
			continue
		}
		if g.cfg.EnableEdges {
			if e := g.info.EnableIdx(op.Task); e >= 0 {
				g.addDirected(e, i, RuleEnableST, RuleEnableMT)
			}
		}
		if b := g.info.BeginIdx(op.Task); b >= 0 {
			g.addDirected(i, b, RulePostST, RulePostMT)
		}
	}

	// ATTACH-Q-MT: a post to a thread happens after the thread attached
	// its queue. Same-thread posts are already covered by program order.
	for t, posts := range postsTo {
		a := g.info.AttachIdx(t)
		if a < 0 {
			continue
		}
		for _, q := range posts {
			if tr.Op(q).Thread != t {
				g.addMT(g.nodeOf[a], g.nodeOf[q], RuleAttachQMT)
			}
		}
	}

	// FORK and JOIN.
	for i, op := range tr.Ops() {
		switch op.Kind {
		case trace.OpFork:
			if ti, ok := initOf[op.Other]; ok {
				g.addMT(g.nodeOf[i], g.nodeOf[ti], RuleFork)
			}
		case trace.OpJoin:
			if te, ok := exitOf[op.Other]; ok {
				g.addMT(g.nodeOf[te], g.nodeOf[i], RuleJoin)
			}
		}
	}

	// LOCK: release(t,l) ≼mt acquire(t′,l) for t ≠ t′. The naive
	// combination (Config.Naive) also orders same-thread pairs, which is
	// exactly the spurious ordering the decomposed relation avoids.
	for l, rels := range releases {
		acqs := acquires[l]
		for _, r := range rels {
			for _, a := range acqs {
				if a < r {
					continue
				}
				switch {
				case tr.Op(r).Thread != tr.Op(a).Thread:
					g.addMT(g.nodeOf[r], g.nodeOf[a], RuleLock)
				case g.cfg.Naive:
					g.addST(g.nodeOf[r], g.nodeOf[a], RuleLock)
				}
			}
		}
	}
}

// addDirected records an edge between the operations at trace indices a
// and b, choosing st or mt (and the corresponding rule attribution) by
// whether they execute on the same thread.
func (g *Graph) addDirected(a, b int, stRule, mtRule Rule) {
	tr := g.info.Trace()
	na, nb := g.nodeOf[a], g.nodeOf[b]
	if tr.Op(a).Thread == tr.Op(b).Thread {
		g.addST(na, nb, stRule)
	} else {
		g.addMT(na, nb, mtRule)
	}
}

// fixpoint alternates the transitivity closures with the recursive FIFO
// and NOPRE rules until nothing changes. All edges point forward in trace
// order (backward instances are rejected by addST/addMT), so the relation
// stays acyclic and the loop terminates.
//
// Evaluation is semi-naive: `dirty` holds the nodes whose ≼ rows changed
// in the previous round, and a node is reprocessed only when its own row
// changed or it can reach a dirty node. On large traces most rounds touch
// a handful of rows, which cuts the cubic closure cost substantially
// (TestQuickEngineMatchesReference anchors the equivalence with a naive
// rule-by-rule fixpoint).
func (g *Graph) fixpoint() {
	n := len(g.nodes)
	dirty := bitset.New(n)
	for i := 0; i < n; i++ {
		dirty.Set(i)
	}
	for dirty.Any() {
		next := bitset.New(n)
		g.closeST(dirty, next)
		if !g.cfg.STOnly {
			g.closeMT(dirty, next)
		}
		if g.cfg.FIFO || g.cfg.NoPre {
			g.applyTaskRules(next)
		}
		dirty = next
	}
}

// needsWork reports whether node i must be reprocessed: its row changed
// (it is dirty) or some node it reaches is dirty.
func needsWork(i int, row *bitset.Set, dirty, next *bitset.Set) bool {
	return dirty.Has(i) || next.Has(i) || row.IntersectsWith(dirty) || row.IntersectsWith(next)
}

// closeST computes TRANS-ST: the transitive closure of st alone. Edges
// only point forward, so one descending pass suffices: when node i is
// processed, the rows of all its successors are already closed. Nodes
// whose successors did not change are skipped.
func (g *Graph) closeST(dirty, next *bitset.Set) {
	for i := len(g.nodes) - 1; i >= 0; i-- {
		row := g.st[i]
		if !needsWork(i, row, dirty, next) {
			continue
		}
		changed := false
		for k := row.NextSet(i + 1); k != -1; k = row.NextSet(k + 1) {
			if row.UnionWith(g.st[k]) {
				changed = true
			}
		}
		if changed {
			next.Set(i)
		}
	}
}

// closeMT computes one chained application of TRANS-MT: for nodes i, j on
// different threads with some k such that i ≼ k and k ≼ j, record
// i ≼mt j. Under Config.Naive the different-thread restriction is dropped.
// Processing descends so that successor rows extended in this pass are
// visible, which speeds convergence without changing the fixpoint.
func (g *Graph) closeMT(dirty, next *bitset.Set) {
	n := len(g.nodes)
	row := bitset.New(n) // combined ≼ row of node i
	acc := bitset.New(n) // union of ≼ rows of i's successors
	for i := n - 1; i >= 0; i-- {
		row.Reset()
		row.UnionWith(g.st[i])
		row.UnionWith(g.mt[i])
		if !row.Any() {
			continue
		}
		if !needsWork(i, row, dirty, next) {
			continue
		}
		acc.Reset()
		for k := row.NextSet(i + 1); k != -1; k = row.NextSet(k + 1) {
			acc.UnionWith(g.st[k])
			acc.UnionWith(g.mt[k])
		}
		ti := g.nodes[i].Thread
		for j := acc.NextSet(i + 1); j != -1; j = acc.NextSet(j + 1) {
			if row.Has(j) || g.mt[i].Has(j) {
				continue
			}
			if g.cfg.Naive || g.nodes[j].Thread != ti {
				g.mt[i].Set(j)
				next.Set(i)
			}
		}
	}
}

// reachLE reports node a ≼ node b under the current (partially closed)
// relation, treating ≼ as reflexive.
func (g *Graph) reachLE(a, b int) bool {
	return a == b || g.st[a].Has(b) || g.mt[a].Has(b)
}

// applyTaskRules applies FIFO and NOPRE: the rules ordering the end of one
// asynchronous task before the begin of a later task on the same thread.
// Nodes that gain edges are marked in next.
func (g *Graph) applyTaskRules(next *bitset.Set) {
	tr := g.info.Trace()

	// Tasks per queue thread, in execution (begin) order.
	tasksOn := make(map[trace.ThreadID][]trace.TaskID)
	for _, op := range tr.Ops() {
		if op.Kind == trace.OpBegin {
			tasksOn[op.Thread] = append(tasksOn[op.Thread], op.Task)
		}
	}

	// For NOPRE: taskReach[p] is the union of the ≼ rows of all nodes in
	// task p, i.e. the set of nodes some operation of p happens before.
	var taskReach map[trace.TaskID]*bitset.Set
	if g.cfg.NoPre {
		taskReach = make(map[trace.TaskID]*bitset.Set)
		for i := range g.nodes {
			p := g.nodes[i].Task
			if p == "" {
				continue
			}
			r, ok := taskReach[p]
			if !ok {
				r = bitset.New(len(g.nodes))
				taskReach[p] = r
			}
			r.UnionWith(g.st[i])
			r.UnionWith(g.mt[i])
		}
	}

	for _, tasks := range tasksOn {
		for x := 0; x < len(tasks); x++ {
			p1 := tasks[x]
			endIdx := g.info.EndIdx(p1)
			if endIdx < 0 {
				continue // trace ends inside p1
			}
			endN := g.nodeOf[endIdx]
			for y := x + 1; y < len(tasks); y++ {
				p2 := tasks[y]
				beginN := g.nodeOf[g.info.BeginIdx(p2)]
				if g.st[endN].Has(beginN) {
					continue
				}
				q1, q2 := g.info.PostIdx(p1), g.info.PostIdx(p2)
				if g.cfg.FIFO && fifoCompatible(tr.Op(q1), tr.Op(q2)) &&
					g.reachLE(g.nodeOf[q1], g.nodeOf[q2]) {
					if g.addST(endN, beginN, RuleFIFO) {
						next.Set(endN)
					}
					continue
				}
				if g.cfg.NoPre {
					// ∃ αk ∈ task p1 with αk ≼ post(p2). The post may itself
					// execute inside p1 (αk = post(p2), ≼ reflexive).
					inP1 := g.info.Task(q2) == p1
					if !inP1 {
						if r := taskReach[p1]; r != nil && r.Has(g.nodeOf[q2]) {
							inP1 = true
						}
					}
					if inP1 && g.addST(endN, beginN, RuleNoPre) {
						next.Set(endN)
					}
				}
			}
		}
	}
}

// fifoCompatible implements the FIFO side conditions for delayed posts
// (§4.2) and the front-of-queue extension. Given ordered posts β1 ≼ β2 to
// the same thread, the dispatch of β1's task before β2's is guaranteed
// when:
//   - β2 is not a front-of-queue post (a front post overtakes the queue), and
//   - β1 is not delayed (it enqueues immediately, ahead of β2), or both are
//     delayed with timeout δ1 ≤ δ2.
func fifoCompatible(b1, b2 trace.Op) bool {
	if b2.Front {
		return false
	}
	if b1.Delayed {
		return b2.Delayed && b1.Delay <= b2.Delay
	}
	return true
}

// Package hb computes the happens-before relation of the DroidRacer paper
// (§4.1, Figures 6 and 7) over execution traces.
//
// The relation ≼ is the union of two mutually recursive relations: a
// thread-local relation st (rules NO-Q-PO, ASYNC-PO, ENABLE-ST, POST-ST,
// FIFO, NOPRE, TRANS-ST) and an inter-thread relation mt (rules
// ATTACH-Q-MT, ENABLE-MT, POST-MT, FORK, JOIN, LOCK, TRANS-MT). The
// decomposition restricts transitivity so that two asynchronous tasks
// running on the same thread are never ordered merely because they use the
// same lock — the spurious ordering a naive combination of multithreaded
// and event-driven rules would produce (§1 of the paper). The naive
// combination is available behind Config.Naive for ablation.
//
// The engine follows the paper's graph-based algorithm (§4.3): trace
// operations become graph nodes, happens-before edges are derived to a
// fixpoint, and reachability is answered from per-node bit sets. The
// node-merging optimization from §6 (contiguous memory accesses with no
// intervening synchronization collapse into one node) is on by default and
// reduces graphs to a few percent of the trace length.
package hb

import (
	"droidracer/internal/bitset"
	"droidracer/internal/trace"
)

// Config selects rule subsets and optimizations. Use DefaultConfig for the
// paper's full relation; the ablation flags reproduce the specializations
// discussed in §4.1 and §6.
type Config struct {
	// MergeAccesses enables the §6 node-merging optimization.
	MergeAccesses bool
	// EnableEdges honors enable operations (ENABLE-ST/ENABLE-MT). Turning
	// it off reproduces the false positives the paper's environment model
	// eliminates (the Figure 4 onDestroy example).
	EnableEdges bool
	// FIFO applies the FIFO rule. Turning it off yields the
	// non-deterministic scheduling semantics of asynchronous programs.
	FIFO bool
	// NoPre applies the NOPRE (run-to-completion) rule.
	NoPre bool
	// Naive replaces the decomposed st/mt relation with the naive
	// combination: the LOCK rule applies within a thread and transitivity
	// is unrestricted. Tasks on one thread sharing a lock become spuriously
	// ordered.
	Naive bool
	// WholeThreadPO imposes program order across an entire thread,
	// ignoring task boundaries — the classic multithreaded happens-before
	// obtained by "discarding all rules for asynchronous procedure calls"
	// (§4.1 specializations). Single-threaded races become invisible.
	WholeThreadPO bool
	// STOnly drops every inter-thread rule, keeping only the thread-local
	// relation — the happens-before of single-threaded event-driven
	// programs (§4.1 specializations), used by the event-only baseline.
	// Cross-thread interference becomes invisible (false positives).
	STOnly bool
}

// DefaultConfig returns the configuration of the full analysis as
// implemented in DroidRacer.
func DefaultConfig() Config {
	return Config{MergeAccesses: true, EnableEdges: true, FIFO: true, NoPre: true}
}

// Node is one vertex of the happens-before graph: a single non-access
// operation, or a maximal run of contiguous memory accesses on one thread
// within one task with no intervening synchronization (when merging is
// enabled).
type Node struct {
	// Ops are the trace indices of the operations in this node, in trace
	// order. Non-access nodes have exactly one.
	Ops    []int
	Thread trace.ThreadID
	// Task is the enclosing asynchronous task, or "" outside any task.
	Task trace.TaskID
}

// First returns the trace index of the node's first operation.
func (n *Node) First() int { return n.Ops[0] }

// Graph is the happens-before graph of one trace. Build constructs it;
// afterwards it is immutable and safe for concurrent readers.
type Graph struct {
	cfg  Config
	info *trace.Info

	nodes  []Node
	nodeOf []int // op index → node index

	// st[i] and mt[i] hold the node indices j with node i ≼st / ≼mt node j.
	st, mt []*bitset.Set

	// skipped counts rule instances dropped because they would have added
	// a backward edge — possible only on traces that are not valid
	// executions (e.g. a hand-written trace violating FIFO dispatch).
	skipped int

	// ruleEdges attributes edges to the Figure 6–7 rule that derived
	// them; baseST/baseMT count direct (non-closure) insertions per
	// relation so the TRANS-* remainders can be computed afterwards.
	ruleEdges [numRules]int
	baseST    int
	baseMT    int

	// edgeCount is the number of recorded ≼ pairs, counted once the
	// fixpoint is done.
	edgeCount int
}

// Build computes the happens-before relation for the analyzed trace.
// The reachability bitsets cost O(nodes²) bits: the analysis pipeline
// does not call it (the streaming engine answers the same queries in
// linear memory); racedet -dot, the STOnly ablation and the tests do.
func Build(info *trace.Info, cfg Config) *Graph {
	g := &Graph{cfg: cfg, info: info}
	g.buildNodes()
	n := len(g.nodes)
	g.st = make([]*bitset.Set, n)
	g.mt = make([]*bitset.Set, n)
	for i := range g.nodes {
		g.st[i] = bitset.New(n)
		g.mt[i] = bitset.New(n)
	}
	g.addBaseEdges()
	g.fixpoint()
	g.finalizeRuleCounts()
	return g
}

// buildNodes partitions trace operations into graph nodes, merging
// contiguous accesses when configured.
func (g *Graph) buildNodes() {
	tr := g.info.Trace()
	g.nodeOf = make([]int, tr.Len())
	// lastNode[t] is the index of the most recent node on thread t.
	lastNode := make(map[trace.ThreadID]int)
	for i, op := range tr.Ops() {
		if g.cfg.MergeAccesses && op.Kind.IsAccess() {
			if prev, ok := lastNode[op.Thread]; ok {
				pn := &g.nodes[prev]
				lastOp := tr.Op(pn.Ops[len(pn.Ops)-1])
				if lastOp.Kind.IsAccess() && pn.Task == g.info.Task(i) {
					// Contiguous on this thread: no same-thread operation
					// intervened, since lastNode tracks the latest one.
					pn.Ops = append(pn.Ops, i)
					g.nodeOf[i] = prev
					continue
				}
			}
		}
		g.nodes = append(g.nodes, Node{
			Ops:    []int{i},
			Thread: op.Thread,
			Task:   g.info.Task(i),
		})
		g.nodeOf[i] = len(g.nodes) - 1
		lastNode[op.Thread] = len(g.nodes) - 1
	}
}

// NodeCount returns the number of graph nodes after merging.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// NodeOf returns the node index of the operation at trace index i.
func (g *Graph) NodeOf(i int) int { return g.nodeOf[i] }

// Info returns the trace annotations the graph was built from.
func (g *Graph) Info() *trace.Info { return g.info }

// Skipped returns the number of rule instances dropped because they would
// have ordered a later operation before an earlier one. It is zero for
// traces that are valid executions.
func (g *Graph) Skipped() int { return g.skipped }

// EdgeCount returns the number of recorded ≼ pairs (st plus mt, counting a
// pair once if present in both).
func (g *Graph) EdgeCount() int { return g.edgeCount }

// HappensBefore reports whether the operation at trace index i happens
// before the operation at trace index j (αi ≼ αj). Operations within one
// merged node are ordered by program order.
func (g *Graph) HappensBefore(i, j int) bool {
	ni, nj := g.nodeOf[i], g.nodeOf[j]
	if ni == nj {
		return i < j
	}
	return g.st[ni].Has(nj) || g.mt[ni].Has(nj)
}

// OrderedLE reports αi ≼ αj treating ≼ as reflexive (the paper defines st
// as reflexive); the race classifier uses this form.
func (g *Graph) OrderedLE(i, j int) bool {
	return i == j || g.HappensBefore(i, j)
}

// STHas reports whether the operations at trace indices i and j are
// related by the thread-local relation (αi ≼st αj). Exposed for tests
// that validate individual paper rules.
func (g *Graph) STHas(i, j int) bool {
	ni, nj := g.nodeOf[i], g.nodeOf[j]
	if ni == nj {
		return i < j
	}
	return g.st[ni].Has(nj)
}

// MTHas reports whether αi ≼mt αj.
func (g *Graph) MTHas(i, j int) bool {
	ni, nj := g.nodeOf[i], g.nodeOf[j]
	if ni == nj {
		return false
	}
	return g.mt[ni].Has(nj)
}

// addST records node a ≼st node b under rule r, guarding against
// backward edges.
func (g *Graph) addST(a, b int, r Rule) bool {
	if a == b {
		return false
	}
	if a > b {
		g.skipped++
		return false
	}
	if g.st[a].Has(b) {
		return false
	}
	g.st[a].Set(b)
	g.ruleEdges[r]++
	g.baseST++
	return true
}

// addMT records node a ≼mt node b under rule r, guarding against
// backward edges. Under Config.STOnly inter-thread edges are suppressed
// entirely.
func (g *Graph) addMT(a, b int, r Rule) bool {
	if g.cfg.STOnly || a == b {
		return false
	}
	if a > b {
		g.skipped++
		return false
	}
	if g.mt[a].Has(b) {
		return false
	}
	g.mt[a].Set(b)
	g.ruleEdges[r]++
	g.baseMT++
	return true
}

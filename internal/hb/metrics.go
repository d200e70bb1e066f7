package hb

import "droidracer/internal/obs"

// Rule identifies the Figure 6–7 happens-before rule that contributed
// an edge. Base rules are counted exactly at their addST/addMT call
// sites; the transitive closures (TRANS-ST, TRANS-MT) are attributed by
// subtraction after the fixpoint, since the semi-naive closure adds
// edges by whole-row bitset unions rather than one pair at a time.
type Rule uint8

// Figure 6 (single-threaded) and Figure 7 (multithreaded) rules.
const (
	RuleNoQPO Rule = iota
	RuleAsyncPO
	RuleEnableST
	RuleEnableMT
	RulePostST
	RulePostMT
	RuleAttachQMT
	RuleFork
	RuleJoin
	RuleLock
	RuleFIFO
	RuleNoPre
	RuleTransST
	RuleTransMT
	numRules
)

var ruleNames = [numRules]string{
	RuleNoQPO:     "no-q-po",
	RuleAsyncPO:   "async-po",
	RuleEnableST:  "enable-st",
	RuleEnableMT:  "enable-mt",
	RulePostST:    "post-st",
	RulePostMT:    "post-mt",
	RuleAttachQMT: "attach-q-mt",
	RuleFork:      "fork",
	RuleJoin:      "join",
	RuleLock:      "lock",
	RuleFIFO:      "fifo",
	RuleNoPre:     "nopre",
	RuleTransST:   "trans-st",
	RuleTransMT:   "trans-mt",
}

// String returns the rule's metric label, e.g. "fifo".
func (r Rule) String() string {
	if int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return "unknown"
}

// Build metrics. The per-rule counters are pre-registered for every
// rule at init so a scrape sees the full Figure 6–7 rule set (at zero)
// before the first trace is analyzed.
var (
	edgeCounters = func() (c [numRules]*obs.Counter) {
		for r := Rule(0); r < numRules; r++ {
			c[r] = obs.Default().Counter("droidracer_hb_edges_total",
				"Happens-before edges recorded, by Figure 6-7 rule.",
				"rule", r.String())
		}
		return
	}()
	graphNodes = obs.Default().Gauge("droidracer_hb_graph_nodes",
		"Nodes in the most recently built happens-before graph (after merging).")
	skippedTotal = obs.Default().Counter("droidracer_hb_skipped_edges_total",
		"Rule instances dropped because they would order a later op before an earlier one.")
)

// publishMetrics records one finished build into the process-wide
// registry. Called once per Build, never in the hot loops.
func (g *Graph) publishMetrics() {
	if !obs.ExporterAttached() {
		return
	}
	graphNodes.Set(int64(len(g.nodes)))
	skippedTotal.Add(g.skipped)
	for r := Rule(0); r < numRules; r++ {
		edgeCounters[r].Add(g.ruleEdges[r])
	}
}

// RuleEdges returns the edge count attributed to each rule for this
// graph. Base-rule counts are exact distinct pairs (a pair derivable by
// two rules is attributed to whichever fired first); trans-st and
// trans-mt are the closure remainders. The values sum to the total
// st-plus-mt pair count, counting a pair related by both relations
// twice (EdgeCount counts it once).
func (g *Graph) RuleEdges() map[string]int {
	m := make(map[string]int, numRules)
	for r := Rule(0); r < numRules; r++ {
		m[r.String()] = g.ruleEdges[r]
	}
	return m
}

// finalizeRuleCounts attributes closure edges: total pairs in the final
// st and mt relations, minus the pairs base rules inserted directly,
// are the TRANS-ST and TRANS-MT contributions. One Count pass per row —
// O(nodes²/64) words, a small constant next to the fixpoint itself.
func (g *Graph) finalizeRuleCounts() {
	stTotal, mtTotal, pairs := 0, 0, 0
	for i := range g.nodes {
		stTotal += g.st[i].Count()
		mtTotal += g.mt[i].Count()
		pairs += g.st[i].UnionCount(g.mt[i])
	}
	g.edgeCount = pairs
	if d := stTotal - g.baseST; d > 0 {
		g.ruleEdges[RuleTransST] = d
	}
	if d := mtTotal - g.baseMT; d > 0 {
		g.ruleEdges[RuleTransMT] = d
	}
}

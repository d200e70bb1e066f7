package hb

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

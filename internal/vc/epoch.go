package vc

import "fmt"

// Epoch is a single (context, time) component — the FastTrack-style
// compressed timestamp of one operation. The streaming engine stamps
// every operation with an epoch and answers most ordering queries by a
// single component comparison against a clock, falling back to full
// clock scans only when the epoch test is inconclusive.
type Epoch struct {
	C ID
	T uint64
}

// LEq reports whether the epoch is covered by clock v: the operation it
// stamps (and, by program order, every earlier operation of its
// context) happens before the point v describes.
func (e Epoch) LEq(v VC) bool { return e.T <= v.Get(e.C) }

// String renders the epoch as "c@t".
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.C, e.T) }

// JoinCounted sets v to the pointwise maximum of v and o, like Join,
// and additionally reports how many components were raised. The
// streaming engine feeds the count into its join-work metrics, so the
// cost of clock transfers is observable without a second pass.
func (v VC) JoinCounted(o VC) int {
	raised := 0
	for id, t := range o {
		if t > v[id] {
			v[id] = t
			raised++
		}
	}
	return raised
}

// JoinEpoch raises the single component for e.C to at least e.T,
// reporting whether the clock changed. Joining an operation's epoch on
// top of its context view is how an edge transfers the source
// operation's own position (the view transfers its past).
func (v VC) JoinEpoch(e Epoch) bool {
	if e.T > v[e.C] {
		v[e.C] = e.T
		return true
	}
	return false
}

// Covers reports o ≤ v pointwise — the containment test the shadow
// -memory fast path runs against per-location summary clocks.
func (v VC) Covers(o VC) bool { return o.LessEq(v) }

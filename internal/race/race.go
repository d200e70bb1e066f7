// Package race implements the data race detection and classification
// algorithm of §4.3 of the DroidRacer paper.
//
// Two operations race when they conflict (same memory location, at least
// one write) and the happens-before relation orders them in neither
// direction. Each race is classified to aid debugging: multithreaded, or —
// for races between two tasks on one thread — co-enabled, delayed,
// cross-posted, or unknown, based on the chains of post operations leading
// to the racing accesses.
package race

import (
	"fmt"
	"sort"

	"droidracer/internal/hb"
	"droidracer/internal/trace"
)

// Category is the paper's race classification.
type Category int

// Race categories, in the order the classifier checks them (§4.3).
const (
	// Multithreaded races involve accesses on two different threads.
	Multithreaded Category = iota
	// CoEnabled single-threaded races stem from two independently enabled
	// environment events (e.g. two UI events on one screen).
	CoEnabled
	// Delayed single-threaded races involve a delayed post whose timing
	// determines the order.
	Delayed
	// CrossPosted single-threaded races involve tasks posted from other
	// threads.
	CrossPosted
	// Unknown races meet none of the above criteria.
	Unknown
)

var categoryNames = [...]string{
	Multithreaded: "multithreaded",
	CoEnabled:     "co-enabled",
	Delayed:       "delayed",
	CrossPosted:   "cross-posted",
	Unknown:       "unknown",
}

// String returns the category name used in reports.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Race is one detected data race: a conflicting, happens-before-unordered
// pair of accesses. First < Second in trace order.
type Race struct {
	First    int
	Second   int
	Loc      trace.Loc
	Category Category
}

// String renders the race compactly, e.g.
// "cross-posted race on DwFileAct-obj: read(t1,...)@15 / write(t1,...)@20".
func (r Race) String() string {
	return fmt.Sprintf("%s race on %s between op %d and op %d", r.Category, r.Loc, r.First, r.Second)
}

// Detector detects and classifies data races over a happens-before graph.
type Detector struct {
	g    *hb.Graph
	info *trace.Info
	cl   *Classifier
}

// NewDetector returns a detector for the given graph.
func NewDetector(g *hb.Graph) *Detector {
	return &Detector{g: g, info: g.Info(), cl: NewClassifier(g.Info(), g.OrderedLE)}
}

// Detect returns every race witnessed in the trace, in order of (First,
// Second). This is the paper's exhaustive offline analysis.
func (d *Detector) Detect() []Race {
	tr := d.info.Trace()
	byLoc := make(map[trace.Loc][]int)
	for i, op := range tr.Ops() {
		if op.Kind.IsAccess() {
			byLoc[op.Loc] = append(byLoc[op.Loc], i)
		}
	}
	var races []Race
	for loc, accs := range byLoc {
		for x := 0; x < len(accs); x++ {
			a := accs[x]
			for y := x + 1; y < len(accs); y++ {
				b := accs[y]
				if !tr.Op(a).Conflicts(tr.Op(b)) {
					continue
				}
				if d.g.HappensBefore(a, b) || d.g.HappensBefore(b, a) {
					continue
				}
				races = append(races, Race{First: a, Second: b, Loc: loc, Category: d.Classify(a, b)})
			}
		}
	}
	sort.Slice(races, func(i, j int) bool {
		if races[i].First != races[j].First {
			return races[i].First < races[j].First
		}
		return races[i].Second < races[j].Second
	})
	return races
}

// DetectDeduped returns one representative race per (location, category),
// matching the paper's reporting: "If there are multiple races belonging
// to the same category on the same memory location, DroidRacer reports any
// one of them." The representative is the earliest by trace position, so
// reports are deterministic.
func (d *Detector) DetectDeduped() []Race {
	type key struct {
		loc trace.Loc
		cat Category
	}
	seen := make(map[key]bool)
	var out []Race
	for _, r := range d.Detect() {
		k := key{r.Loc, r.Category}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// Classify categorizes the race between the operations at trace indices a
// and b (a < b) per §4.3. It delegates to the shared Classifier with the
// graph's reachability as the ordering oracle; the streaming engine runs
// the same Classifier over its clock snapshots.
func (d *Detector) Classify(a, b int) Category {
	return d.cl.Classify(a, b)
}

// oneSidedOrDistinct implements the "only one of them is defined, or they
// are distinct" condition shared by the delayed and cross-posted criteria.
func oneSidedOrDistinct(a, b int) bool {
	if a < 0 && b < 0 {
		return false
	}
	if a < 0 || b < 0 {
		return true
	}
	return a != b
}

// Summary counts races per category.
type Summary struct {
	Multithreaded int
	CoEnabled     int
	Delayed       int
	CrossPosted   int
	Unknown       int
}

// Total returns the total number of races counted.
func (s Summary) Total() int {
	return s.Multithreaded + s.CoEnabled + s.Delayed + s.CrossPosted + s.Unknown
}

// Summarize tallies races by category.
func Summarize(races []Race) Summary {
	var s Summary
	for _, r := range races {
		switch r.Category {
		case Multithreaded:
			s.Multithreaded++
		case CoEnabled:
			s.CoEnabled++
		case Delayed:
			s.Delayed++
		case CrossPosted:
			s.CrossPosted++
		default:
			s.Unknown++
		}
	}
	return s
}

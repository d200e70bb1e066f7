// Package explain generates debugging explanations for reported data
// races — the "better debugging support" the paper's conclusion lists as
// future work. For each race it reconstructs the chains of posts leading
// to the racing accesses, states why the classifier chose the category it
// did, and reports near misses: happens-before rules that almost ordered
// the pair and the exact premise that failed (for example, a FIFO
// application blocked by a delayed or front-of-queue post).
package explain

import (
	"fmt"
	"strings"

	"droidracer/internal/race"
	"droidracer/internal/trace"
)

// PostStep is one post operation in a chain, annotated for display.
type PostStep struct {
	Index   int // trace index of the post
	Op      trace.Op
	Enabled bool // the posted task was explicitly enabled
}

// Explanation is the debugging story of one race.
type Explanation struct {
	Race race.Race
	// FirstChain and SecondChain are the paper's chain(α) for each access.
	FirstChain, SecondChain []PostStep
	// Reason states why the category applies.
	Reason string
	// Hints are category-specific debugging suggestions (§4.3's "debugging
	// it would involve ..." guidance, made concrete).
	Hints []string
	// NearMisses list rules that almost ordered the pair.
	NearMisses []string
}

// Relation is the happens-before relation of one analyzed trace, as an
// explanation queries it. The streaming engine's replay with recorded
// clocks (*stream.Outcome) is the one racedet uses; the graph engine
// (*hb.Graph) answers the same queries and serves as the test oracle.
type Relation interface {
	// Info returns the trace annotations the relation was computed on.
	Info() *trace.Info
	// OrderedLE reports αi ≼ αj, with ≼ reflexive.
	OrderedLE(i, j int) bool
}

// Explain builds the explanation for r over the analyzed relation.
func Explain(g Relation, r race.Race) Explanation {
	info := g.Info()
	tr := info.Trace()
	e := Explanation{
		Race:        r,
		FirstChain:  chainSteps(info, r.First),
		SecondChain: chainSteps(info, r.Second),
	}
	a, b := tr.Op(r.First), tr.Op(r.Second)
	switch r.Category {
	case race.Multithreaded:
		e.Reason = fmt.Sprintf("the accesses run on different threads (t%d and t%d) with no synchronization between them", a.Thread, b.Thread)
		e.Hints = append(e.Hints,
			"protect the location with a common lock, or",
			fmt.Sprintf("hand the value off with an asynchronous post from t%d to t%d", a.Thread, b.Thread))
	case race.CoEnabled:
		ea, eb := lastEventPost(info, e.FirstChain), lastEventPost(info, e.SecondChain)
		e.Reason = fmt.Sprintf("both accesses descend from independently enabled environment events (%s and %s) that can fire in either order", taskOf(ea), taskOf(eb))
		e.Hints = append(e.Hints,
			"check whether the two events are really co-enabled (can the user trigger them in parallel?)",
			"disable one widget while the other handler runs, or guard the shared state")
	case race.Delayed:
		da, db := lastDelayedPost(e.FirstChain), lastDelayedPost(e.SecondChain)
		e.Reason = "a delayed post leaves the dispatch order to the timer"
		for _, d := range []*PostStep{da, db} {
			if d != nil {
				e.Hints = append(e.Hints, fmt.Sprintf(
					"inspect the timeout of %s (δ=%dms): is it guaranteed to expire after the conflicting task runs?",
					taskOf(d), d.Op.Delay))
			}
		}
	case race.CrossPosted:
		xa, xb := lastCrossPost(tr, e.FirstChain, a.Thread), lastCrossPost(tr, e.SecondChain, b.Thread)
		e.Reason = fmt.Sprintf("the tasks were posted from different threads (%s, %s) with no ordering between the posts", posterOf(xa), posterOf(xb))
		e.Hints = append(e.Hints,
			"order the posts (post the second only after the first task completes), or",
			"make the tasks commute on the shared state")
	default:
		e.Reason = "no classification criterion applies"
		e.Hints = append(e.Hints, "this often involves FIFO exceptions; see the near misses below")
	}
	e.NearMisses = nearMisses(g, r)
	return e
}

// chainSteps materializes chain(α) with display annotations.
func chainSteps(info *trace.Info, i int) []PostStep {
	var out []PostStep
	for _, p := range info.PostChain(i) {
		op := info.Trace().Op(p)
		out = append(out, PostStep{
			Index:   p,
			Op:      op,
			Enabled: info.EnableIdx(op.Task) >= 0,
		})
	}
	return out
}

func taskOf(s *PostStep) string {
	if s == nil {
		return "<none>"
	}
	return string(s.Op.Task)
}

func posterOf(s *PostStep) string {
	if s == nil {
		return "<none>"
	}
	return fmt.Sprintf("t%d", s.Op.Thread)
}

func lastEventPost(info *trace.Info, chain []PostStep) *PostStep {
	for k := len(chain) - 1; k >= 0; k-- {
		if chain[k].Enabled {
			return &chain[k]
		}
	}
	return nil
}

func lastDelayedPost(chain []PostStep) *PostStep {
	for k := len(chain) - 1; k >= 0; k-- {
		if chain[k].Op.Delayed {
			return &chain[k]
		}
	}
	return nil
}

func lastCrossPost(tr *trace.Trace, chain []PostStep, accessThread trace.ThreadID) *PostStep {
	for k := len(chain) - 1; k >= 0; k-- {
		if chain[k].Op.Thread != accessThread {
			return &chain[k]
		}
	}
	return nil
}

// nearMisses inspects the rules that could have ordered the racing pair
// and reports exactly which premise failed.
func nearMisses(g Relation, r race.Race) []string {
	info := g.Info()
	tr := info.Trace()
	var out []string
	taskA, taskB := info.Task(r.First), info.Task(r.Second)
	threadA, threadB := tr.Op(r.First).Thread, tr.Op(r.Second).Thread

	// Same-thread pair in different tasks: examine FIFO and NOPRE.
	if threadA == threadB && taskA != "" && taskB != "" && taskA != taskB {
		qa, qb := info.PostIdx(taskA), info.PostIdx(taskB)
		if qa >= 0 && qb >= 0 {
			pa, pb := tr.Op(qa), tr.Op(qb)
			ordered := g.OrderedLE(qa, qb) || g.OrderedLE(qb, qa)
			switch {
			case !ordered:
				out = append(out, fmt.Sprintf(
					"FIFO inapplicable: the posts of %s (by t%d) and %s (by t%d) are themselves unordered",
					taskA, pa.Thread, taskB, pb.Thread))
			case pa.Front || pb.Front:
				out = append(out, fmt.Sprintf(
					"FIFO blocked: a front-of-queue post (%s) overrides dispatch order",
					frontOne(pa, pb)))
			case pa.Delayed || pb.Delayed:
				out = append(out, fmt.Sprintf(
					"FIFO blocked by delayed-post timing: %s", delayedDetail(pa, pb)))
			}
			// NOPRE: did anything in the earlier task reach the later post?
			first, second := taskA, taskB
			qSecond := qb
			if info.BeginIdx(taskB) < info.BeginIdx(taskA) {
				first, second = taskB, taskA
				qSecond = qa
			}
			if !anyTaskOpReaches(g, first, qSecond) {
				out = append(out, fmt.Sprintf(
					"NOPRE inapplicable: no operation of %s happens before the post of %s",
					first, second))
			}
		}
	}
	if threadA != threadB {
		out = append(out, "no fork/join, lock, or post edge connects the two threads for this pair")
	}
	// Enables: an un-posted enable or a missing enable is a common cause.
	for _, task := range []trace.TaskID{taskA, taskB} {
		if task != "" && info.EnableIdx(task) < 0 {
			out = append(out, fmt.Sprintf(
				"task %s was never explicitly enabled — a missing enable instrumentation point causes false positives (§6)",
				task))
		}
	}
	return out
}

func frontOne(a, b trace.Op) string {
	if a.Front {
		return string(a.Task)
	}
	return string(b.Task)
}

func delayedDetail(a, b trace.Op) string {
	parts := []string{}
	for _, op := range []trace.Op{a, b} {
		if op.Delayed {
			parts = append(parts, fmt.Sprintf("%s is delayed by %dms", op.Task, op.Delay))
		}
	}
	return strings.Join(parts, "; ")
}

// anyTaskOpReaches reports whether some operation of task p happens before
// the operation at trace index j.
func anyTaskOpReaches(g Relation, p trace.TaskID, j int) bool {
	info := g.Info()
	begin, end := info.BeginIdx(p), info.EndIdx(p)
	if begin < 0 {
		return false
	}
	if end < 0 {
		end = info.Trace().Len() - 1
	}
	for i := begin; i <= end; i++ {
		if info.Task(i) == p && g.OrderedLE(i, j) {
			return true
		}
	}
	return false
}

// String renders the explanation as a multi-line report.
func (e Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s race on %s (ops %d, %d)\n", e.Race.Category, e.Race.Loc, e.Race.First, e.Race.Second)
	fmt.Fprintf(&sb, "  why: %s\n", e.Reason)
	writeChain := func(label string, chain []PostStep) {
		fmt.Fprintf(&sb, "  %s: ", label)
		if len(chain) == 0 {
			sb.WriteString("(no posts: plain thread code)\n")
			return
		}
		for k, s := range chain {
			if k > 0 {
				sb.WriteString(" -> ")
			}
			fmt.Fprintf(&sb, "%v", s.Op)
			if s.Enabled {
				sb.WriteString(" [enabled]")
			}
		}
		sb.WriteByte('\n')
	}
	writeChain("chain of first access ", e.FirstChain)
	writeChain("chain of second access", e.SecondChain)
	for _, h := range e.Hints {
		fmt.Fprintf(&sb, "  hint: %s\n", h)
	}
	for _, m := range e.NearMisses {
		fmt.Fprintf(&sb, "  near miss: %s\n", m)
	}
	return sb.String()
}

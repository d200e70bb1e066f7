package sentinel

import (
	"bytes"
	"fmt"
	"runtime"

	"droidracer/internal/trace"
)

// Estimate is the admission-time cost prediction for one submitted
// trace body, derived from a single cheap line scan — no parse, no
// allocation proportional to the input. It is returned in the body of a
// 413 cost-exceeded rejection so the client learns why.
type Estimate struct {
	// Ops counts operation lines; Threads the distinct thread IDs seen.
	Ops     int `json:"ops"`
	Threads int `json:"threads"`
	// Snapshots counts the lines at which the streaming engine copies a
	// clock or seeds an accumulator that later joins read (see
	// stream.applyOutgoing): posts, ends, enables, attachQ, forks,
	// releases and threadexits. Each one stores up to Width components.
	Snapshots int `json:"snapshots"`
	// Width bounds the clock width: one context per thread, plus every
	// task context FIFO slot reuse may fail to fold (a post whose poster
	// differs from the previous post to the same looper, or whose
	// poster's own contexts have split since; every front-of-queue and
	// delayed post), plus every out-of-task op after a thread's loop,
	// which the engine gives a fresh context.
	Width int `json:"width"`
	// StreamBytes predicts what the streaming analysis allocates,
	// parse included: see streamBytes.
	StreamBytes int64 `json:"stream_bytes"`
}

// CostLimits are the admission ceilings over Estimate.StreamBytes.
type CostLimits struct {
	// Soft flags submissions heavy: they run isolated in a worker
	// subprocess instead of on the daemon's heap. 0 disables.
	Soft int64
	// Hard rejects submissions outright with 413 cost-exceeded. 0
	// disables.
	Hard int64
}

// Enabled reports whether any ceiling is configured.
func (c CostLimits) Enabled() bool { return c.Soft > 0 || c.Hard > 0 }

// Cost classes an Estimate falls into under CostLimits.
const (
	ClassNormal   = "normal"
	ClassHeavy    = "heavy"
	ClassRejected = "rejected"
)

// Classify buckets the estimate: rejected above Hard, heavy above Soft,
// normal otherwise.
func (e Estimate) Classify(lim CostLimits) string {
	class := ClassNormal
	switch {
	case lim.Hard > 0 && e.StreamBytes > lim.Hard:
		class = ClassRejected
	case lim.Soft > 0 && e.StreamBytes > lim.Soft:
		class = ClassHeavy
	}
	estimateCounters[class].Inc()
	return class
}

// scanThread is the estimator's per-thread state.
type scanThread struct {
	looped bool // saw loopOnQ: later out-of-task ops get fresh contexts
	inTask bool // between a begin and its end
	// splits counts the task contexts counted against this thread; a
	// change between two of a poster's posts means they may come from
	// unordered contexts, so FIFO need not order their tasks.
	splits  int
	lastSrc trace.ThreadID // poster of the previous post to this thread, -1 if none
	lastGen int            // that poster's splits at the time
}

// EstimateBytes predicts the analysis cost of a textual trace body. It
// first validates any declared-size directive (trace.DeclaredOps): a
// count the bytes cannot back is a bomb aimed at the parser's
// preallocation, returned as the *trace.SizeError the server maps to
// 422. Then it reads each line with trace.ScanOp, counting snapshot
// lines and the clock-width bound the streaming engine's cost follows.
func EstimateBytes(body []byte) (Estimate, error) {
	if _, err := trace.DeclaredOps(body); err != nil {
		return Estimate{}, err
	}
	var est Estimate
	threads := make(map[trace.ThreadID]*scanThread, 8)
	thread := func(id trace.ThreadID) *scanThread {
		if threads[id] == nil {
			threads[id] = &scanThread{lastSrc: -1}
		}
		return threads[id]
	}
	for rest := body; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		est.Ops++
		op, ok := trace.ScanOp(line)
		if !ok {
			// The parser will refuse it; price it as the worst line anyway.
			est.Snapshots++
			est.Width++
			continue
		}
		t := thread(op.Thread)
		switch op.Kind {
		case trace.OpRead, trace.OpWrite:
			continue // accesses join no clock; the per-op term covers them
		case trace.OpPost:
			est.Snapshots++
			dst := thread(op.Other)
			if op.Front || op.Delayed || dst.lastSrc != op.Thread || dst.lastGen != t.splits {
				dst.splits++
				est.Width++
			}
			dst.lastSrc, dst.lastGen = op.Thread, t.splits
		case trace.OpEnd:
			est.Snapshots++
			t.inTask = false
			continue
		case trace.OpBegin:
			t.inTask = true
			continue
		case trace.OpLoopOnQ:
			t.looped = true
			continue
		case trace.OpJoin:
			thread(op.Other)
		case trace.OpFork:
			thread(op.Other)
			est.Snapshots++
		case trace.OpEnable, trace.OpAttachQ, trace.OpRelease, trace.OpThreadExit:
			est.Snapshots++
		}
		if t.looped && !t.inTask {
			est.Width++
		}
	}
	est.Threads = len(threads)
	est.Width += est.Threads
	est.StreamBytes = streamBytes(est)
	return est, nil
}

// streamBytes models the streaming analysis's allocation, parse
// included, fitted on 2 vCPU (DESIGN.md §16): per op (op, line string,
// annotations, epoch, shadow entry), per thread (root context), a floor
// for fixed tables, and the quadratic term — every snapshot copies or
// grows a map-backed clock of up to Width components (both views, plus
// the begin-time tentative views slot reuse folds away).
func streamBytes(e Estimate) int64 {
	const (
		perOp       = 240
		perThread   = 4 << 10
		perSnapWide = 128
		fixed       = 64 << 10
	)
	return int64(e.Ops)*perOp + int64(e.Threads)*perThread +
		int64(e.Snapshots)*int64(e.Width)*perSnapWide + fixed
}

// WideClockBody builds the bomb the width term exists for: t2 forks and
// joins threads threads, widening its clock by one component each, then
// posts posts tasks to the looper t1, every post and end copying that
// clock — cost posts × threads from a body of posts + threads lines.
func WideClockBody(threads, posts int) []byte {
	var b bytes.Buffer
	b.WriteString("threadinit(t1)\nattachQ(t1)\nloopOnQ(t1)\nfork(t1,t2)\nthreadinit(t2)\n")
	for k := 3; k < threads+3; k++ {
		fmt.Fprintf(&b, "fork(t2,t%d)\nthreadinit(t%d)\nthreadexit(t%d)\njoin(t2,t%d)\n", k, k, k, k)
	}
	for i := 0; i < posts; i++ {
		fmt.Fprintf(&b, "post(t2,p%d,t1)\nbegin(t1,p%d)\nend(t1,p%d)\n", i, i, i)
	}
	return b.Bytes()
}

// MeasureAlloc reports the bytes f allocates per run, averaged over
// runs after a GC: the measure streamBytes is fitted against.
func MeasureAlloc(runs int, f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

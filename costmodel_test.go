package droidracer_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"droidracer"
	"droidracer/internal/apps"
	"droidracer/internal/sentinel"
	"droidracer/internal/trace"
)

// lockFanIn widens a clock with five threads only: tasks posted to the
// looper t1 by alternating posters t2 and t3 are mutually unordered, so
// FIFO slot reuse cannot fold them and each runs in a context of its
// own. Each releases lock L; t4's acquire joins all of them, and its
// posts then copy a clock as wide as the task count.
func lockFanIn(tasks, posts int) []byte {
	var sb strings.Builder
	sb.WriteString("threadinit(t0)\nfork(t0,t1)\nthreadinit(t1)\nattachQ(t1)\nloopOnQ(t1)\n")
	for k := 2; k <= 4; k++ {
		fmt.Fprintf(&sb, "fork(t0,t%d)\nthreadinit(t%d)\n", k, k)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "post(t%d,u%d,t1)\nbegin(t1,u%d)\nacquire(t1,L)\nrelease(t1,L)\nend(t1,u%d)\n", 2+i%2, i, i, i)
	}
	sb.WriteString("acquire(t4,L)\nrelease(t4,L)\n")
	for i := 0; i < posts; i++ {
		fmt.Fprintf(&sb, "post(t4,p%d,t1)\nbegin(t1,p%d)\nend(t1,p%d)\n", i, i, i)
	}
	return []byte(sb.String())
}

// streamAlloc reports the bytes a served job allocates for body: the
// spool-file parse plus the default streaming analysis.
func streamAlloc(t *testing.T, body []byte) int64 {
	t.Helper()
	return sentinel.MeasureAlloc(1, func() {
		tr, err := trace.ParseBytes(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := droidracer.Analyze(tr, droidracer.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
}

func estimate(t *testing.T, body []byte) sentinel.Estimate {
	t.Helper()
	est, err := sentinel.EstimateBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestCostModel pins the admission cost model against measured
// allocation: it never under-prices the wide-clock bombs, whose cost
// is quadratic in a small body, and it stays within 4× of what every
// Table 2 app trace really allocates.
func TestCostModel(t *testing.T) {
	logRow := func(name string, body []byte, est sentinel.Estimate, alloc int64) {
		t.Logf("%-16s %6d KB  ops %6d  width %5d  snapshots %6d  est %7.1f MB  alloc %7.1f MB  est/alloc %.2f",
			name, len(body)>>10, est.Ops, est.Width, est.Snapshots,
			float64(est.StreamBytes)/1e6, float64(alloc)/1e6, float64(est.StreamBytes)/float64(alloc))
	}
	t.Run("bombs", func(t *testing.T) {
		for _, n := range []int{100, 200, 400} {
			for _, b := range []struct {
				name string
				body []byte
			}{
				{fmt.Sprintf("join %d/%d", n, 4*n), sentinel.WideClockBody(n, 4*n)},
				{fmt.Sprintf("lock %d/%d", n, 4*n), lockFanIn(n, 4*n)},
			} {
				est, alloc := estimate(t, b.body), streamAlloc(t, b.body)
				logRow(b.name, b.body, est, alloc)
				if est.StreamBytes < alloc {
					t.Errorf("%s: estimate %d < measured allocation %d", b.name, est.StreamBytes, alloc)
				}
			}
		}
	})
	t.Run("corpus", func(t *testing.T) {
		for _, app := range apps.All() {
			var buf bytes.Buffer
			if err := droidracer.FormatTrace(&buf, representative(t, app.Name()).Trace); err != nil {
				t.Fatal(err)
			}
			body := buf.Bytes()
			est, alloc := estimate(t, body), streamAlloc(t, body)
			logRow(app.Name(), body, est, alloc)
			if est.StreamBytes > 4*alloc {
				t.Errorf("%s: estimate %d > 4× measured allocation %d", app.Name(), est.StreamBytes, alloc)
			}
		}
	})
	t.Run("wide bodies", func(t *testing.T) {
		// Both measure about 2.5 GB of allocation from a half-megabyte
		// body (DESIGN.md §16); neither is run here.
		for name, body := range map[string][]byte{
			"join 2000/8000": sentinel.WideClockBody(2000, 8000),
			"lock 2000/8000": lockFanIn(2000, 8000),
		} {
			est := estimate(t, body)
			if got := est.Classify(sentinel.CostLimits{Soft: 64 << 20}); got != sentinel.ClassHeavy {
				t.Errorf("%s (est %d) under a 64 MiB soft ceiling: %s, want heavy", name, est.StreamBytes, got)
			}
			if got := est.Classify(sentinel.CostLimits{Hard: 2 << 30}); got != sentinel.ClassRejected {
				t.Errorf("%s (est %d) under a 2 GiB hard ceiling: %s, want rejected", name, est.StreamBytes, got)
			}
		}
	})
}

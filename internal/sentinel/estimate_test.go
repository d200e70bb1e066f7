package sentinel

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"droidracer/internal/trace"
)

func TestEstimateBytesShape(t *testing.T) {
	body := strings.Join([]string{
		"# a comment line",
		"",
		"threadinit(t1)",
		"attachQ(t1)",
		"loopOnQ(t1)",
		"post(t0,A,t1)", // first post to t1: a new task context
		"begin(t1,A)",
		"write(t1,x)",
		"post(t1,B,t1)", // new poster for t1: may not fold
		"end(t1,A)",
		"begin(t1,B)",
		"end(t1,B)",
		"enable(t1,C)", // out of task after the loop: a stray context
		"post(t1,C,t1)",
		"write(t2,x)",
	}, "\n")
	est, err := EstimateBytes([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if est.Ops != 13 {
		t.Errorf("Ops = %d, want 13 (comments and blanks don't count)", est.Ops)
	}
	if est.Threads != 3 { // t0, t1, t2
		t.Errorf("Threads = %d, want 3", est.Threads)
	}
	// attachQ, three posts, two ends, one enable.
	if est.Snapshots != 7 {
		t.Errorf("Snapshots = %d, want 7", est.Snapshots)
	}
	// Three threads, posts A and B, and the stray enable and post C.
	if est.Width != 7 {
		t.Errorf("Width = %d, want 7", est.Width)
	}
	if est.StreamBytes != streamBytes(est) || est.StreamBytes <= 0 {
		t.Errorf("StreamBytes = %d, want streamBytes = %d", est.StreamBytes, streamBytes(est))
	}
}

func TestEstimateWidthFromUnorderedPosters(t *testing.T) {
	// One poster's FIFO-ordered tasks fold into one context slot; the
	// same tasks from two alternating posters may not, and neither may
	// the tasks that those split contexts post in turn.
	head := "threadinit(t1)\nattachQ(t1)\nloopOnQ(t1)\n"
	one, two, chained := head, head, head
	for i := 0; i < 100; i++ {
		one += fmt.Sprintf("post(t2,p%d,t1)\nbegin(t1,p%d)\nend(t1,p%d)\n", i, i, i)
		two += fmt.Sprintf("post(t%d,p%d,t1)\nbegin(t1,p%d)\nend(t1,p%d)\n", 2+i%2, i, i, i)
		chained += fmt.Sprintf("post(t%d,p%d,t1)\nbegin(t1,p%d)\npost(t1,q%d,t4)\nend(t1,p%d)\n", 2+i%2, i, i, i, i)
	}
	for _, tc := range []struct {
		body  string
		width int
	}{
		{one, 2 + 1},
		{two, 3 + 100},
		{chained, 4 + 100 + 100},
	} {
		est, err := EstimateBytes([]byte(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if est.Width != tc.width {
			t.Errorf("Width = %d, want %d", est.Width, tc.width)
		}
	}
}

func TestEstimateBytesAllocatesPerThreadOnly(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("threadinit(t1)\nattachQ(t1)\nloopOnQ(t1)\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "post(t2,p%d,t1)\nbegin(t1,p%d)\nwrite(t1,x)\nend(t1,p%d)\n", i, i, i)
	}
	body := []byte(sb.String())
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := EstimateBytes(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("EstimateBytes made %.0f allocations on an 8k-line body, want a per-thread handful", allocs)
	}
}

func TestEstimatePropagatesSizeError(t *testing.T) {
	var se *trace.SizeError
	_, err := EstimateBytes([]byte("#! ops=999999999\nthreadinit(t1)\n"))
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *trace.SizeError", err)
	}
}

func TestClassify(t *testing.T) {
	lim := CostLimits{Soft: 100, Hard: 1000}
	if !lim.Enabled() {
		t.Fatal("limits not enabled")
	}
	if (CostLimits{}).Enabled() {
		t.Fatal("zero limits enabled")
	}
	for _, tc := range []struct {
		bytes int64
		want  string
	}{
		{50, ClassNormal},
		{100, ClassNormal}, // ceilings are exclusive
		{101, ClassHeavy},
		{1000, ClassHeavy},
		{1001, ClassRejected},
	} {
		if got := (Estimate{StreamBytes: tc.bytes}).Classify(lim); got != tc.want {
			t.Errorf("Classify(%d) = %s, want %s", tc.bytes, got, tc.want)
		}
	}
	// Soft-only: nothing is ever rejected.
	if got := (Estimate{StreamBytes: 1 << 40}).Classify(CostLimits{Soft: 100}); got != ClassHeavy {
		t.Errorf("soft-only Classify = %s, want heavy", got)
	}
	// Disabled: everything is normal.
	if got := (Estimate{StreamBytes: 1 << 40}).Classify(CostLimits{}); got != ClassNormal {
		t.Errorf("disabled Classify = %s, want normal", got)
	}
}

// TestEstimateReformattedBombs pins that the estimator reads thread
// arguments as the parser does: spacing, a '+' sign or zero padding the
// parser accepts must not hide a bomb's width from the price.
func TestEstimateReformattedBombs(t *testing.T) {
	body := WideClockBody(200, 800)
	canon, err := EstimateBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*strings.Replacer{
		"spaced": strings.NewReplacer("(", "( ", ",", " , ", ")", " )"),
		"signed": strings.NewReplacer("(t", "(t+", ",t", ",t+"),
		"padded": strings.NewReplacer("(t", "(t0000000000", ",t", ",t0000000000"),
		"tabbed": strings.NewReplacer("(", "(\t", ",", ",\t"),
		"crlf":   strings.NewReplacer("\n", "\r\n"),
	} {
		variant := []byte(r.Replace(string(body)))
		if _, err := trace.ParseBytes(variant); err != nil {
			t.Fatalf("%s: variant does not parse: %v", name, err)
		}
		est, err := EstimateBytes(variant)
		if err != nil {
			t.Fatal(err)
		}
		if est != canon {
			t.Errorf("%s: estimate %+v, canonical body %+v", name, est, canon)
		}
	}
}

func TestEstimatePricesUnreadableLines(t *testing.T) {
	good, err := EstimateBytes([]byte("threadinit(t1)\nthreadinit(t2)\n"))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := EstimateBytes([]byte("threadinit(t1)\nthreadinit(x2)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if bad.Snapshots != good.Snapshots+1 || bad.Width != good.Width || bad.Ops != good.Ops {
		t.Errorf("unreadable line priced %+v, want one more snapshot and its width slot than %+v", bad, good)
	}
}

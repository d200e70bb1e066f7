package trace

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatParseRoundTrip(t *testing.T) {
	tr := figureTrace()
	tr.Append(PostDelayed(1, "tick", 1, 250))
	tr.Append(PostFront(1, "urgent", 1))
	tr.Append(Cancel(1, "tick"))
	tr.Append(Acquire(1, "L"))
	tr.Append(Release(1, "L"))

	var sb strings.Builder
	if err := Format(&sb, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip length %d, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Ops() {
		if got.Op(i) != tr.Op(i) {
			t.Fatalf("op %d: got %v, want %v", i, got.Op(i), tr.Op(i))
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	input := `
# a comment
threadinit(t1)

attachQ(t1)
# another
`
	tr, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

func TestParseWhitespaceInArgs(t *testing.T) {
	op, err := ParseOp("post(t0, LAUNCH_ACTIVITY, t1)")
	if err != nil {
		t.Fatal(err)
	}
	if op.Task != "LAUNCH_ACTIVITY" || op.Thread != 0 || op.Other != 1 {
		t.Fatalf("parsed %+v", op)
	}
}

func TestParseOpErrors(t *testing.T) {
	bad := []string{
		"",
		"post",
		"post(t0,p,t1",
		"frobnicate(t1)",
		"threadinit(x1)",
		"threadinit(t-1)",
		"fork(t1)",
		"post(t1,p)",
		"postd(t1,p,t1,abc)",
		"postd(t1,p,t1,-5)",
		"read(t1)",
		"join(t1,q2)",
	}
	for _, s := range bad {
		if _, err := ParseOp(s); err == nil {
			t.Errorf("ParseOp(%q): no error", s)
		}
	}
}

func TestParseBadLineReportsLineNumber(t *testing.T) {
	_, err := Parse(strings.NewReader("threadinit(t1)\nbogus(t1)\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 mention", err)
	}
}

// randomOp produces an arbitrary well-formed operation for round-trip
// property testing.
func randomOp(rng *rand.Rand) Op {
	t := ThreadID(rng.Intn(8))
	o := ThreadID(rng.Intn(8))
	task := TaskID([]string{"p", "q", "onPause", "task_42"}[rng.Intn(4)])
	loc := Loc([]string{"x", "Obj.field", "DwFileAct-obj"}[rng.Intn(3)])
	lock := LockID([]string{"l", "mu"}[rng.Intn(2)])
	switch rng.Intn(12) {
	case 0:
		return ThreadInit(t)
	case 1:
		return ThreadExit(t)
	case 2:
		return Fork(t, o)
	case 3:
		return Join(t, o)
	case 4:
		return AttachQ(t)
	case 5:
		return LoopOnQ(t)
	case 6:
		switch rng.Intn(3) {
		case 0:
			return Post(t, task, o)
		case 1:
			return PostDelayed(t, task, o, int64(rng.Intn(10000)))
		default:
			return PostFront(t, task, o)
		}
	case 7:
		return Begin(t, task)
	case 8:
		return End(t, task)
	case 9:
		if rng.Intn(2) == 0 {
			return Acquire(t, lock)
		}
		return Release(t, lock)
	case 10:
		if rng.Intn(2) == 0 {
			return Read(t, loc)
		}
		return Write(t, loc)
	default:
		if rng.Intn(2) == 0 {
			return Enable(t, task)
		}
		return Cancel(t, task)
	}
}

// TestQuickOpRoundTrip checks String/ParseOp inversion on random ops.
func TestQuickOpRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 50; k++ {
			op := randomOp(rng)
			back, err := ParseOp(op.String())
			if err != nil || back != op {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScanOpMatchesParseOp(t *testing.T) {
	lines := []string{
		"fork(t1,t2)",
		"fork( t2,t3)",
		"join(t2 , t+3)",
		"post(t2,p1, t1)",
		"post( t0000000002 ,p1,t1)",
		"postf(t1,p,t-0)",
		"postd(t1,p,t2,5)",
		"threadexit(\tt7 )",
		"read(t1,x)",
	}
	for _, s := range lines {
		op, err := ParseOp(s)
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", s, err)
		}
		got, ok := ScanOp([]byte(s))
		want := Op{Kind: op.Kind, Thread: op.Thread, Other: op.Other, Front: op.Front, Delayed: op.Delayed}
		if !ok || got != want {
			t.Errorf("ScanOp(%q) = %+v, %v; want %+v", s, got, ok, want)
		}
	}
	for _, s := range []string{"", "fork(t1)", "bogus(t1)", "join(t1,q2)", "read(t-1,x)", "post(t1,p,t2147483648)"} {
		if _, ok := ScanOp([]byte(s)); ok {
			t.Errorf("ScanOp(%q) accepted a line ParseOp rejects", s)
		}
	}
	line := []byte("post( t2 ,p1, t1)")
	if n := testing.AllocsPerRun(100, func() { ScanOp(line) }); n != 0 {
		t.Errorf("ScanOp allocates %v times per line", n)
	}
	bad := []byte("join(t1,x99)")
	if n := testing.AllocsPerRun(100, func() { ScanOp(bad) }); n != 0 {
		t.Errorf("ScanOp allocates %v times on a bad thread", n)
	}
}

// TestThreadIDMatchesParseInt pins threadID to the definition it
// replaces: "t" then a non-negative strconv.ParseInt(_, 10, 32) value.
func TestThreadIDMatchesParseInt(t *testing.T) {
	for _, s := range []string{
		"t0", "t7", "t+7", "t-0", "t-7", "t007", "t", "t+", "t-", "x7", "T7",
		"t2147483647", "t2147483648", "t-2147483648", "t1_000", "t 7", "t7 ", "t0x7",
		"t99999999999999999999", "t+0000000000002147483647",
	} {
		n, err := strconv.ParseInt(strings.TrimPrefix(s, "t"), 10, 32)
		wantOK := strings.HasPrefix(s, "t") && len(s) >= 2 && err == nil && n >= 0
		got, ok := threadID(s)
		if ok != wantOK || (ok && int64(got) != n) {
			t.Errorf("threadID(%q) = %d, %v; want %d, %v", s, got, ok, n, wantOK)
		}
	}
}

package sentinel

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/jobs"
	"droidracer/internal/paper"
	"droidracer/internal/trace"
)

// workerMarkerEnv gates TestSentinelWorkerProcess: set by the Isolator
// under test, absent in a normal `go test` invocation.
const workerMarkerEnv = "DROIDRACER_SENTINEL_TEST_WORKER"

// TestSentinelWorkerProcess is not a test: it is the worker subprocess
// the isolator tests re-exec this binary into (the standard
// helper-process pattern). It only acts when the marker env is set.
func TestSentinelWorkerProcess(t *testing.T) {
	if os.Getenv(workerMarkerEnv) != "1" {
		t.Skip("not a worker invocation")
	}
	os.Exit(WorkerMain())
}

// testIsolator builds an Isolator that re-execs this test binary into
// TestSentinelWorkerProcess, plus any extra child env (fault clauses).
func testIsolator(extraEnv ...string) *Isolator {
	return &Isolator{
		Exe:      os.Args[0],
		Args:     []string{"-test.run=^TestSentinelWorkerProcess$"},
		Env:      append([]string{workerMarkerEnv + "=1"}, extraEnv...),
		MemLimit: 64 << 20,
		Wall:     time.Minute,
	}
}

// racyTrace is a small trace with one clear multithreaded race.
const racyTrace = `threadinit(t1)
fork(t1,t2)
threadinit(t2)
write(t1,shared)
write(t2,shared)
`

func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.trace")
	if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestIsolatedRunMatchesInProcess(t *testing.T) {
	path := writeTrace(t, racyTrace)
	opts := core.DefaultOptions()

	res, err := testIsolator().Run(context.Background(), path, opts)
	if err != nil {
		t.Fatalf("isolated run: %v", err)
	}
	tr, err := trace.ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if len(res.Races) != len(local.Races) {
		t.Fatalf("isolated found %d races, local %d", len(res.Races), len(local.Races))
	}
	for i, r := range res.Races {
		l := local.Races[i]
		if r.First != l.First || r.Second != l.Second || r.Loc != l.Loc || r.Category != l.Category {
			t.Fatalf("race %d differs across the process boundary: %+v vs %+v", i, r, l)
		}
	}
}

// TestIsolatedRunKeepsHBConfig pins that the caller's happens-before
// rules cross the process boundary. On Figure 4 with the onDestroy post
// issued by a second binder thread, only the enable edges order the two
// writes; without them the analysis reports the false positive the
// environment model removes, and the isolated run must report it too.
func TestIsolatedRunKeepsHBConfig(t *testing.T) {
	tr := paper.Figure4().Clone()
	tr.Ops()[paper.Idx(19)].Thread = 3
	var sb strings.Builder
	if err := trace.Format(&sb, tr); err != nil {
		t.Fatal(err)
	}
	path := writeTrace(t, sb.String())
	opts := core.DefaultOptions()
	opts.HB.EnableEdges = false
	isolated, err := testIsolator().Run(context.Background(), path, opts)
	if err != nil {
		t.Fatalf("isolated run: %v", err)
	}
	local, err := core.Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Analyze(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if jobs.ResultDigest(local) == jobs.ResultDigest(full) {
		t.Fatal("EnableEdges=false changes nothing here; the test cannot tell the configs apart")
	}
	if got, want := jobs.ResultDigest(isolated), jobs.ResultDigest(local); got != want {
		t.Fatalf("isolated digest %s != in-process digest %s: the worker dropped the HB config", got, want)
	}
}

func TestIsolatedAnalysisErrorPreserved(t *testing.T) {
	// A malformed trace fails *analysis*, not the sandbox: the original
	// parse-error taxonomy must travel back verbatim so quarantine
	// reasons stay meaningful, and it must NOT classify as a resource
	// death.
	path := writeTrace(t, "not a trace at all\n")
	_, err := testIsolator().Run(context.Background(), path, core.DefaultOptions())
	if err == nil {
		t.Fatal("want error")
	}
	var re *ResourceError
	if errors.As(err, &re) {
		t.Fatalf("analysis error misclassified as resource death: %v", err)
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("parse error lost its shape: %v", err)
	}
}

// TestIsolatedSubMillisecondDeadline pins that the wall budget crosses
// the process boundary without truncation: a 999µs deadline must trip
// in the child (the analysis takes far longer), not arrive as 0, which
// means unlimited. The trip comes back as the typed budget error with
// the partial result, like the in-process path.
func TestIsolatedSubMillisecondDeadline(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.ThreadInit(1))
	tr.Append(trace.AttachQ(1))
	tr.Append(trace.LoopOnQ(1))
	for i := 0; i < 20000; i++ {
		task := trace.TaskID(fmt.Sprintf("T%d", i))
		tr.Append(trace.Post(0, task, 1))
		tr.Append(trace.Begin(1, task))
		tr.Append(trace.Write(1, trace.Loc(fmt.Sprintf("s%d", i%64))))
		tr.Append(trace.End(1, task))
	}
	var sb strings.Builder
	if err := trace.Format(&sb, tr); err != nil {
		t.Fatal(err)
	}
	path := writeTrace(t, sb.String())
	opts := core.DefaultOptions()
	opts.Budget.Wall = 999 * time.Microsecond
	res, err := testIsolator().Run(context.Background(), path, opts)
	be, ok := budget.AsError(err)
	if !ok || be.Resource != budget.ResourceWallClock {
		t.Fatalf("got %v, want a wall-clock budget error from the child", err)
	}
	if res == nil || res.Stats.Length == 0 {
		t.Fatalf("budget trip lost the partial result: %+v", res)
	}
}

func TestIsolatedChildOOM(t *testing.T) {
	// child-oom makes the worker allocate unboundedly after parsing; the
	// armed RLIMIT_AS must kill it and the parent must classify the death
	// as a memory class, deterministic (no retries).
	path := writeTrace(t, racyTrace)
	_, err := testIsolator(EnvSentinelFault+"=child-oom").
		Run(context.Background(), path, core.DefaultOptions())
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want *ResourceError", err)
	}
	if re.Class != ClassMemLimit && re.Class != ClassOOMKill {
		t.Fatalf("class = %s, want %s or %s (stderr: %s)", re.Class, ClassMemLimit, ClassOOMKill, re.Detail)
	}
	if !re.Deterministic() {
		t.Fatal("resource death must be deterministic")
	}
	if !strings.HasPrefix(re.Error(), "resource: ") {
		t.Fatalf("quarantine reason lacks the resource prefix: %q", re.Error())
	}
}

func TestIsolatedChildPanic(t *testing.T) {
	path := writeTrace(t, racyTrace)
	_, err := testIsolator(EnvSentinelFault+"=child-panic").
		Run(context.Background(), path, core.DefaultOptions())
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want *ResourceError", err)
	}
	if re.Class != ClassPanic {
		t.Fatalf("class = %s, want %s (detail: %s)", re.Class, ClassPanic, re.Detail)
	}
}

func TestIsolatedChildHang(t *testing.T) {
	// child-hang stalls the worker forever; the parent's wall watchdog
	// must kill it and report a deadline class, not wait.
	path := writeTrace(t, racyTrace)
	iso := testIsolator(EnvSentinelFault + "=child-hang")
	iso.Wall = 2 * time.Second
	start := time.Now()
	_, err := iso.Run(context.Background(), path, core.DefaultOptions())
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want *ResourceError", err)
	}
	if re.Class != ClassDeadline {
		t.Fatalf("class = %s, want %s", re.Class, ClassDeadline)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("watchdog took %v", elapsed)
	}
}

func TestIsolatedParentCancelIsTransient(t *testing.T) {
	// The parent cancelling (shutdown drain) is the fleet's fault, not
	// the input's: the outcome must be a budget cancellation — retried by
	// the next incarnation — never a quarantinable resource error.
	path := writeTrace(t, racyTrace)
	ctx, cancel := context.WithCancel(context.Background())
	iso := testIsolator(EnvSentinelFault + "=child-hang")
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	_, err := iso.Run(ctx, path, core.DefaultOptions())
	be, ok := budget.AsError(err)
	if !ok || !be.Canceled() {
		t.Fatalf("got %v, want a cancelled budget error", err)
	}
	var re *ResourceError
	if errors.As(err, &re) {
		t.Fatalf("cancellation misclassified as resource death: %v", err)
	}
}

func TestClassifyExitTable(t *testing.T) {
	for _, tc := range []struct {
		stderr string
		want   string
	}{
		{"runtime: out of memory: cannot allocate 1048576-byte block\n", ClassMemLimit},
		{"fatal error: out of memory allocating heap arena map\n", ClassMemLimit},
		{"panic: runtime error: index out of range\n", ClassPanic},
		{"something else entirely\n", ClassCrash},
	} {
		re := classifyExit(errors.New("exit status 2"), tc.stderr)
		if re.Class != tc.want {
			t.Errorf("classifyExit(%q) = %s, want %s", tc.stderr, re.Class, tc.want)
		}
		if re.Detail == "" {
			t.Errorf("classifyExit(%q): empty detail", tc.stderr)
		}
	}
}

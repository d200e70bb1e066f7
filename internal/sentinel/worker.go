package sentinel

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/faultinject"
	"droidracer/internal/storage"
	"droidracer/internal/trace"
)

// rlimitSlack is headroom added on top of the measured address space
// and the configured limit when arming RLIMIT_AS: the Go runtime's own
// reservations (spans, bitmaps, stacks — and the race detector's shadow
// in -race test builds) must not count against the job's budget.
const rlimitSlack = 512 << 20

// WorkerMain is the entry point of `racedetd -worker`: one isolated
// analysis in a sandboxed child process. It reads its contract from the
// EnvWorker variable (see workerSpec), arms RLIMIT_AS so an allocation
// spree dies against the kernel instead of growing the fleet's heap,
// runs the analysis, and writes the result file the parent rebuilds a
// core.Result from. The exit code is part of the protocol: 0 success,
// 3 analysis error (details in the result file), anything else a death
// the parent classifies. A budget trip exits 3 too, with the partial
// races and the typed budget error in the result file. Returns the
// process exit code.
func WorkerMain() int {
	specJSON := os.Getenv(EnvWorker)
	if specJSON == "" {
		fmt.Fprintln(os.Stderr, "sentinel: worker started without "+EnvWorker)
		return 64
	}
	var spec workerSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "sentinel: bad worker spec: %v\n", err)
		return 64
	}
	if spec.MemLimit > 0 {
		// GOMEMLIMIT (set by the parent in the environment) makes the GC
		// fight before the wall; RLIMIT_AS is the wall. The limit rides
		// on top of the address space already mapped at startup, so only
		// the job's own growth counts against it.
		debug.SetMemoryLimit(spec.MemLimit)
		armRlimit(spec.MemLimit)
	}

	body, err := os.ReadFile(spec.Trace)
	if err != nil {
		return writeWorkerError(spec.Out, err)
	}
	base := filepath.Base(spec.Trace)
	if _, keyed := storage.ContentKey(base); keyed {
		// Content-named spool files commit to their key; the worker
		// verifies the same end-to-end chain the in-process path does.
		if err := storage.VerifyBody(base, body); err != nil {
			return writeWorkerError(spec.Out, err)
		}
	}
	tr, err := trace.ParseBytes(body)
	if err != nil {
		return writeWorkerError(spec.Out, err)
	}

	// Kill-point: death mid-analysis, after the input is parsed — the
	// window the OOM killer strikes in production, and the one the
	// quarantine-replay chaos test arms.
	faultinject.Crash("sentinel.worker")
	switch childFault() {
	case "oom":
		var sink [][]byte
		for {
			b := make([]byte, 1<<20)
			for i := 0; i < len(b); i += 4096 {
				b[i] = 1
			}
			sink = append(sink, b)
		}
	case "hang":
		select {}
	case "panic":
		panic("sentinel: injected worker panic")
	}

	opts := core.Options{
		HB:            spec.HB,
		Dedup:         spec.Dedup,
		Validate:      spec.Validate,
		DropCancelled: spec.DropCancelled,
		Budget:        budget.Limits{Wall: spec.Wall},
	}
	res, err := core.AnalyzeContext(context.Background(), tr, opts)
	code := 0
	var wr workerResult
	if be, ok := budget.AsError(err); ok && res != nil {
		wr.Budget = &workerBudget{Stage: be.Stage, Resource: be.Resource, Limit: be.Limit, Used: be.Used}
		code = workerExitAnalysisError
	} else if err != nil {
		return writeWorkerError(spec.Out, err)
	}
	wr.Stats = res.Stats
	wr.PeakBytes = peakRSS()
	wr.Races = make([]workerRace, len(res.Races))
	for i, r := range res.Races {
		wr.Races[i] = workerRace{First: r.First, Second: r.Second,
			Loc: string(r.Loc), Category: int(r.Category)}
	}
	if err := writeWorkerResult(spec.Out, &wr); err != nil {
		fmt.Fprintf(os.Stderr, "sentinel: write result: %v\n", err)
		return 1
	}
	return code
}

// writeWorkerError records an analysis failure — the input's fault, not
// the sandbox's — and returns the analysis-error exit code.
func writeWorkerError(out string, err error) int {
	if werr := writeWorkerResult(out, &workerResult{Err: err.Error()}); werr != nil {
		fmt.Fprintf(os.Stderr, "sentinel: write result: %v\n", werr)
		return 1
	}
	return workerExitAnalysisError
}

func writeWorkerResult(out string, wr *workerResult) error {
	data, err := json.Marshal(wr)
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o666)
}

// armRlimit caps the address space at what the process has already
// mapped plus the job's memory budget plus slack. Measuring the current
// VmSize first keeps the cap meaningful for any build: a -race test
// binary starts with gigabytes of shadow reservations that must not eat
// the budget. When the job then allocates past its budget, mmap fails
// and the Go runtime throws "out of memory" — the classifiable death
// the parent maps to ClassMemLimit.
func armRlimit(memLimit int64) {
	base := vmSizeBytes()
	if base <= 0 {
		base = 1 << 30
	}
	limit := uint64(base + memLimit + rlimitSlack)
	syscall.Setrlimit(syscall.RLIMIT_AS, &syscall.Rlimit{Cur: limit, Max: limit})
}

// vmSizeBytes reads the process's current virtual size from
// /proc/self/status (0 when unavailable — non-Linux or a hermetic
// sandbox).
func vmSizeBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb int64
		if n, _ := fmt.Sscanf(line, "VmSize: %d kB", &kb); n == 1 {
			return kb << 10
		}
	}
	return 0
}

// peakRSS reports the process's peak resident set in bytes (Linux
// getrusage, ru_maxrss in KiB).
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// stamp is the environment a result was measured in. Results measured
// under different stamps are not comparable.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	StateFS    string `json:"state_fs"`
}

// result is one run as written under .bench_build/results.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment stamps the current process, with the filesystem type of
// the directory the backends keep their spool and journal in.
func environment(stateDir string) stamp {
	s := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", StateFS: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(stateDir, &fs); err == nil {
		s.StateFS = fsName(int64(fs.Type))
	}
	return s
}

// fsName names the common Linux filesystem magic numbers.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// save writes the result under .bench_build/results.
func (r *result) save() error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace))
	fmt.Printf("servebench: stamp nproc=%d gomaxprocs=%d cpu=%q go=%s state_fs=%s; result in %s\n",
		r.Stamp.NProc, r.Stamp.GOMAXPROCS, r.Stamp.CPU, r.Stamp.Go, r.Stamp.StateFS, path)
	return os.WriteFile(path, raw, 0o666)
}

// compareResults prints B against A metric by metric. It refuses (exit 2)
// when the two were measured under different environment stamps or on
// different workloads.
func compareResults(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "servebench: --compare needs two result files")
		return 2
	}
	var rs [2]result
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := rs[0], rs[1]
	if a.Stamp != b.Stamp {
		fmt.Fprintf(os.Stderr, "servebench: refusing to compare: environment stamps differ\n  %s: %+v\n  %s: %+v\n",
			paths[0], a.Stamp, paths[1], b.Stamp)
		return 2
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		fmt.Fprintf(os.Stderr, "servebench: refusing to compare %s/trace=%v/%ds with %s/trace=%v/%ds\n",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
		return 2
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %9s\n", "metric", "A", "B", "B/A-1")
	for _, n := range names {
		va, vb := a.Metrics[n].Value, b.Metrics[n].Value
		change := "n/a"
		if va != 0 {
			change = fmt.Sprintf("%+.1f%%", (vb/va-1)*100)
		}
		fmt.Printf("%-28s %14.4f %14.4f %9s %s\n", n, va, vb, change, a.Metrics[n].Unit)
	}
	fmt.Printf("failed: A %d/%d, B %d/%d\n", a.Failed, a.Attempted, b.Failed, b.Attempted)
	return 0
}

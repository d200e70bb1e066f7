// Offline analysis of a hand-written trace: the literal Figure 4 trace of
// the paper in the textual core-language format, parsed and analyzed
// without running any application — the workflow of cmd/racedet as a
// library call. The analysis reports exactly the two races the paper
// derives: (12,21) multithreaded and (16,21) cross-posted.
//
//	go run ./examples/offline
package main

import (
	"fmt"
	"log"
	"strings"

	"droidracer"
	"droidracer/internal/hb"
	"droidracer/internal/race"
	"droidracer/internal/trace"
)

// figure4 is the Figure 4 trace, one operation per line (comments allowed).
const figure4 = `
# Figure 4: the music player when the user presses BACK.
threadinit(t1)
attachQ(t1)
loopOnQ(t1)
enable(t1,LAUNCH_ACTIVITY)
post(t0,LAUNCH_ACTIVITY,t1)
begin(t1,LAUNCH_ACTIVITY)
write(t1,DwFileAct-obj)
fork(t1,t2)
enable(t1,onDestroy)
end(t1,LAUNCH_ACTIVITY)
threadinit(t2)
read(t2,DwFileAct-obj)
post(t2,onPostExecute,t1)
threadexit(t2)
begin(t1,onPostExecute)
read(t1,DwFileAct-obj)
enable(t1,onPlayClick)
end(t1,onPostExecute)
post(t0,onDestroy,t1)
begin(t1,onDestroy)
write(t1,DwFileAct-obj)
end(t1,onDestroy)
`

func main() {
	tr, err := droidracer.ParseTrace(strings.NewReader(figure4))
	if err != nil {
		log.Fatal(err)
	}
	if i, err := droidracer.ValidateTrace(tr); err != nil {
		log.Fatalf("op %d: %v", i, err)
	}
	result, err := droidracer.Analyze(tr, droidracer.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	// The happens-before graph is built only to report its size.
	fmt.Printf("%d operations, %d graph nodes after merging\n",
		tr.Len(), hb.Build(result.Info, hb.DefaultConfig()).NodeCount())
	for _, r := range result.Races {
		// Print 1-based indices to match the paper's figure numbering.
		fmt.Printf("%-13s race on %s between operations %d and %d\n",
			r.Category, r.Loc, r.First+1, r.Second+1)
	}

	// Ablations, reproducing §2.4's arguments. The variant posts onDestroy
	// from a second binder-pool thread t3 (in the literal figure both IPCs
	// share t0, whose program order incidentally recovers some edges), and
	// racing pairs are counted without deduplication.
	variant := strings.Replace(figure4, "post(t0,onDestroy,t1)", "post(t3,onDestroy,t1)", 1)
	vtr, err := droidracer.ParseTrace(strings.NewReader(variant))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nablations (binder-pool variant, racing pairs):")
	for _, abl := range []struct {
		name string
		mut  func(*droidracer.Options)
	}{
		{"full analysis        ", func(*droidracer.Options) {}},
		{"without enable edges ", func(o *droidracer.Options) { o.HB.EnableEdges = false }},
		{"without FIFO rule    ", func(o *droidracer.Options) { o.HB.FIFO = false }},
		{"naive combination    ", func(o *droidracer.Options) { o.HB.Naive = true }},
		{"event-only (st rules)", func(o *droidracer.Options) { o.HB.STOnly = true }},
	} {
		opts := droidracer.DefaultOptions()
		opts.Dedup = false
		abl.mut(&opts)
		fmt.Printf("  %s -> %d racing pair(s)\n", abl.name, racingPairs(vtr, opts))
	}
}

// racingPairs counts the racing pairs of tr under opts. The STOnly
// ablation truncates the multithreaded relation without closing it,
// which a vector clock cannot express, so it runs on the graph engine.
func racingPairs(tr *droidracer.Trace, opts droidracer.Options) int {
	if !opts.HB.STOnly {
		res, err := droidracer.Analyze(tr, opts)
		if err != nil {
			log.Fatal(err)
		}
		return len(res.Races)
	}
	info, err := trace.Analyze(tr)
	if err != nil {
		log.Fatal(err)
	}
	return len(race.NewDetector(hb.Build(info, opts.HB)).Detect())
}

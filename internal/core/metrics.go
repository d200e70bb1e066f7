package core

import (
	"droidracer/internal/obs"
	"droidracer/internal/race"
)

// Analysis outcome counters, pre-registered per mode so the series set
// is complete from process start. Modes mirror report.Outcome: full,
// partial (error alongside partial results), error (including panics).
var analysisCounters = map[string]*obs.Counter{}

// raceCounters are Table 3's per-category race counts as live series,
// pre-registered so a scrape sees the full classification (at zero)
// before the first analysis. Counted once per analysis.
var raceCounters [race.Unknown + 1]*obs.Counter

func init() {
	for _, mode := range []string{"full", "partial", "error"} {
		analysisCounters[mode] = obs.Default().Counter("droidracer_analyses_total",
			"Completed analyses, by outcome mode.", "mode", mode)
	}
	for c := range raceCounters {
		raceCounters[c] = obs.Default().Counter("droidracer_races_total",
			"Data races reported, by paper category (§4.3).", "category", race.Category(c).String())
	}
}

// publishAnalysis counts one finished analysis by its outcome mode, and
// the races it reported by category.
func publishAnalysis(res *Result, err error) {
	if !obs.ExporterAttached() {
		return
	}
	mode := "full"
	switch {
	case err != nil && res != nil:
		mode = "partial"
	case err != nil:
		mode = "error"
	}
	analysisCounters[mode].Inc()
	if res == nil {
		return
	}
	var byCat [len(raceCounters)]int
	for _, r := range res.Races {
		if int(r.Category) < len(byCat) {
			byCat[r.Category]++
		}
	}
	for c, n := range byCat {
		raceCounters[c].Add(n)
	}
}

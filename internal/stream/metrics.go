package stream

import "droidracer/internal/obs"

// Replay metrics, pre-registered at init so a scrape sees the full
// droidracer_stream_* set (at zero) before the first trace is analyzed.
// Replay counts and durations are droidracer_phase_duration_seconds
// {phase="stream-replay"}; race counts are droidracer_races_total.
var (
	opsTotal = obs.Default().Counter("droidracer_stream_ops_total",
		"Trace operations replayed by the streaming engine.")
	joinsTotal = obs.Default().Counter("droidracer_stream_clock_joins_total",
		"Vector-clock components raised by rule transfers.")
	epochHitsTotal = obs.Default().Counter("droidracer_stream_epoch_hits_total",
		"Shadow-state scans skipped because a summary clock was covered.")
	pairsTotal = obs.Default().Counter("droidracer_stream_scanned_pairs_total",
		"Candidate access pairs examined by the shadow-state scan.")
	contextsGauge = obs.Default().Gauge("droidracer_stream_contexts",
		"Clock contexts in the most recent streaming replay.")
)

// publishReplay records one finished replay into the process-wide
// registry. Called once per Run, never in the hot loop.
func publishReplay(o *Outcome) {
	if !obs.ExporterAttached() {
		return
	}
	opsTotal.Add(o.Stats.Ops)
	joinsTotal.Add(o.Stats.Joins)
	epochHitsTotal.Add(o.Stats.EpochHits)
	pairsTotal.Add(o.Stats.Pairs)
	contextsGauge.Set(int64(o.Stats.Contexts))
}

package report

import (
	"errors"
	"fmt"
	"time"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/obs"
	"droidracer/internal/race"
)

// Outcome is one analyzed trace's final state as the hardened pipeline
// leaves it: a full result, a partial result with a budget error, or a
// bare error. Every combination renders to a row —
// the "always produce a report" guarantee at the reporting layer.
type Outcome struct {
	// Name labels the trace or app.
	Name string
	// Result is the analysis result; may be nil (hard failure) or
	// partial (alongside a budget error).
	Result *core.Result
	// Err is the error the pipeline returned, nil on success.
	Err error

	// The fields below are set by the jobs supervisor for work it
	// managed; they are zero for plain per-trace analyses.

	// JobState is the supervisor's disposition for a job that never ran
	// to an analysis verdict: JobQueued (still waiting at shutdown),
	// JobShed (rejected by admission control), JobDrained (checkpointed
	// and requeued for a future resume during graceful shutdown), or
	// JobQuarantined (failed deterministically and dead-lettered — unlike
	// every other non-terminal state, it will never be retried). Empty
	// for jobs that produced a Result or Err.
	JobState string
	// Attempts counts supervised execution attempts; values above 1 mean
	// the job was retried.
	Attempts int
	// Resumed marks a job whose result includes work recovered from a
	// checkpoint journal rather than recomputed.
	Resumed bool
	// TraceID is the distributed trace the job's spans were recorded
	// under (see obs.TraceRec); it flows into journal records and
	// duplicate-submission replies so results stay correlated with the
	// trace that produced them. Empty for unsupervised analyses.
	TraceID string
}

// Supervisor job states rendered in the Mode column. JobQuarantined is
// terminal: the input was dead-lettered and a restart never re-ingests
// it, which the report must distinguish from a plain failure that the
// next incarnation would retry.
const (
	JobQueued      = "queued"
	JobShed        = "shed"
	JobDrained     = "drained"
	JobQuarantined = "quarantined"
)

// mode summarizes how the outcome's analysis ended. Supervisor states
// replace the analysis mode (those jobs have no verdict); retry and
// resume annotate it, e.g. "full+retried" or "partial+resumed".
func (o Outcome) mode() string {
	if o.JobState != "" {
		return o.JobState
	}
	m := ""
	switch {
	case o.Err != nil && o.Result != nil:
		m = "partial"
	case o.Err != nil:
		m = "error"
	default:
		m = "full"
	}
	if o.Attempts > 1 {
		m += "+retried"
	}
	if o.Resumed {
		m += "+resumed"
	}
	return m
}

// detail renders the reason column: the budget resource, the panic
// stage, or the error text.
func (o Outcome) detail() string {
	err := o.Err
	if err == nil {
		return ""
	}
	var pe *budget.PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("panic in %s", pe.Stage)
	}
	if be, ok := budget.AsError(err); ok {
		return fmt.Sprintf("budget: %s", be.Resource)
	}
	return err.Error()
}

// Pipeline renders one row per outcome: name, mode
// (full/partial/error), race count, and the reason. Partial rows keep
// their incomplete race counts, so a budget-limited batch still yields
// a usable report. When any outcome
// carries per-phase timings a Time column is added (total analysis
// wall-clock per row); reports without timings render exactly as
// before.
func Pipeline(outcomes []Outcome) string {
	timed := false
	for _, o := range outcomes {
		if o.Result != nil && len(o.Result.Phases) > 0 {
			timed = true
			break
		}
	}
	header := []string{"Trace", "Mode", "Races"}
	if timed {
		header = append(header, "Time")
	}
	t := &table{header: append(header, "Reason")}
	for _, o := range outcomes {
		races := "-"
		if o.Result != nil {
			races = fmt.Sprintf("%d", len(o.Result.Races))
		}
		row := []string{o.Name, o.mode(), races}
		if timed {
			cell := "-"
			if o.Result != nil && len(o.Result.Phases) > 0 {
				cell = formatDuration(obs.Total(o.Result.Phases))
			}
			row = append(row, cell)
		}
		t.addRow(append(row, o.detail())...)
	}
	return t.String()
}

// PhaseTable renders per-phase wall-clock timings (racedet
// -phase-timings) with a trailing total row.
func PhaseTable(timings []obs.PhaseTiming) string {
	t := &table{header: []string{"Phase", "Time"}}
	for _, pt := range timings {
		t.addRow(pt.Phase, formatDuration(pt.Duration))
	}
	t.addRow("total", formatDuration(obs.Total(timings)))
	return t.String()
}

// PhaseTableQuantiles renders PhaseTable with three extra columns —
// p50/p90/p99 of the process-wide phase-duration histogram, as supplied
// by the quantiles callback (obs.PhaseQuantiles in the CLIs) — for
// phases with observations. When no phase has histogram data the plain
// PhaseTable renders instead, so reports without a metrics consumer are
// byte-identical to before.
func PhaseTableQuantiles(timings []obs.PhaseTiming, quantiles func(phase string) (p50, p90, p99 time.Duration, ok bool)) string {
	any := false
	if quantiles != nil {
		for _, pt := range timings {
			if _, _, _, ok := quantiles(pt.Phase); ok {
				any = true
				break
			}
		}
	}
	if !any {
		return PhaseTable(timings)
	}
	t := &table{header: []string{"Phase", "Time", "p50", "p90", "p99"}}
	for _, pt := range timings {
		row := []string{pt.Phase, formatDuration(pt.Duration), "-", "-", "-"}
		if p50, p90, p99, ok := quantiles(pt.Phase); ok {
			row[2], row[3], row[4] = formatDuration(p50), formatDuration(p90), formatDuration(p99)
		}
		t.addRow(row...)
	}
	t.addRow("total", formatDuration(obs.Total(timings)), "-", "-", "-")
	return t.String()
}

// formatDuration renders a duration at millisecond-friendly precision:
// sub-second values in fractional milliseconds, the rest in seconds.
func formatDuration(d time.Duration) string {
	if d < time.Second {
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// PipelineSummaries tallies race categories per outcome, skipping
// outcomes without results.
func PipelineSummaries(outcomes []Outcome) map[string]race.Summary {
	m := make(map[string]race.Summary)
	for _, o := range outcomes {
		if o.Result == nil {
			continue
		}
		m[o.Name] = race.Summarize(o.Result.Races)
	}
	return m
}

package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"droidracer/internal/budget"
	"droidracer/internal/core"
	"droidracer/internal/journal"
	"droidracer/internal/report"
)

// Quarantine is the dead-letter destination for poison inputs: jobs that
// fail deterministically after the supervisor has exhausted retries
// (parse errors, isolated panics) are journaled as quarantined and their
// input file is moved here, so a restarted daemon never re-ingests them.
// Transient failures — budget exhaustion, cancellation — are never
// quarantined: a resubmission or the next spool sweep retries them.
type Quarantine struct {
	// Dir is the quarantine directory (created on first use).
	Dir string
}

// quarantineEntryType is the journal entry type of a dead-letter record.
const quarantineEntryType = "quarantine"

// QuarantineEntry is the journal payload recorded per dead-lettered job.
// TraceID correlates the dead-letter record with the committed trace of
// the analysis that proved the input poisonous (quarantined jobs always
// tail-capture).
type QuarantineEntry struct {
	Name    string `json:"name"`
	Reason  string `json:"reason"`
	TraceID string `json:"trace_id,omitempty"`
}

// Absorb moves the input file at path into the quarantine directory and
// fsyncs both directories, so the move survives a crash. A missing
// source is not an error: a previous incarnation may have crashed after
// journaling the dead-letter entry but before (or after) the rename, and
// replaying the quarantine must converge.
func (q *Quarantine) Absorb(path string) error {
	if path == "" {
		return nil
	}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil
	}
	if err := os.MkdirAll(q.Dir, 0o777); err != nil {
		return fmt.Errorf("jobs: quarantine: %w", err)
	}
	dst := filepath.Join(q.Dir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		return fmt.Errorf("jobs: quarantine: %w", err)
	}
	if err := journal.SyncDir(q.Dir); err != nil {
		return err
	}
	return journal.SyncDir(filepath.Dir(path))
}

// Poisonous reports whether an outcome marks its input as poison: the
// job failed with no result at all, and the failure is deterministic —
// a recovered panic or a plain error such as a parse failure — rather
// than an exhausted budget or a cancellation, which a later attempt
// under different load could survive.
func Poisonous(out report.Outcome) bool {
	if out.Err == nil || out.Result != nil || out.JobState == report.JobDrained {
		return false
	}
	if _, ok := budget.AsError(out.Err); ok {
		return false
	}
	return true
}

// QuarantinedJobs extracts the dead-lettered job names (with the failure
// that condemned them) from journal entries, so a restarted daemon skips
// them instead of re-ingesting a poison input forever.
func QuarantinedJobs(entries []journal.Entry) map[string]string {
	out := make(map[string]string)
	for _, e := range entries {
		if e.Type != quarantineEntryType {
			continue
		}
		var qe QuarantineEntry
		if err := e.Decode(&qe); err != nil {
			continue
		}
		out[qe.Name] = qe.Reason
	}
	return out
}

// ResultDigest fingerprints a result's race set: a short stable hash
// over the sorted (category, location, op pair) tuples. Identical inputs
// analyzed by different incarnations produce identical digests, which is
// how the ingestion layer proves idempotent resubmission converged to
// the same races without storing full reports in the journal.
func ResultDigest(res *core.Result) string {
	if res == nil {
		return ""
	}
	lines := make([]string, 0, len(res.Races))
	for _, r := range res.Races {
		lines = append(lines, fmt.Sprintf("%s|%s|%d|%d", r.Category, r.Loc, r.First, r.Second))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

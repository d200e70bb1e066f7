package jobs

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"droidracer/internal/core"
	"droidracer/internal/journal"
	"droidracer/internal/paper"
	"droidracer/internal/report"
	"droidracer/internal/storage"
	"droidracer/internal/trace"
)

// figure4Body renders the paper's Figure 4 trace as spool-file bytes.
func figure4Body(t *testing.T) []byte {
	t.Helper()
	var buf strings.Builder
	if err := trace.Format(&buf, paper.Figure4()); err != nil {
		t.Fatal(err)
	}
	return []byte(buf.String())
}

// TestVerifiedSpoolRoundTrip: a content-named spool file whose bytes
// still match its key analyzes normally — verification is invisible on
// the healthy path.
func TestVerifiedSpoolRoundTrip(t *testing.T) {
	dir := t.TempDir()
	body := figure4Body(t)
	name := storage.Key(body) + ".trace"
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, body, 0o666); err != nil {
		t.Fatal(err)
	}
	p := NewPool(Config{Workers: 1})
	p.Submit(TraceJob(name, path, core.DefaultOptions()))
	p.Quiesce()
	out := outcomesByName(p.Shutdown(context.Background()))[name]
	if out.Err != nil || out.Result == nil {
		t.Fatalf("verified round trip failed: %+v", out)
	}
	if len(out.Result.Races) == 0 {
		t.Fatal("Figure 4 trace analyzed raceless")
	}
}

// TestCorruptSpoolBodyQuarantined proves the read-back integrity check
// end to end at the pool layer: a spool file whose bytes no longer
// match the content key in its name (rot after write, or a misdirected
// write) must not be analyzed as if it were the original submission —
// it fails deterministically and is dead-lettered with a corruption
// reason, journal entry included.
func TestCorruptSpoolBodyQuarantined(t *testing.T) {
	dir := t.TempDir()
	spool := filepath.Join(dir, "spool")
	if err := os.MkdirAll(spool, 0o777); err != nil {
		t.Fatal(err)
	}
	body := figure4Body(t)
	name := storage.Key(body) + ".trace"
	// Rot one byte after the name was derived: the file still parses as
	// a perfectly valid trace — only the digest knows it is not the
	// trace that was accepted.
	rotted := append([]byte(nil), body...)
	rotted[0] = '#' // comment out the first op: still syntactically valid
	path := filepath.Join(spool, name)
	if err := os.WriteFile(path, rotted, 0o666); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "daemon.journal")
	w, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	qdir := filepath.Join(dir, "quarantine")
	p := NewPool(Config{
		Workers:    1,
		Journal:    w,
		Quarantine: &Quarantine{Dir: qdir},
	})
	p.Submit(TraceJob(name, path, core.DefaultOptions()))
	p.Quiesce()
	out := outcomesByName(p.Shutdown(context.Background()))[name]
	w.Close()
	if out.JobState != report.JobQuarantined {
		t.Fatalf("outcome = %+v, want quarantined", out)
	}
	if !storage.IsCorrupt(out.Err) {
		t.Fatalf("failure not classified as corruption: %v", out.Err)
	}
	if _, err := os.Stat(filepath.Join(qdir, name)); err != nil {
		t.Fatalf("corrupt body not dead-lettered: %v", err)
	}
	entries, err := journal.Recover(jpath)
	if err != nil {
		t.Fatal(err)
	}
	reason, ok := QuarantinedJobs(entries)[name]
	if !ok || !strings.Contains(reason, "corrupt") {
		t.Fatalf("quarantine reason = %q, want a corrupt reason", reason)
	}
	if _, ok := CompletedRecords(entries)[name]; ok {
		t.Fatal("corrupt input journaled as completed")
	}
}

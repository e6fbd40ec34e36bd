package span

import (
	"errors"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carbon/internal/telemetry"
)

// TestFileExporterCountsDroppedWrites pins the satellite contract:
// write failures are swallowed (the job survives) but every lost record
// bumps span.dropped_writes and the first failure per file is logged
// exactly once.
func TestFileExporterCountsDroppedWrites(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	exp := NewFileExporter(filepath.Join(dir, "x.jsonl"))
	exp.SetDropCounter(reg.Counter("span.dropped_writes"))

	var logBuf strings.Builder
	prev := log.Writer()
	log.SetOutput(&logBuf)
	defer log.SetOutput(prev)

	tr := New(exp)
	tr.Start(Context{}, "ok").End() // healthy write first

	// Inject a disk-full style fault for the next two records.
	diskFull := errors.New("no space left on device")
	exp.SetFault(func() error { return diskFull })
	tr.Start(Context{}, "lost1").End()
	tr.Start(Context{}, "lost2").End()
	exp.SetFault(nil)
	tr.Start(Context{}, "ok2").End() // recovers once the fault clears

	if got := exp.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	if got := reg.Counter("span.dropped_writes").Load(); got != 2 {
		t.Fatalf("span.dropped_writes = %d, want 2", got)
	}
	if n := strings.Count(logBuf.String(), "dropping writes"); n != 1 {
		t.Fatalf("first-failure log emitted %d times, want once: %q", n, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "no space left on device") {
		t.Fatalf("log does not name the error: %q", logBuf.String())
	}

	if err := exp.Close(); err == nil || !errors.Is(err, diskFull) {
		t.Fatalf("Close() = %v, want the first swallowed error", err)
	}
	// The healthy records made it to disk; the faulted ones did not.
	recs, truncated, err := ReadFile(exp.Path())
	if err != nil || truncated {
		t.Fatalf("ReadFile: %v truncated=%v", err, truncated)
	}
	var names []string
	for _, r := range recs {
		names = append(names, r.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "ok") || strings.Contains(joined, "lost") {
		t.Fatalf("file contents %v", names)
	}
}

// TestFileExporterOpenFailureCounts covers the open-error path: when
// the parent directory is missing every record drops, counted, with
// one log line total.
func TestFileExporterOpenFailureCounts(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	exp := NewFileExporter(filepath.Join(dir, "missing", "x.jsonl"))
	exp.SetDropCounter(reg.Counter("span.dropped_writes"))

	prev := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(prev)

	tr := New(exp)
	for i := 0; i < 3; i++ {
		tr.Start(Context{}, "doomed").End()
	}
	if got := reg.Counter("span.dropped_writes").Load(); got != 3 {
		t.Fatalf("span.dropped_writes = %d, want 3", got)
	}
	if err := exp.Close(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Close() = %v, want not-exist", err)
	}
}

// TestFileExporterNilCounterSafe: an exporter without a wired counter
// still counts locally and never panics.
func TestFileExporterNilCounterSafe(t *testing.T) {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(prev)

	exp := NewFileExporter(filepath.Join(t.TempDir(), "x.jsonl"))
	exp.SetFault(func() error { return errors.New("boom") })
	New(exp).Start(Context{}, "a").End()
	if exp.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", exp.Dropped())
	}
	_ = exp.Close()
}

// A worker SIGKILLed mid-write leaves a torn last span line; the
// revived worker must not append after it, or the torn line ends up
// mid-file where ReadFile no longer forgives it. Reopening cuts the
// torn tail (one counted drop) so the file reads back whole.
func TestFileExporterTrimsTornTail(t *testing.T) {
	var whole strings.Builder
	tr := New(NewWriterExporter(&whole))
	for _, name := range []string{"first", "second", "torn"} {
		tr.Start(Context{}, name).End()
	}
	lines := strings.SplitAfter(whole.String(), "\n")
	for _, tc := range []struct {
		name, prefix string
		want         []string
	}{
		{"after two records", lines[0] + lines[1] + lines[2][:len(lines[2])/2], []string{"first", "second", "revived"}},
		{"no newline at all", lines[2][:len(lines[2])/2], []string{"revived"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "job.spans.jsonl")
			if err := os.WriteFile(path, []byte(tc.prefix), 0o644); err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			exp := NewFileExporter(path)
			exp.SetDropCounter(reg.Counter("span.dropped_writes"))
			New(exp).Start(Context{}, "revived").End()
			if err := exp.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			recs, truncated, err := ReadFile(path)
			if err != nil || truncated {
				t.Fatalf("ReadFile: %v truncated=%v", err, truncated)
			}
			var names []string
			for _, r := range recs {
				names = append(names, r.Name)
			}
			if strings.Join(names, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("records %v, want %v", names, tc.want)
			}
			if got := exp.Dropped(); got != 1 {
				t.Fatalf("Dropped() = %d, want 1 for the torn record", got)
			}
			if got := reg.Counter("span.dropped_writes").Load(); got != 1 {
				t.Fatalf("span.dropped_writes = %d, want 1", got)
			}
		})
	}
}

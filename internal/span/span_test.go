package span

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"carbon/internal/par"
	"carbon/internal/telemetry"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start(Context{}, "anything")
	if s != nil {
		t.Fatalf("nil tracer started a non-nil span")
	}
	// Every method must be a no-op on nil, not a panic.
	s.Kind(KindCompute).Attr("k", 1).Announce().End()
	s.End() // idempotent on nil too
	if ctx := s.Context(); ctx.Valid() {
		t.Fatalf("nil span has a valid context: %v", ctx)
	}
	if New(nil) != nil {
		t.Fatalf("New(nil) should return a nil tracer")
	}
	if Multi(nil, (*FileExporter)(nil), (*HistExporter)(nil)) != nil {
		t.Fatalf("Multi of nils should collapse to nil")
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	var c Collector
	tr := New(&c)
	root := tr.Start(Context{}, "root")
	tp := root.Context().TraceParent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("bad traceparent %q", tp)
	}
	got, err := ParseTraceParent(tp)
	if err != nil {
		t.Fatalf("ParseTraceParent(%q): %v", tp, err)
	}
	if got != root.Context() {
		t.Fatalf("round trip mismatch: %v != %v", got, root.Context())
	}

	for _, bad := range []string{
		"",
		"00-short-1234-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // unsupported version
		"00-0af7651916cd43dd8448eb211c80319c+b7ad6b7169203331-01", // bad separator
		"00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // non-hex trace
		"00-0af7651916cd43dd8448eb211c80319c-zzad6b7169203331-01", // non-hex span
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz", // non-hex flags
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span
	} {
		if _, err := ParseTraceParent(bad); err == nil {
			t.Errorf("ParseTraceParent(%q) accepted garbage", bad)
		}
	}
}

func TestSpanLifecycleAndLinkage(t *testing.T) {
	var c Collector
	tr := New(&c)
	root := tr.Start(Context{}, "submit").Kind(KindIO).Attr("job", "j000001")
	child := tr.Start(root.Context(), "attempt").Kind(KindCompute).Attr("attempt", 1)
	remote := tr.StartRemote(Context{Trace: root.Context().Trace, Span: SpanID{9}}, "linked")
	child.End()
	child.End() // idempotent: must not export twice
	root.End()
	remote.End()

	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (double End must not re-export): %+v", len(recs), recs)
	}
	byName := map[string]Record{}
	for _, r := range recs {
		if r.Schema != Schema {
			t.Fatalf("record %q stamped %q", r.Name, r.Schema)
		}
		byName[r.Name] = r
	}
	rr, cr, lr := byName["submit"], byName["attempt"], byName["linked"]
	if rr.Parent != "" {
		t.Fatalf("root has parent %q", rr.Parent)
	}
	if cr.Trace != rr.Trace || cr.Parent != rr.Span {
		t.Fatalf("child not linked: child %+v root %+v", cr, rr)
	}
	if cr.Remote || rr.Remote {
		t.Fatalf("local spans marked remote")
	}
	if !lr.Remote || lr.Parent == "" {
		t.Fatalf("StartRemote span not marked remote: %+v", lr)
	}
	if cr.Attrs["attempt"] != float64(1) && cr.Attrs["attempt"] != 1 {
		// Collector keeps live values (int); file round-trips decode to float64.
		t.Fatalf("attr lost: %+v", cr.Attrs)
	}
	if cr.EndNS < cr.StartNS || cr.StartNS <= 0 {
		t.Fatalf("bad timestamps: %+v", cr)
	}
}

func TestAnnounceEmitsOpenRecord(t *testing.T) {
	var c Collector
	tr := New(&c)
	s := tr.Start(Context{}, "queue.wait").Kind(KindQueue).Announce()
	open := c.Records()
	if len(open) != 1 || open[0].EndNS != 0 {
		t.Fatalf("announce should export exactly one open record, got %+v", open)
	}
	s.End()
	recs := c.Records()
	if len(recs) != 2 || recs[1].EndNS == 0 {
		t.Fatalf("end after announce should add the ended copy, got %+v", recs)
	}
	if recs[0].Span != recs[1].Span || recs[0].StartNS != recs[1].StartNS {
		t.Fatalf("announce/end identity mismatch: %+v", recs)
	}
}

// TestParentChildAcrossWorkers exercises the engine's usage pattern:
// one parent span per wave, child spans started and ended concurrently
// from par.ForEach workers. Run under -race this is the span-lifecycle
// concurrency gate.
func TestParentChildAcrossWorkers(t *testing.T) {
	var c Collector
	tr := New(&c)
	const waves, items = 4, 64
	for w := 0; w < waves; w++ {
		parent := tr.Start(Context{}, "wave").Attr("wave", w)
		par.ForEach(items, 8, func(i int) {
			tr.Start(parent.Context(), "item").Kind(KindCompute).Attr("i", i).End()
		})
		parent.End()
	}
	recs := c.Records()
	if len(recs) != waves*(items+1) {
		t.Fatalf("got %d records, want %d", len(recs), waves*(items+1))
	}
	parents := map[string]string{} // span id -> trace
	for _, r := range recs {
		if r.Name == "wave" {
			parents[r.Span] = r.Trace
		}
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Name != "item" {
			continue
		}
		if seen[r.Span] {
			t.Fatalf("duplicate span id %s across concurrent starts", r.Span)
		}
		seen[r.Span] = true
		trace, ok := parents[r.Parent]
		if !ok {
			t.Fatalf("item %s has unknown parent %s", r.Span, r.Parent)
		}
		if trace != r.Trace {
			t.Fatalf("item %s in trace %s but parent's trace is %s", r.Span, r.Trace, trace)
		}
	}
	if len(seen) != waves*items {
		t.Fatalf("got %d distinct items, want %d", len(seen), waves*items)
	}
}

func TestFileExporterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j000001.spans.jsonl")
	exp := NewFileExporter(path)
	tr := New(exp)
	root := tr.Start(Context{}, "submit").Kind(KindIO).Announce()
	tr.Start(root.Context(), "attempt").Attr("attempt", 1).End()
	root.End()
	if err := exp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	recs, truncated, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if truncated {
		t.Fatalf("clean file reported truncated")
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[1].Attrs["attempt"] != float64(1) {
		t.Fatalf("attrs did not survive the file: %+v", recs[1].Attrs)
	}

	// Appending after reopen (the restart path) must extend the same file.
	exp2 := NewFileExporter(path)
	New(exp2).StartRemote(root.Context(), "attempt").Attr("attempt", 2).End()
	if err := exp2.Close(); err != nil {
		t.Fatalf("close after reopen: %v", err)
	}
	recs, _, err = ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile after append: %v", err)
	}
	if len(recs) != 4 || recs[3].Trace != recs[0].Trace {
		t.Fatalf("restart append broke the trace: %+v", recs)
	}
}

func TestReadRecordsLenientTornTail(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewWriterExporter(&buf))
	tr.Start(Context{}, "a").End()
	tr.Start(Context{}, "b").End()
	whole := buf.String()
	cut := whole[:len(whole)-10] // SIGKILL mid-line

	recs, truncated, err := ReadRecordsLenient(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("lenient read of torn tail: %v", err)
	}
	if !truncated || len(recs) != 1 {
		t.Fatalf("want 1 record + truncated, got %d truncated=%v", len(recs), truncated)
	}
	// Wrong schema is corruption, not truncation — lenient must reject it.
	bad := strings.Replace(whole, Schema, "carbon.trace/v2", 1)
	if _, _, err := ReadRecordsLenient(strings.NewReader(bad)); err == nil {
		t.Fatalf("lenient read accepted a foreign schema")
	}
}

func TestFileExporterSwallowsErrors(t *testing.T) {
	dir := t.TempDir()
	exp := NewFileExporter(filepath.Join(dir, "missing", "x.jsonl")) // parent dir absent
	New(exp).Start(Context{}, "a").End()                             // must not panic or block
	if err := exp.Close(); err == nil {
		t.Fatalf("Close should surface the swallowed open error")
	}
	if _, err := os.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatalf("exporter should not create directories")
	}
}

func TestHistExporter(t *testing.T) {
	reg := telemetry.NewRegistry()
	exp := NewHistExporter(reg, "span")
	exp.Export(Record{Schema: Schema, Name: "lp.solve", StartNS: 1000, EndNS: 1000 + int64(2*time.Millisecond)})
	exp.Export(Record{Schema: Schema, Name: "lp.solve", StartNS: 1000}) // open: skipped
	exp.Export(Record{Schema: Schema, Name: "gen", StartNS: 1000, EndNS: 1000 + int64(8*time.Millisecond)})

	snap := reg.Snapshot()
	hs, ok := snap["span.lp_solve_ms"].(telemetry.HistSnapshot)
	if !ok {
		t.Fatalf("no lp_solve histogram in %v", snap)
	}
	if hs.Count != 1 || hs.Sum < 1.9 || hs.Sum > 2.1 {
		t.Fatalf("lp_solve histogram wrong: %+v", hs)
	}
	if _, ok := snap["span.gen_ms"].(telemetry.HistSnapshot); !ok {
		t.Fatalf("no gen histogram in %v", snap)
	}
	if NewHistExporter(nil, "span") != nil {
		t.Fatalf("nil registry should yield nil exporter")
	}
}

func TestTracerIDsUnique(t *testing.T) {
	var c Collector
	tr := New(&c)
	seen := map[string]bool{}
	par.ForEach(512, 8, func(int) {
		tr.Start(Context{}, "x").End()
	})
	for _, r := range c.Records() {
		if seen[r.Span] {
			t.Fatalf("span id %s minted twice", r.Span)
		}
		seen[r.Span] = true
	}
}

// Every timestamp a tracer emits derives from one wall+monotonic
// anchor, so ends recorded later always compare later — a child ended
// before its parent can never spill past the parent's recorded end,
// whatever the wall clock does while the spans are open. (Per-span
// wall anchors made this probabilistic under NTP slew, which the
// trace analyzer saw as Covered > Wall.)
func TestTimestampsShareOneMonotonicTimeline(t *testing.T) {
	var c Collector
	tr := New(&c)
	for i := 0; i < 1000; i++ {
		parent := tr.Start(Context{}, "parent")
		child := tr.Start(parent.Context(), "child")
		child.End()
		parent.End()
	}
	recs := c.Records()
	if len(recs) != 2000 {
		t.Fatalf("got %d records, want 2000", len(recs))
	}
	for i := 0; i+1 < len(recs); i += 2 {
		child, parent := recs[i], recs[i+1]
		if child.StartNS < parent.StartNS {
			t.Fatalf("iter %d: child starts %dns before its parent", i/2, parent.StartNS-child.StartNS)
		}
		if child.EndNS > parent.EndNS {
			t.Fatalf("iter %d: child end %d spills past parent end %d", i/2, child.EndNS, parent.EndNS)
		}
	}
}

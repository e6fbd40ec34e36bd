package tracestat

import (
	"bytes"
	"testing"
	"time"

	"carbon/internal/span"
)

// specRec builds one span record with hand-picked timestamps — the
// analyzer tests need exact geometry, so they fabricate the JSONL
// stream instead of racing real clocks.
func specRec(id, parent, name, kind string, start, end int64, remote bool, attrs map[string]any) span.Record {
	return span.Record{
		Schema: span.Schema, Trace: "0123456789abcdef0123456789abcdef",
		Span: id, Parent: parent, Remote: remote,
		Name: name, Kind: kind, StartNS: start, EndNS: end, Attrs: attrs,
	}
}

// encodeRecs writes recs as JSONL through span.WriterExporter.
func encodeRecs(recs []span.Record) *bytes.Buffer {
	var buf bytes.Buffer
	we := span.NewWriterExporter(&buf)
	for _, r := range recs {
		we.Export(r)
	}
	return &buf
}

// jobRecs fabricates a plausible single-attempt job waterfall:
//
//	job [100..1000]
//	├─ queue.wait [100..200]           (queue)
//	├─ attempt    [200..900]           (compute)
//	│   ├─ gen 1 [200..500]
//	│   │   ├─ relax     [200..350]  ── lp.solve [210..260]
//	│   │   └─ pred_eval [350..500]
//	│   ├─ gen 2 [500..800]
//	│   └─ checkpoint.write [800..850] (io)
//	└─ result.write [900..950]         (io)
func jobRecs() []span.Record {
	return []span.Record{
		specRec("aa01", "", "job", span.KindCompute, 100, 0, false, map[string]any{"job": "j1"}), // announce
		specRec("aa02", "aa01", "queue.wait", span.KindQueue, 100, 200, false, nil),
		specRec("aa03", "aa01", "attempt", span.KindCompute, 200, 0, false, map[string]any{"attempt": 1}), // announce
		specRec("aa04", "aa03", "gen", span.KindCompute, 200, 500, false, map[string]any{"gen": 1}),
		specRec("aa05", "aa04", "relax", span.KindCompute, 200, 350, false, nil),
		specRec("aa06", "aa05", "lp.solve", span.KindCompute, 210, 260, false, nil),
		specRec("aa07", "aa04", "pred_eval", span.KindCompute, 350, 500, false, nil),
		specRec("aa08", "aa03", "gen", span.KindCompute, 500, 800, false, map[string]any{"gen": 2}),
		specRec("aa09", "aa03", "checkpoint.write", span.KindIO, 800, 850, false, map[string]any{"gen": 2}),
		specRec("aa03", "aa01", "attempt", span.KindCompute, 200, 900, false, map[string]any{"attempt": 1}), // ended copy
		specRec("aa10", "aa01", "result.write", span.KindIO, 900, 950, false, nil),
		specRec("aa01", "", "job", span.KindCompute, 100, 1000, false, map[string]any{"job": "j1", "state": "done"}),
	}
}

// tracerRecs runs a three-generation job through a real span.Tracer —
// the job and attempt spans announced before they end — and returns the
// records in export order: 11 records for 9 spans.
func tracerRecs() []span.Record {
	col := &span.Collector{}
	tr := span.New(col)
	root := tr.Start(span.Context{}, "job").Kind(span.KindCompute).Announce()
	tr.Start(root.Context(), "queue.wait").Kind(span.KindQueue).End()
	att := tr.Start(root.Context(), "attempt").Kind(span.KindCompute).Attr("attempt", 1).Announce()
	for g := 1; g <= 3; g++ {
		gen := tr.Start(att.Context(), "gen").Kind(span.KindCompute).Attr("gen", g)
		tr.Start(gen.Context(), "lp.solve").Kind(span.KindCompute).End()
		gen.End()
	}
	att.End()
	root.End()
	return col.Records()
}

func TestLoadSpansTree(t *testing.T) {
	tree, err := LoadSpans(encodeRecs(jobRecs()))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Truncated {
		t.Fatal("unexpected truncation")
	}
	if got := tree.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10 (announce/end pairs deduped)", got)
	}
	if len(tree.Traces) != 1 || len(tree.Roots) != 1 || len(tree.Orphans) != 0 {
		t.Fatalf("traces=%d roots=%d orphans=%d, want 1/1/0",
			len(tree.Traces), len(tree.Roots), len(tree.Orphans))
	}
	root := tree.Roots[0]
	if root.Record.Name != "job" || root.Open || root.Record.EndNS != 1000 {
		t.Fatalf("root wrong: %+v", root.Record)
	}
	// The ended copy must have superseded the announce for the attempt too.
	att := tree.Node("aa03")
	if att == nil || att.Open || att.Record.EndNS != 900 {
		t.Fatalf("attempt announce not superseded: %+v", att)
	}
	// Children sorted by start under the root.
	var names []string
	for _, c := range root.Children {
		names = append(names, c.Record.Name)
	}
	want := []string{"queue.wait", "attempt", "result.write"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("root children = %v, want %v", names, want)
		}
	}
	if tree.WallNS() != 900 {
		t.Fatalf("WallNS = %d, want 900", tree.WallNS())
	}

	// The same invariants on records from a real tracer, read back
	// through the exporter's encoding.
	traced, err := LoadSpans(encodeRecs(tracerRecs()))
	if err != nil {
		t.Fatal(err)
	}
	if got := traced.Len(); got != 9 {
		t.Fatalf("traced Len = %d, want 9 (announce/end pairs deduped)", got)
	}
	if len(traced.Traces) != 1 || len(traced.Roots) != 1 || len(traced.Orphans) != 0 {
		t.Fatalf("traced traces=%d roots=%d orphans=%d, want 1/1/0",
			len(traced.Traces), len(traced.Roots), len(traced.Orphans))
	}
	if traced.Roots[0].Open {
		t.Fatal("ended traced root still marked open")
	}
	cp := traced.CriticalPath()
	if len(cp) < 2 || cp[0].Record.Name != "job" {
		t.Fatalf("traced critical path has %d hops", len(cp))
	}
	for i := 1; i < len(cp); i++ {
		if cp[i].Record.Parent != cp[i-1].Record.Span {
			t.Fatalf("traced critical path hop %d not parent-linked", i)
		}
	}
	b := traced.Breakdown()
	if b.Covered <= 0 || b.Covered > b.Wall {
		t.Fatalf("traced breakdown covers %v of wall %v", b.Covered, b.Wall)
	}
	var byKind time.Duration
	for _, d := range b.ByKind {
		byKind += d
	}
	if byKind != b.Covered {
		t.Fatalf("traced kind sum %v != covered %v", byKind, b.Covered)
	}
	if got := len(traced.Attempts()); got != 1 {
		t.Fatalf("traced attempts = %d, want 1", got)
	}
}

func TestSpanBreakdownSums(t *testing.T) {
	tree, err := LoadSpans(encodeRecs(jobRecs()))
	if err != nil {
		t.Fatal(err)
	}
	b := tree.Breakdown()
	if b.Wall != 900 {
		t.Fatalf("Wall = %d, want 900", b.Wall)
	}
	// The root span covers [100..1000] with no gaps, so every nanosecond
	// of the wall is attributed to some span.
	if b.Covered != b.Wall {
		t.Fatalf("Covered = %d, want %d (no gaps in this waterfall)", b.Covered, b.Wall)
	}
	var byKind, byName time.Duration
	for _, d := range b.ByKind {
		byKind += d
	}
	for _, d := range b.ByName {
		byName += d
	}
	if byKind != b.Covered || byName != b.Covered {
		t.Fatalf("kind sum %d / name sum %d != covered %d", byKind, byName, b.Covered)
	}
	// Hand-checked attribution: queue.wait owns [100..200]=100;
	// io owns checkpoint [800..850]=50 + result [900..950]=50.
	if b.ByKind[span.KindQueue] != 100 {
		t.Fatalf("queue = %d, want 100", b.ByKind[span.KindQueue])
	}
	if b.ByKind[span.KindIO] != 100 {
		t.Fatalf("io = %d, want 100", b.ByKind[span.KindIO])
	}
	// lp.solve is the deepest over [210..260].
	if b.ByName["lp.solve"] != 50 {
		t.Fatalf("lp.solve self = %d, want 50", b.ByName["lp.solve"])
	}
	// relax's self time is its extent minus the solve: 150-50.
	if b.ByName["relax"] != 100 {
		t.Fatalf("relax self = %d, want 100", b.ByName["relax"])
	}
}

func TestSpanCriticalPath(t *testing.T) {
	tree, err := LoadSpans(encodeRecs(jobRecs()))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range tree.CriticalPath() {
		names = append(names, n.Record.Name)
	}
	// The chain gating completion: job ends at 1000, result.write at 950
	// is its latest-ending child, and is a leaf.
	want := []string{"job", "result.write"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("critical path = %v, want %v", names, want)
	}
	// Every hop must be parent-linked.
	path := tree.CriticalPath()
	for i := 1; i < len(path); i++ {
		if path[i].Record.Parent != path[i-1].Record.Span {
			t.Fatalf("hop %d not parent-linked: %q under %q",
				i, path[i].Record.Span, path[i-1].Record.Span)
		}
	}
}

// TestSpanOrphanAndOpen: a span whose in-process parent is absent is an
// orphan (dropped-record detector); a remote link to an absent parent
// is NOT — it crossed a process boundary by design. An announce-only
// span is Open, and its extent is inferred from its children.
func TestSpanOrphanAndOpen(t *testing.T) {
	recs := []span.Record{
		specRec("bb01", "", "job", span.KindCompute, 100, 0, false, nil), // announce only: crashed
		specRec("bb02", "bb01", "attempt", span.KindCompute, 150, 0, false, nil),
		specRec("bb03", "bb02", "gen", span.KindCompute, 150, 400, false, nil),
		specRec("bb04", "dead", "relax", span.KindCompute, 200, 300, false, nil),  // orphan
		specRec("bb05", "gone", "attempt", span.KindCompute, 500, 800, true, nil), // remote → root
	}
	tree, err := LoadSpans(encodeRecs(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Orphans) != 1 || tree.Orphans[0].Record.Span != "bb04" {
		t.Fatalf("orphans = %+v, want exactly bb04", tree.Orphans)
	}
	if len(tree.Roots) != 2 {
		t.Fatalf("roots = %d, want 2 (true root + remote re-root)", len(tree.Roots))
	}
	root := tree.Node("bb01")
	if !root.Open {
		t.Fatal("announce-only root not marked Open")
	}
	// Inferred extent: bb01 → bb02 → bb03 ends at 400.
	if root.EndNS() != 400 {
		t.Fatalf("inferred root end = %d, want 400", root.EndNS())
	}
	// Wall spans both incarnations: 100 → 800.
	if tree.WallNS() != 700 {
		t.Fatalf("WallNS = %d, want 700", tree.WallNS())
	}

	// A real tracer's records with one lp.solve re-parented onto a span
	// id no record carries: exactly that span is an orphan.
	recs = tracerRecs()
	for i := range recs {
		if recs[i].Name == "lp.solve" {
			recs[i].Parent = "feedfacefeedface"
			break
		}
	}
	damaged, err := LoadSpans(encodeRecs(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged.Orphans) != 1 || damaged.Orphans[0].Record.Name != "lp.solve" {
		t.Fatalf("orphans = %+v, want exactly the re-parented lp.solve", damaged.Orphans)
	}
}

// TestSpanAttemptsStitched reconstructs the retry timeline of a job
// that crashed mid-attempt and resumed in a new process: attempt 1 is
// open, attempt 2 is remote+resumed, and they sort by start.
func TestSpanAttemptsStitched(t *testing.T) {
	recs := []span.Record{
		specRec("cc01", "", "job", span.KindCompute, 100, 0, false, nil),
		specRec("cc02", "cc01", "attempt", span.KindCompute, 150, 0, false,
			map[string]any{"attempt": 1}),
		specRec("cc03", "cc02", "gen", span.KindCompute, 150, 300, false, nil),
		specRec("cc04", "cc01", "attempt", span.KindCompute, 600, 900, true,
			map[string]any{"attempt": 2, "resumed": true, "error": "lp fault"}),
		specRec("cc05", "cc04", "gen", span.KindCompute, 600, 700, false, nil),
		specRec("cc06", "cc04", "gen", span.KindCompute, 700, 880, false, nil),
	}
	tree, err := LoadSpans(encodeRecs(recs))
	if err != nil {
		t.Fatal(err)
	}
	atts := tree.Attempts()
	if len(atts) != 2 {
		t.Fatalf("attempts = %d, want 2", len(atts))
	}
	a1, a2 := atts[0], atts[1]
	if a1.Number != 1 || !a1.Open || a1.Remote || a1.Gens != 1 || a1.EndNS != 300 {
		t.Fatalf("attempt 1 wrong: %+v", a1)
	}
	if a2.Number != 2 || a2.Open || !a2.Remote || !a2.Resumed || a2.Gens != 2 || a2.Error != "lp fault" {
		t.Fatalf("attempt 2 wrong: %+v", a2)
	}
}

func TestSpanPhasesQuantiles(t *testing.T) {
	recs := []span.Record{
		specRec("dd01", "", "job", span.KindCompute, 1, 1000, false, nil),
	}
	// Ten gen spans of durations 10,20,...,100; one open span that must
	// not contribute.
	for i := 1; i <= 10; i++ {
		recs = append(recs, specRec(
			// unique 4-hex ids
			[]string{"", "e001", "e002", "e003", "e004", "e005", "e006", "e007", "e008", "e009", "e00a"}[i],
			"dd01", "gen", span.KindCompute, int64(i*100), int64(i*100+i*10), false, nil))
	}
	recs = append(recs, specRec("e00b", "dd01", "gen", span.KindCompute, 990, 0, false, nil))
	tree, err := LoadSpans(encodeRecs(recs))
	if err != nil {
		t.Fatal(err)
	}
	phases := SpanPhases(tree)
	var gen *SpanPhase
	for i := range phases {
		if phases[i].Name == "gen" {
			gen = &phases[i]
		}
	}
	if gen == nil {
		t.Fatal("no gen phase")
	}
	if gen.Count != 10 {
		t.Fatalf("gen count = %d, want 10 (open span must not count)", gen.Count)
	}
	// Nearest-rank on sorted [10..100]: p50 → index 5 → 60, p90 → index 9 → 100.
	if gen.P50 != 60 || gen.P90 != 100 || gen.Max != 100 || gen.Total != 550 {
		t.Fatalf("gen stats wrong: %+v", gen)
	}
	// Phases sorted by total descending: job (999) before gen (550).
	if phases[0].Name != "job" {
		t.Fatalf("phase order wrong: %+v", phases)
	}
}

func TestLoadSpansTruncatedTail(t *testing.T) {
	buf := encodeRecs(jobRecs())
	b := buf.Bytes()
	cut := b[:len(b)-20] // tear the final line
	tree, err := LoadSpans(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Truncated {
		t.Fatal("torn tail not reported")
	}
	// The final line was the root's ended copy: the root stays Open.
	if !tree.Roots[0].Open {
		t.Fatal("root should be open when its ended record was torn")
	}
}

//go:build smoke

package smoketest

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"carbon/internal/serve"
	"carbon/internal/span"
	"carbon/internal/tracestat"
)

// callerTraceParent plays the role of an upstream service's trace
// context; the job's whole span tree must land in this trace.
const callerTraceParent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// TestTrace is the tracing gate for carbond (`make trace-smoke`). It
// drives a small job along the worst path tracing must survive — a
// caller-supplied traceparent, an injected LP fault (retry + backoff),
// then a SIGKILL and restart mid-attempt — and asserts the span file
// tells the whole story:
//
//   - one trace, joined to the caller's trace id, across both processes
//   - every attempt and generation span parent-linked; zero orphans
//   - the retry timeline shows the faulted attempt (error attr), the
//     killed attempt (open), a backoff sleep, and a remote resumed
//     attempt in the restarted process
//   - the deepest-span breakdown accounts for most of the trace's wall
//     time, and the external wall clock bounds the span-derived wall
//   - `carbonstat -spans` accepts the file and prints the critical path
func TestTrace(t *testing.T) {
	spool := filepath.Join(t.TempDir(), "spool")

	// One LP fault after 30 solves: attempt 1 dies retryably, backoff,
	// attempt 2 resumes from the checkpoint.
	srv := startCarbond(t, spool, "-fault", "lp.solve:every=1,after=30,limit=1", "-retry-backoff", "50ms")
	t0 := time.Now()
	sub := srv.Submit(smokeSpec(7), "", callerTraceParent)
	if sub.TraceParent == "" {
		t.Fatalf("submit response carries no Traceparent header")
	}
	ctx, err := span.ParseTraceParent(sub.TraceParent)
	if err != nil {
		t.Fatalf("submit returned bad traceparent %q: %v", sub.TraceParent, err)
	}
	caller, _ := span.ParseTraceParent(callerTraceParent)
	if ctx.Trace != caller.Trace {
		t.Fatalf("job did not join the caller's trace: got %s, want %s", ctx.Trace, caller.Trace)
	}
	if ctx.Span == caller.Span {
		t.Fatalf("job echoed the caller's span id instead of minting its own root")
	}

	// SIGKILL mid-attempt, then restart without the fault.
	srv.WaitGens(sub.ID, 6)
	srv.Kill()
	srv = startCarbond(t, spool)
	srv.WaitState(sub.ID, serve.StateDone)
	wall := time.Since(t0)
	srv.Term()

	spanFile := filepath.Join(spool, sub.ID+".spans.jsonl")
	checkLinkage(t, spanFile, caller.Trace.String())
	checkTimeline(t, spanFile, wall)

	out, err := exec.Command(carbonstat, "-spans", spanFile).CombinedOutput()
	if err != nil {
		t.Fatalf("carbonstat -spans failed: %v\n%s", err, out)
	}
	for _, want := range []string{"critical path:", "ATTEMPT", "KIND"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("carbonstat -spans output missing %q:\n%s", want, out)
		}
	}
}

// checkLinkage checks the raw records: one trace (the caller's), every
// attempt/gen span parent-linked to the right kind of parent.
func checkLinkage(t *testing.T, path, wantTrace string) {
	recs, truncated, err := span.ReadFile(path)
	if err != nil {
		t.Fatalf("read spans: %v", err)
	}
	if truncated {
		t.Log("span file tail torn by the SIGKILL (expected, tolerated)")
	}
	byID := map[string]span.Record{}
	for _, r := range recs {
		if r.Trace != wantTrace {
			t.Fatalf("span %s (%s) in foreign trace %s, want %s", r.Span, r.Name, r.Trace, wantTrace)
		}
		if prev, ok := byID[r.Span]; !ok || (prev.EndNS == 0 && r.EndNS != 0) {
			byID[r.Span] = r
		}
	}
	attempts, gens := 0, 0
	for _, r := range byID {
		switch r.Name {
		case "attempt":
			attempts++
			if r.Parent == "" {
				t.Fatalf("attempt span %s has no parent", r.Span)
			}
			p, ok := byID[r.Parent]
			if !ok && !r.Remote {
				t.Fatalf("attempt span %s: local parent %s missing from file", r.Span, r.Parent)
			}
			if ok && p.Name != "job" {
				t.Fatalf("attempt span %s parented by %q, want the job root", r.Span, p.Name)
			}
		case "gen":
			gens++
			p, ok := byID[r.Parent]
			if !ok {
				t.Fatalf("gen span %s: parent %s missing from file", r.Span, r.Parent)
			}
			if p.Name != "attempt" {
				t.Fatalf("gen span %s parented by %q, want an attempt", r.Span, p.Name)
			}
		}
	}
	if attempts < 3 {
		t.Fatalf("only %d attempt spans; want >=3 (fault retry + killed + restarted)", attempts)
	}
	if gens < 6 {
		t.Fatalf("only %d generation spans", gens)
	}
}

// checkTimeline checks the assembled tree: no orphans, the retry story
// (error, open, remote resumed), and time accounting.
func checkTimeline(t *testing.T, path string, extWall time.Duration) {
	tree, err := tracestat.LoadSpansFile(path)
	if err != nil {
		t.Fatalf("load spans: %v", err)
	}
	if len(tree.Orphans) > 0 {
		t.Fatalf("%d orphan spans — records were dropped", len(tree.Orphans))
	}
	if len(tree.Traces) != 1 {
		t.Fatalf("span file holds %d traces, want 1", len(tree.Traces))
	}

	atts := tree.Attempts()
	var faulted, killed, resumed bool
	for _, a := range atts {
		if a.Error != "" {
			faulted = true
		}
		if a.Open {
			killed = true
		}
		if a.Remote && a.Resumed && !a.Open {
			resumed = true
		}
	}
	if !faulted || !killed || !resumed {
		t.Fatalf("retry timeline incomplete: faulted=%v killed=%v remote-resumed=%v (%+v)",
			faulted, killed, resumed, atts)
	}
	if last := atts[len(atts)-1]; last.Open || last.Gens == 0 {
		t.Fatalf("final attempt wrong: %+v", last)
	}

	// A backoff span must separate the faulted attempt from its retry.
	hasBackoff := false
	for _, p := range tracestat.SpanPhases(tree) {
		if p.Name == "backoff" && p.Count >= 1 {
			hasBackoff = true
		}
	}
	if !hasBackoff {
		t.Fatalf("no backoff span recorded for the retry")
	}

	// Time accounting: the span-derived wall is bounded by the external
	// clock, and the deepest-span breakdown covers most of it — the only
	// unclaimed stretch is the kill-to-restart dead window.
	b := tree.Breakdown()
	if b.Wall <= 0 || b.Wall > extWall+500*time.Millisecond {
		t.Fatalf("span wall %v out of bounds (external wall %v)", b.Wall, extWall)
	}
	if b.Covered > b.Wall {
		t.Fatalf("breakdown claims %v of a %v wall", b.Covered, b.Wall)
	}
	if float64(b.Covered) < 0.7*float64(b.Wall) {
		t.Fatalf("breakdown covers only %v of %v wall (<70%%): spans are missing", b.Covered, b.Wall)
	}

	// The critical path must be a parent-linked chain from the root.
	cp := tree.CriticalPath()
	if len(cp) < 3 || cp[0].Record.Name != "job" {
		t.Fatalf("critical path too shallow: %d hops", len(cp))
	}
	for i := 1; i < len(cp); i++ {
		if cp[i].Record.Parent != cp[i-1].Record.Span {
			t.Fatalf("critical path hop %d not parent-linked", i)
		}
	}
}

package exp

import (
	"bytes"
	"strings"
	"testing"

	"carbon/internal/core"
	"carbon/internal/orlib"
	"carbon/internal/telemetry"
)

// smallTraceSettings is a one-class, two-run protocol small enough for
// unit tests.
func smallTraceSettings() Settings {
	return Settings{
		Classes:    []orlib.Class{{N: 60, M: 5}},
		Runs:       2,
		PopSize:    12,
		ULEvals:    120,
		LLEvals:    240,
		PreySample: 2,
		BaseSeed:   99,
		FigPoints:  10,
	}
}

// TestSweepEmitsLabeledTrace runs a cell with a shared JSONL observer
// and checks the trace labels every run — the exp ⇄ telemetry
// integration the -trace flag of blbench exposes.
func TestSweepEmitsLabeledTrace(t *testing.T) {
	s := smallTraceSettings()
	var buf bytes.Buffer
	obs := core.NewJSONLObserver(&buf)
	s.Observer = obs
	s.Metrics = telemetry.NewRegistry()

	cell, err := RunCell(s.Classes[0], s)
	if err != nil {
		t.Fatal(err)
	}
	events, err := core.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	for _, ev := range events {
		if ev.Event == "generation" {
			labels[ev.Gen.Label]++
		}
	}
	totalGens := 0
	for label, n := range labels {
		if !strings.HasPrefix(label, "carbon/60x5/run") {
			t.Fatalf("unexpected run label %q", label)
		}
		totalGens += n
	}
	if len(labels) != s.Runs {
		t.Fatalf("trace covers %d runs, want %d (%v)", len(labels), s.Runs, labels)
	}
	wantGens := 0
	for _, r := range cell.Carbon {
		wantGens += len(r.ULCurve.X)
	}
	if totalGens != wantGens {
		t.Fatalf("trace holds %d generation events, cell curves hold %d points", totalGens, wantGens)
	}
	if got := s.Metrics.Counter("bcpop.tree_evals").Load(); got <= 0 {
		t.Fatal("sweep registry aggregated no evaluator metrics")
	}
}

package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"carbon/internal/telemetry"
)

// TestResultDoesNotAliasArchive is the regression test for the Result
// aliasing bug: Best.Price (and the archive entries) must be defensive
// copies, so a caller mutating the returned result cannot corrupt the
// live archives of a still-running engine.
func TestResultDoesNotAliasArchive(t *testing.T) {
	e, err := NewEngine(smallMarket(t), smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && e.Step(); i++ {
	}
	res, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best.Price) == 0 || len(res.ULArchive) == 0 {
		t.Fatal("run produced no archived best")
	}
	for i := range res.Best.Price {
		res.Best.Price[i] = -1e9
	}
	for i := range res.ULArchive {
		for j := range res.ULArchive[i].Item {
			res.ULArchive[i].Item[j] = -1e9
		}
	}
	for i := range res.ULCurve.Y {
		res.ULCurve.Y[i] = -1e9
	}
	best, _, ok := e.BestPrey()
	if !ok {
		t.Fatal("archive lost its best")
	}
	for _, v := range best {
		if v == -1e9 {
			t.Fatal("mutating Result.Best.Price corrupted the archive")
		}
	}
	res2, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res2.Best.Price {
		if v == -1e9 {
			t.Fatal("archive best price was aliased by the first Result")
		}
	}
	for _, v := range res2.ULCurve.Y {
		if v == -1e9 {
			t.Fatal("convergence curve was aliased by the first Result")
		}
	}
}

// resultKey extracts the deterministic parts of a Result (wall-clock
// telemetry never lives in Result, so the whole comparison is exact).
func resultKey(res *Result) map[string]any {
	return map[string]any{
		"gens":    res.Gens,
		"ulevals": res.ULEvals,
		"llevals": res.LLEvals,
		"price":   res.Best.Price,
		"revenue": res.Best.Revenue,
		"gap":     res.Best.GapPct,
		"tree":    res.Best.TreeStr,
		"ulcurve": res.ULCurve,
		"gapcrv":  res.GapCurve,
	}
}

// TestDeterminismUnderTelemetry is the golden determinism contract:
// a seeded Run with an observer, a JSONL trace sink and a metrics
// registry attached produces a byte-identical Result to the same Run
// with telemetry off.
func TestDeterminismUnderTelemetry(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(42)

	bare, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	obs := NewJSONLObserver(&trace)
	gens := 0
	cfg2 := cfg
	cfg2.Observer = MultiObserver(obs, FuncObserver{Generation: func(GenStats) { gens++ }})
	cfg2.Metrics = telemetry.NewRegistry()
	cfg2.RunLabel = "golden"
	instrumented, err := Run(mk, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultKey(bare), resultKey(instrumented)) {
		t.Fatalf("telemetry perturbed the run:\nbare:         %+v\ninstrumented: %+v",
			resultKey(bare), resultKey(instrumented))
	}
	if gens != bare.Gens {
		t.Fatalf("observer saw %d generations, run had %d", gens, bare.Gens)
	}
	if got := cfg2.Metrics.Counter("core.generations").Load(); got != int64(bare.Gens) {
		t.Fatalf("metrics counted %d generations, want %d", got, bare.Gens)
	}
	if got := cfg2.Metrics.Counter("bcpop.tree_evals").Load(); got <= 0 {
		t.Fatal("evaluator metrics never incremented")
	}
}

// TestTraceRoundTrip validates the JSONL schema: one well-formed
// generation event per generation, a final done event, and lossless
// decode through ReadTrace.
func TestTraceRoundTrip(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(7)
	var buf bytes.Buffer
	obs := NewJSONLObserver(&buf)
	cfg.Observer = obs
	cfg.RunLabel = "roundtrip"
	res, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var genEvents []GenStats
	var done *DoneStats
	for _, ev := range events {
		switch ev.Event {
		case "generation":
			genEvents = append(genEvents, *ev.Gen)
		case "done":
			done = ev.Done
		}
	}
	if len(genEvents) != res.Gens {
		t.Fatalf("trace holds %d generation events, run had %d generations", len(genEvents), res.Gens)
	}
	for i, gs := range genEvents {
		if gs.Gen != i+1 {
			t.Fatalf("event %d has gen %d", i, gs.Gen)
		}
		if gs.Label != "roundtrip" || gs.Island != 0 {
			t.Fatalf("event %d mislabeled: %+v", i, gs)
		}
		if gs.ULEvals <= 0 || gs.LLEvals <= 0 || gs.ULEvals > gs.ULBudget || gs.LLEvals > gs.LLBudget {
			t.Fatalf("event %d budget accounting wrong: %+v", i, gs)
		}
		if gs.ULArchive <= 0 || gs.GPArchive <= 0 {
			t.Fatalf("event %d archive sizes missing: %+v", i, gs)
		}
		if math.IsNaN(gs.PreyMean) || math.IsNaN(gs.PredMean) || gs.PreyStd < 0 {
			t.Fatalf("event %d population stats invalid: %+v", i, gs)
		}
	}
	last := genEvents[len(genEvents)-1]
	if last.BestRevenue != res.Best.Revenue {
		t.Fatalf("last event best revenue %v, result %v", last.BestRevenue, res.Best.Revenue)
	}
	if done == nil {
		t.Fatal("trace has no done event")
	}
	if done.Gens != res.Gens || done.BestRevenue != res.Best.Revenue || done.BestTree != res.Best.TreeStr {
		t.Fatalf("done event %+v disagrees with result", done)
	}

	// Unknown schemas must be rejected, not silently misread.
	if _, err := ReadTrace(bytes.NewReader([]byte(`{"schema":"bogus/v9","event":"generation","gen":{}}` + "\n"))); err == nil {
		t.Fatal("bogus schema accepted")
	}
}

// TestStepErrorPropagation: a corrupted population must surface through
// Err()/Run as an error, not a cross-goroutine panic.
func TestStepErrorPropagation(t *testing.T) {
	e, err := NewEngine(smallMarket(t), smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal("healthy engine refused to step")
	}
	for i := range e.prey {
		e.prey[i] = []float64{1} // wrong dimension: every evaluation fails
	}
	if e.Step() {
		t.Fatal("Step succeeded with a corrupt population")
	}
	if e.Err() == nil {
		t.Fatal("Err() is nil after a failed Step")
	}
	if e.Step() {
		t.Fatal("engine stepped again after a terminal error")
	}
	// Run must return the error, not panic.
	mk := smallMarket(t)
	cfg := smallConfig(3)
	cfg.PreySample = 1
	e2, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e2.prey {
		e2.prey[i] = []float64{1}
	}
	for e2.Step() {
	}
	if e2.Err() == nil {
		t.Fatal("corrupted engine finished without error")
	}
}

// TestIslandsObserverAndMetrics attaches a shared observer and registry
// to a concurrent island run — under -race this is the concurrency
// check for the observer path; functionally it verifies island
// labeling, migration events and error-free aggregation.
func TestIslandsObserverAndMetrics(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(5)
	cfg.ULEvalBudget, cfg.LLEvalBudget = 400, 1200
	var trace bytes.Buffer
	obs := NewJSONLObserver(&trace)
	cfg.Observer = obs
	cfg.Metrics = telemetry.NewRegistry()
	ic := IslandConfig{Islands: 2, MigrateEvery: 2, Migrants: 1}

	res, err := RunIslands(mk, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	genByIsland := map[int]int{}
	migrations := 0
	for _, ev := range events {
		switch ev.Event {
		case "generation":
			if ev.Gen.Island < 0 || ev.Gen.Island >= ic.Islands {
				t.Fatalf("generation event from island %d", ev.Gen.Island)
			}
			genByIsland[ev.Gen.Island]++
		case "migration":
			migrations++
		}
	}
	for i := 0; i < ic.Islands; i++ {
		if genByIsland[i] == 0 {
			t.Fatalf("island %d emitted no generation events (%v)", i, genByIsland)
		}
	}
	if want := res.Migrations * ic.Islands; migrations != want {
		t.Fatalf("trace holds %d migration events, want %d", migrations, want)
	}
	if got := cfg.Metrics.Counter("core.generations").Load(); got <= 0 {
		t.Fatal("shared registry aggregated nothing")
	}
}

// TestObserverAdapters covers the FuncObserver nil-hook tolerance and
// MultiObserver fan-out (including nil members).
func TestObserverAdapters(t *testing.T) {
	var gens, dones int
	a := FuncObserver{Generation: func(GenStats) { gens++ }}
	b := FuncObserver{Done: func(*Result) { dones++ }}
	m := MultiObserver(a, nil, b)
	m.OnGeneration(GenStats{})
	m.OnMigration(MigrationStats{}) // no hooks set anywhere: must not panic
	m.OnDone(&Result{})
	if gens != 1 || dones != 1 {
		t.Fatalf("fan-out gens=%d dones=%d", gens, dones)
	}
}

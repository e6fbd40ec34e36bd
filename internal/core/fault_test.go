package core

import (
	"errors"
	"io"
	"math"
	"sync"
	"testing"

	"carbon/internal/fault"
)

// lpFaultAfter returns an LP-fault hook that fails `limit` solves,
// starting after the first `after` succeed — the canonical "finite
// failure window" used throughout these tests.
func lpFaultAfter(after, limit int) func() error {
	return fault.New(1).Site(fault.SiteLPSolve, fault.Rule{Every: 1, After: after, Limit: limit}).Strike
}

// faultConfig is smallConfig on a single worker. A fault hook counts
// strikes across every worker's calls, so with several workers the
// call that strikes depends on scheduling; tests that count strikes
// pin Workers = 1 to make the struck evaluation deterministic.
func faultConfig(seed uint64) Config {
	cfg := smallConfig(seed)
	cfg.Workers = 1
	return cfg
}

// TestPartialFaultQuarantines pins the tentpole's graceful-degradation
// contract: a failed LP solve quarantines the affected prey for the
// generation — worst-known fitness, fault counted — and the run keeps
// going instead of dying.
func TestPartialFaultQuarantines(t *testing.T) {
	cfg := faultConfig(41)
	// Let generation 1's solve wave (≤16 distinct prey) succeed, then
	// fail exactly one solve of generation 2.
	cfg.LPFault = lpFaultAfter(16, 1)
	e, err := NewEngine(smallMarket(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens := 0
	for e.Step() {
		gens++
	}
	if err := e.Err(); err != nil {
		t.Fatalf("partial fault killed the run: %v", err)
	}
	if gens < 2 {
		t.Fatalf("run stopped after %d generations", gens)
	}
	if f := e.Faults(); f < 1 {
		t.Fatalf("Faults() = %d, want ≥ 1", f)
	}
	res, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != e.Faults() {
		t.Fatalf("Result.Faults = %d, Engine.Faults = %d", res.Faults, e.Faults())
	}
}

// TestFaultHooksWithoutStrikesAreBitIdentical is the determinism half
// of the quarantine contract: the whole quarantine machinery (installed
// hooks, slot-error bookkeeping, NaN prefill, per-index scratch)
// consumes no RNG and perturbs nothing — an engine whose hooks never
// fire is bit-identical, generation by generation, to one without them.
func TestFaultHooksWithoutStrikesAreBitIdentical(t *testing.T) {
	mk := smallMarket(t)

	clean, err := NewEngine(mk, smallConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(43)
	// Installed but inert: the failure window opens far past the run.
	cfg.LPFault = lpFaultAfter(1_000_000, 1)
	cfg.EvalFault = fault.New(1).Site("eval", fault.Rule{Every: 1, After: 1_000_000}).Strike
	hooked, err := NewEngine(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for gen := 1; ; gen++ {
		a, b := clean.Step(), hooked.Step()
		if a != b {
			t.Fatalf("generation %d: clean stepped=%v, hooked stepped=%v", gen, a, b)
		}
		if !a {
			break
		}
		if clean.r.State() != hooked.r.State() {
			t.Fatalf("generation %d: RNG streams diverged", gen)
		}
	}
	cr, err := clean.Result()
	if err != nil {
		t.Fatal(err)
	}
	hr, err := hooked.Result()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Best.Revenue != hr.Best.Revenue || cr.Best.TreeStr != hr.Best.TreeStr {
		t.Fatalf("inert hooks changed the result: %v/%q vs %v/%q",
			cr.Best.Revenue, cr.Best.TreeStr, hr.Best.Revenue, hr.Best.TreeStr)
	}
}

// TestFaultedRunDeterministic: the same seed with the same fault
// pattern reproduces bit-for-bit — injected failures are part of the
// deterministic replay, which is what lets a chaos run assert exact
// results rather than "it did not crash". (A faulted run may legally
// differ from a fault-free one: selection responds to the substituted
// worst-known fitness, as it must.)
func TestFaultedRunDeterministic(t *testing.T) {
	mk := smallMarket(t)
	run := func() (*Engine, *Result) {
		cfg := faultConfig(43)
		cfg.LPFault = lpFaultAfter(16, 2)
		e, err := NewEngine(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e.Step() {
		}
		if err := e.Err(); err != nil {
			t.Fatalf("faulted run died: %v", err)
		}
		res, err := e.Result()
		if err != nil {
			t.Fatal(err)
		}
		return e, res
	}
	e1, r1 := run()
	e2, r2 := run()
	if e1.Faults() == 0 {
		t.Fatal("fault window never fired — the test exercised nothing")
	}
	if e1.Faults() != e2.Faults() {
		t.Fatalf("fault counts diverged: %d vs %d", e1.Faults(), e2.Faults())
	}
	if e1.r.State() != e2.r.State() {
		t.Fatal("RNG streams diverged between identical faulted runs")
	}
	if r1.Best.Revenue != r2.Best.Revenue || r1.Best.TreeStr != r2.Best.TreeStr || r1.Gens != r2.Gens {
		t.Fatalf("results diverged: %v/%q/%d vs %v/%q/%d",
			r1.Best.Revenue, r1.Best.TreeStr, r1.Gens, r2.Best.Revenue, r2.Best.TreeStr, r2.Gens)
	}
}

// TestAllFaultTerminal: a wave with zero successful evaluations has no
// fitness signal, so it is terminal — and the first error wins, with
// later Steps as no-ops.
func TestAllFaultTerminal(t *testing.T) {
	injected := errors.New("boom")
	cfg := smallConfig(47)
	cfg.LPFault = func() error { return injected }
	e, err := NewEngine(smallMarket(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Step() {
		t.Fatal("fully faulted engine stepped successfully")
	}
	first := e.Err()
	if !errors.Is(first, injected) {
		t.Fatalf("Err = %v, want wrap of the injected error", first)
	}
	for i := 0; i < 3; i++ {
		if e.Step() {
			t.Fatalf("Step %d after terminal fault returned true", i)
		}
	}
	if e.Err() != first {
		t.Fatalf("terminal error changed: %v → %v", first, e.Err())
	}
	if e.Faults() != 0 {
		t.Fatalf("terminal failure also counted %d faults", e.Faults())
	}
}

// TestSnapshotOnDegradedEngineRefused: a degraded engine (Faults > 0)
// keeps running but cannot snapshot — its quarantined generations
// evolved on substituted fitness, so a resume could never replay
// bit-identically (the property carbond's retries rely on).
func TestSnapshotOnDegradedEngineRefused(t *testing.T) {
	cfg := faultConfig(53)
	cfg.LPFault = lpFaultAfter(16, 1)
	e, err := NewEngine(smallMarket(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e.Step() {
	}
	if e.Faults() == 0 {
		t.Fatal("fault window never fired")
	}
	st, err := e.Snapshot()
	if st != nil || err == nil {
		t.Fatalf("degraded engine produced a snapshot (%v, %v)", st, err)
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("snapshot error %v is not ErrDegraded", err)
	}
}

// TestEvalFaultQuarantinesPredator covers the heuristic-side hook: a
// failed paired evaluation quarantines the predator (worst-known
// fitness, no archive entry) without touching the LP layer.
func TestEvalFaultQuarantinesPredator(t *testing.T) {
	cfg := faultConfig(59)
	// The predator wave is the first paired-evaluation consumer each
	// generation; failing call 1 hits predator 0's first pairing.
	cfg.EvalFault = fault.New(1).Site("eval", fault.Rule{Every: 1, Limit: 1}).Strike
	e, err := NewEngine(smallMarket(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatalf("single eval fault killed generation 1: %v", e.Err())
	}
	if f := e.Faults(); f != 1 {
		t.Fatalf("Faults() = %d, want exactly 1", f)
	}
	// The quarantined predator carries the worst (largest) fitness of
	// the generation. predFit still describes generation 1 here —
	// breeding builds new populations without rewriting fitness arrays.
	worst := math.Inf(-1)
	for _, f := range e.predFit {
		worst = math.Max(worst, f)
	}
	if e.predFit[0] != worst {
		t.Fatalf("quarantined predator fitness %v, want the generation's worst %v", e.predFit[0], worst)
	}
	if e.Step(); e.Err() != nil {
		t.Fatalf("engine did not recover after the fault window: %v", e.Err())
	}
}

// TestConcurrentStepAndErrPolling races Err/Faults against a stepping
// engine — the serving front end polls exactly like this while a job
// runs. Run under -race (make race) this pins the locking.
func TestConcurrentStepAndErrPolling(t *testing.T) {
	cfg := faultConfig(61)
	cfg.LPFault = lpFaultAfter(20, 3)
	e, err := NewEngine(smallMarket(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Err()
				_ = e.Faults()
			}
		}
	}()
	for e.Step() {
	}
	close(stop)
	wg.Wait()
	if err := e.Err(); err != nil {
		t.Fatalf("run died: %v", err)
	}
}

// TestGenStatsReportFaults: the observer stream carries the cumulative
// fault count, so traces show degradation as it happens.
func TestGenStatsReportFaults(t *testing.T) {
	var mu sync.Mutex
	var last GenStats
	cfg := faultConfig(67)
	cfg.LPFault = lpFaultAfter(16, 1)
	cfg.Observer = FuncObserver{Generation: func(gs GenStats) {
		mu.Lock()
		last = gs
		mu.Unlock()
	}}
	e, err := NewEngine(smallMarket(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e.Step() {
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if last.Faults != e.Faults() || last.Faults == 0 {
		t.Fatalf("final GenStats.Faults = %d, Engine.Faults = %d", last.Faults, e.Faults())
	}
}

// TestTraceSinkFaultDoesNotPerturbRun: a dying trace sink drops events
// but never changes the optimization — observer failures are strictly
// non-intrusive.
func TestTraceSinkFaultDoesNotPerturbRun(t *testing.T) {
	mk := smallMarket(t)
	run := func(w io.Writer) *Result {
		cfg := smallConfig(71)
		cfg.Observer = NewJSONLObserver(w)
		res, err := Run(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(io.Discard)
	sink := &failEverySecond{}
	faulted := run(sink)
	if sink.failed == 0 {
		t.Fatal("the failing sink never failed a write")
	}
	if clean.Best.Revenue != faulted.Best.Revenue || clean.Best.TreeStr != faulted.Best.TreeStr {
		t.Fatalf("failing trace sink changed the run: %v/%q vs %v/%q",
			clean.Best.Revenue, clean.Best.TreeStr, faulted.Best.Revenue, faulted.Best.TreeStr)
	}
	if clean.Gens != faulted.Gens {
		t.Fatalf("generation counts diverged: %d vs %d", clean.Gens, faulted.Gens)
	}
}

// failEverySecond is a trace sink whose every second Write fails.
type failEverySecond struct{ calls, failed int }

func (w *failEverySecond) Write(p []byte) (int, error) {
	w.calls++
	if w.calls%2 == 0 {
		w.failed++
		return 0, errors.New("sink down")
	}
	return len(p), nil
}

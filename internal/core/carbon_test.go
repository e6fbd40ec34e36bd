package core

import (
	"math"
	"reflect"
	"testing"

	"carbon/internal/bcpop"
	"carbon/internal/orlib"
	"carbon/internal/stats"
)

func smallMarket(t testing.TB) *bcpop.Market {
	t.Helper()
	mk, err := bcpop.NewMarketFromClass(orlib.Class{N: 60, M: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

// smallConfig shrinks Table II budgets so integration tests stay fast.
func smallConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.ULPopSize = 16
	cfg.ULArchiveSize = 16
	cfg.ULEvalBudget = 200
	cfg.LLPopSize = 16
	cfg.LLArchiveSize = 16
	cfg.LLEvalBudget = 600
	cfg.PreySample = 2
	return cfg
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ULPopSize != 100 || cfg.ULArchiveSize != 100 || cfg.ULEvalBudget != 50000 {
		t.Fatalf("UL row mismatch: %+v", cfg)
	}
	if cfg.ULCrossoverProb != 0.85 || cfg.ULMutationProb != 0.01 {
		t.Fatalf("UL operator probabilities: %+v", cfg)
	}
	if cfg.LLPopSize != 100 || cfg.LLArchiveSize != 100 || cfg.LLEvalBudget != 50000 {
		t.Fatalf("LL row mismatch: %+v", cfg)
	}
	if cfg.LLCrossoverProb != 0.85 || cfg.LLMutationProb != 0.10 || cfg.LLReproProb != 0.05 {
		t.Fatalf("GP operator probabilities: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.ULPopSize = 1 },
		func(c *Config) { c.LLPopSize = 0 },
		func(c *Config) { c.ULArchiveSize = 0 },
		func(c *Config) { c.ULEvalBudget = 10 },
		func(c *Config) { c.LLCrossoverProb = 0.9; c.LLMutationProb = 0.2 },
		func(c *Config) { c.PreySample = 0 },
		func(c *Config) { c.Elites = -1 },
		func(c *Config) { c.Elites = 200 },
		// Elites must stay strictly below BOTH population sizes, or
		// island migration has no non-elite slot to inject into.
		func(c *Config) { c.Elites = c.ULPopSize },
		func(c *Config) { c.Elites = c.LLPopSize },
		func(c *Config) { c.InitDepthMax = 0; c.InitDepthMin = 3 },
	}
	for i, m := range mutate {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestRunProducesResult(t *testing.T) {
	mk := smallMarket(t)
	res, err := Run(mk, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens == 0 {
		t.Fatal("no generations ran")
	}
	if res.ULEvals > 200 || res.LLEvals > 600 {
		t.Fatalf("budget exceeded: UL=%d LL=%d", res.ULEvals, res.LLEvals)
	}
	if res.ULEvals == 0 || res.LLEvals == 0 {
		t.Fatal("no evaluations recorded")
	}
	if len(res.Best.Price) != mk.Leaders() {
		t.Fatalf("best price has %d genes, want %d", len(res.Best.Price), mk.Leaders())
	}
	if res.Best.TreeStr == "" {
		t.Fatal("no best heuristic recorded")
	}
	if res.Best.GapPct < 0 {
		t.Fatalf("negative best gap %v", res.Best.GapPct)
	}
	if res.Best.Revenue < 0 {
		t.Fatalf("negative revenue %v", res.Best.Revenue)
	}
	if len(res.ULArchive) == 0 || len(res.GPArchive) == 0 {
		t.Fatal("archives empty")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := smallMarket(t)
	a, err := Run(mk, smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk, smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Revenue != b.Best.Revenue || a.Best.GapPct != b.Best.GapPct {
		t.Fatalf("same seed diverged: (%v,%v) vs (%v,%v)",
			a.Best.Revenue, a.Best.GapPct, b.Best.Revenue, b.Best.GapPct)
	}
	if a.Best.TreeStr != b.Best.TreeStr {
		t.Fatalf("best trees differ: %s vs %s", a.Best.TreeStr, b.Best.TreeStr)
	}
	if a.Gens != b.Gens || a.ULEvals != b.ULEvals || a.LLEvals != b.LLEvals {
		t.Fatal("accounting diverged")
	}
}

func TestRunReproduciblePerWorkerCount(t *testing.T) {
	// Determinism contract: a seed reproduces bit-for-bit, at any worker
	// count — every relaxation starts from the prey's inherited basis
	// (or, parentless, from one solved before the wave), never from a
	// worker's solve history. See DESIGN.md §5e.
	mk := smallMarket(t)
	var first map[string]any
	for _, workers := range []int{1, 3, 4} {
		cfg := smallConfig(9)
		cfg.Workers = workers
		a, err := Run(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resultKey(a), resultKey(b)) {
			t.Fatalf("workers=%d: same config diverged", workers)
		}
		if first == nil {
			first = resultKey(a)
		} else if !reflect.DeepEqual(resultKey(a), first) {
			t.Fatalf("workers=%d: result differs from workers=1", workers)
		}
	}
}

func TestSeedsProduceDifferentRuns(t *testing.T) {
	mk := smallMarket(t)
	a, err := Run(mk, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Revenue == b.Best.Revenue && a.Best.TreeStr == b.Best.TreeStr &&
		a.Best.GapPct == b.Best.GapPct {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestCurvesAreArchiveMonotone(t *testing.T) {
	mk := smallMarket(t)
	res, err := Run(mk, smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if m := stats.Monotonicity(res.ULCurve.Y, +1); m != 1 {
		t.Fatalf("UL curve not nondecreasing: monotonicity %v", m)
	}
	if m := stats.Monotonicity(res.GapCurve.Y, -1); m != 1 {
		t.Fatalf("gap curve not nonincreasing: monotonicity %v", m)
	}
	// Curves advance along the evaluation axis.
	for i := 1; i < len(res.ULCurve.X); i++ {
		if res.ULCurve.X[i] <= res.ULCurve.X[i-1] {
			t.Fatal("UL curve x-axis not increasing")
		}
	}
}

func TestEvolutionImprovesOverInitialGeneration(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(11)
	cfg.ULEvalBudget = 600
	cfg.LLEvalBudget = 2400
	res, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstGap := res.GapCurve.Y[0]
	lastGap := res.GapCurve.Y[len(res.GapCurve.Y)-1]
	if lastGap > firstGap {
		t.Fatalf("gap worsened: %v → %v", firstGap, lastGap)
	}
	firstF := res.ULCurve.Y[0]
	lastF := res.ULCurve.Y[len(res.ULCurve.Y)-1]
	if lastF < firstF {
		t.Fatalf("revenue worsened: %v → %v", firstF, lastF)
	}
	if math.IsNaN(lastGap) || math.IsNaN(lastF) {
		t.Fatal("NaN in curves")
	}
}

func TestBestHeuristicBeatsRandomTree(t *testing.T) {
	// The evolved best gap should be competitive with (usually beat) the
	// median random-tree gap on this market; at minimum it must be
	// dramatically below the worst-case.
	mk := smallMarket(t)
	cfg := smallConfig(13)
	cfg.LLEvalBudget = 2000
	res, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.GapPct > 50 {
		t.Fatalf("evolved heuristic gap %v%% is not credible", res.Best.GapPct)
	}
}

func BenchmarkCarbonGeneration(b *testing.B) {
	mk, err := bcpop.NewMarketFromClass(orlib.Class{N: 100, M: 5}, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ULPopSize = 20
	cfg.LLPopSize = 20
	cfg.PreySample = 2
	cfg.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One generation's worth of budget.
		cfg.Seed = uint64(i + 1)
		cfg.ULEvalBudget = 20
		cfg.LLEvalBudget = 40
		if _, err := Run(mk, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package cobra

import (
	"errors"
	"testing"

	"carbon/internal/bcpop"
	"carbon/internal/core"
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

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.ULPopSize = 16
	cfg.ULArchiveSize = 16
	cfg.ULEvalBudget = 600
	cfg.LLPopSize = 16
	cfg.LLArchiveSize = 16
	cfg.LLEvalBudget = 600
	cfg.PhaseGens = 3
	cfg.CoevPairs = 6
	cfg.ArchiveInject = 4
	return cfg
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ULPopSize != 100 || cfg.ULArchiveSize != 100 || cfg.ULEvalBudget != 50000 {
		t.Fatalf("UL row: %+v", cfg)
	}
	if cfg.LLPopSize != 100 || cfg.LLArchiveSize != 100 || cfg.LLEvalBudget != 50000 {
		t.Fatalf("LL row: %+v", cfg)
	}
	if cfg.ULCrossoverProb != 0.85 || cfg.ULMutationProb != 0.01 || cfg.LLCrossoverProb != 0.85 {
		t.Fatalf("operator probabilities: %+v", cfg)
	}
	if cfg.LLMutationProb != 0 {
		t.Fatal("LL mutation must default to auto (1/#variables)")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.ULPopSize = 1 },
		func(c *Config) { c.LLArchiveSize = 0 },
		func(c *Config) { c.LLEvalBudget = 1 },
		func(c *Config) { c.PhaseGens = 0 },
		func(c *Config) { c.CoevPairs = -1 },
		func(c *Config) { c.Elites = 500 },
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
	res, err := Run(mk, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens == 0 {
		t.Fatal("no generations")
	}
	if res.ULEvals > 600 || res.LLEvals > 600 {
		t.Fatalf("budgets exceeded: %d/%d", res.ULEvals, res.LLEvals)
	}
	if len(res.BestPrice) != mk.Leaders() {
		t.Fatalf("best price length %d", len(res.BestPrice))
	}
	if res.BestLLCost <= 0 {
		t.Fatalf("best LL cost %v", res.BestLLCost)
	}
	if res.BestGapPct < 0 || res.MinGapPct < 0 {
		t.Fatalf("negative gaps: %v/%v", res.BestGapPct, res.MinGapPct)
	}
	if res.MinGapPct > res.BestGapPct {
		t.Fatalf("MinGap %v exceeds BestGap %v", res.MinGapPct, res.BestGapPct)
	}
	if len(res.ULCurve.X) == 0 || len(res.GapCurve.X) == 0 {
		t.Fatal("curves empty")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := smallMarket(t)
	a, err := Run(mk, smallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk, smallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestRevenue != b.BestRevenue || a.BestGapPct != b.BestGapPct ||
		a.Gens != b.Gens || a.ULEvals != b.ULEvals || a.LLEvals != b.LLEvals {
		t.Fatal("same seed diverged")
	}
}

func TestAutoMutationRate(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(5)
	cfg.LLMutationProb = 0 // auto
	if _, err := Run(mk, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSeeSawVersusCarbonSmoothness(t *testing.T) {
	// The paper's Fig 4 vs Fig 5 contrast, in miniature: CARBON's
	// archive-driven curves are perfectly monotone; COBRA's
	// population-driven curves oscillate across phase boundaries.
	mk := smallMarket(t)
	cres, err := Run(mk, smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultConfig()
	ccfg.Seed = 8
	ccfg.ULPopSize, ccfg.LLPopSize = 16, 16
	ccfg.ULArchiveSize, ccfg.LLArchiveSize = 16, 16
	ccfg.ULEvalBudget, ccfg.LLEvalBudget = 600, 600
	ccfg.PreySample = 2
	kres, err := core.Run(mk, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	carbonSmooth := stats.Monotonicity(kres.GapCurve.Y, -1)
	cobraSmooth := stats.Monotonicity(cres.GapCurve.Y, -1)
	if carbonSmooth != 1 {
		t.Fatalf("CARBON gap curve should be monotone, got %v", carbonSmooth)
	}
	if cobraSmooth >= 1 && stats.SeeSaw(cres.GapCurve.Y) == 0 {
		t.Log("note: COBRA gap curve happened to be monotone on this tiny run")
	}
}

func TestCarbonBeatsCobraOnGap(t *testing.T) {
	// The headline Table III direction on a small market with modest
	// budgets: CARBON's archived gap below COBRA's.
	mk := smallMarket(t)

	ccfg := smallConfig(30)
	ccfg.ULEvalBudget, ccfg.LLEvalBudget = 1500, 1500
	cres, err := Run(mk, ccfg)
	if err != nil {
		t.Fatal(err)
	}

	kcfg := core.DefaultConfig()
	kcfg.Seed = 30
	kcfg.ULPopSize, kcfg.LLPopSize = 16, 16
	kcfg.ULArchiveSize, kcfg.LLArchiveSize = 16, 16
	kcfg.ULEvalBudget, kcfg.LLEvalBudget = 1500, 1500
	kcfg.PreySample = 2
	kres, err := core.Run(mk, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	if kres.Best.GapPct >= cres.BestGapPct {
		t.Fatalf("CARBON gap %v%% not below COBRA gap %v%%",
			kres.Best.GapPct, cres.BestGapPct)
	}
}

func TestWorstIndex(t *testing.T) {
	if worstIndex([]float64{3, 1, 2}, true) != 1 {
		t.Fatal("maximize: worst should be min")
	}
	if worstIndex([]float64{3, 1, 5}, false) != 2 {
		t.Fatal("minimize: worst should be max")
	}
}

func TestBudgetBoundaryExact(t *testing.T) {
	// Budgets exactly one generation wide: COBRA must run it and stop.
	mk := smallMarket(t)
	cfg := smallConfig(40)
	cfg.ULEvalBudget = cfg.ULPopSize
	cfg.LLEvalBudget = cfg.LLPopSize
	res, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ULEvals > cfg.ULEvalBudget || res.LLEvals > cfg.LLEvalBudget {
		t.Fatalf("boundary budgets exceeded: %d/%d", res.ULEvals, res.LLEvals)
	}
	if res.Gens == 0 {
		t.Fatal("no generation ran with exactly one generation of budget")
	}
}

func TestPhaseGensShapesCurve(t *testing.T) {
	// Longer phases mean fewer alternations: with PhaseGens equal to the
	// whole budget, the run never reaches a lower phase boundary
	// mid-stream, so the recorded curve has at most one long UL stretch.
	mk := smallMarket(t)
	long := smallConfig(41)
	long.PhaseGens = 1000
	res, err := Run(mk, long)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens == 0 {
		t.Fatal("no generations")
	}
}

func TestEvalStripedStopsAtFirstErrorPerStripe(t *testing.T) {
	// Two stripes over six items: [0,3) and [3,6). Items 1 and 4 fail.
	called := make([]bool, 6)
	fail := map[int]error{1: errors.New("one"), 4: errors.New("four")}
	err := evalStriped(6, 2, func(i, w int) error {
		called[i] = true
		return fail[i]
	})
	if err != fail[1] {
		t.Fatalf("error %v, want the lowest failing index's", err)
	}
	for i, want := range []bool{true, true, false, true, true, false} {
		if called[i] != want {
			t.Fatalf("item %d called=%v, want %v", i, called[i], want)
		}
	}
	if err := evalStriped(3, 2, func(i, w int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

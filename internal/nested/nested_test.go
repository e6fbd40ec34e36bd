package nested

import (
	"errors"
	"sync/atomic"
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

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.PopSize = 16
	cfg.ArchiveSize = 16
	cfg.ULEvalBudget = 320
	cfg.LLEvalBudget = 320
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.CrossoverProb != 0.85 || cfg.MutationProb != 0.01 {
		t.Fatalf("Table II operators: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.PopSize = 1 },
		func(c *Config) { c.ArchiveSize = 0 },
		func(c *Config) { c.ULEvalBudget = 3 },
		func(c *Config) { c.Elites = -1 },
	}
	for i, m := range mutate {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestRun(t *testing.T) {
	mk := smallMarket(t)
	res, err := Run(mk, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens == 0 || res.ULEvals == 0 {
		t.Fatalf("no work done: %+v", res)
	}
	if res.ULEvals != res.LLEvals {
		t.Fatalf("nested scheme must drain budgets in lockstep: %d/%d",
			res.ULEvals, res.LLEvals)
	}
	if res.ULEvals > 320 {
		t.Fatal("budget exceeded")
	}
	if len(res.BestPrice) != mk.Leaders() {
		t.Fatalf("price length %d", len(res.BestPrice))
	}
	if res.BestGapPct < 0 {
		t.Fatalf("gap %v", res.BestGapPct)
	}
	if m := stats.Monotonicity(res.ULCurve.Y, +1); m != 1 {
		t.Fatalf("archive curve not monotone: %v", m)
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := smallMarket(t)
	a, err := Run(mk, smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk, smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestRevenue != b.BestRevenue || a.BestGapPct != b.BestGapPct {
		t.Fatal("same seed diverged")
	}
}

func TestChvatalGapIsConstantQuality(t *testing.T) {
	// The fixed heuristic's gap should be moderate and stable — the
	// nested baseline trades adaptivity for per-evaluation cost.
	mk := smallMarket(t)
	res, err := Run(mk, smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestGapPct > 50 {
		t.Fatalf("Chvátal gap %v%% not credible", res.BestGapPct)
	}
}

func TestGraspVariantBeatsChvatalGap(t *testing.T) {
	// GRASP multistart at the lower level yields better per-candidate
	// answers than the single deterministic Chvátal pass, at the cost of
	// proportionally fewer upper-level candidates.
	mk := smallMarket(t)
	base := smallConfig(13)
	base.LLEvalBudget = base.ULEvalBudget * 5

	chv, err := Run(mk, base)
	if err != nil {
		t.Fatal(err)
	}
	grasped := base
	grasped.GraspStarts = 5
	grasped.GraspAlpha = 0.2
	gr, err := Run(mk, grasped)
	if err != nil {
		t.Fatal(err)
	}
	if gr.LLEvals <= gr.ULEvals {
		t.Fatalf("GRASP variant must burn LL faster: UL=%d LL=%d", gr.ULEvals, gr.LLEvals)
	}
	if gr.BestGapPct > chv.BestGapPct+1e-9 {
		t.Fatalf("GRASP gap %v%% worse than Chvátal %v%%", gr.BestGapPct, chv.BestGapPct)
	}
}

func TestGraspVariantDeterministic(t *testing.T) {
	mk := smallMarket(t)
	cfg := smallConfig(15)
	cfg.GraspStarts = 3
	cfg.GraspAlpha = 0.3
	cfg.LLEvalBudget = cfg.ULEvalBudget * 3
	a, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestRevenue != b.BestRevenue || a.BestGapPct != b.BestGapPct {
		t.Fatal("GRASP variant not reproducible")
	}
}

// TestRunReturnsLPFault: an LP relaxation that fails mid-run, on any
// worker, makes Run return that error instead of panicking.
func TestRunReturnsLPFault(t *testing.T) {
	errBoom := errors.New("injected LP failure")
	for _, workers := range []int{1, 2} {
		var solves atomic.Int64
		cfg := smallConfig(3)
		cfg.Workers = workers
		res, err := run(smallMarket(t), cfg, func() error {
			if solves.Add(1) == 25 {
				return errBoom
			}
			return nil
		})
		if !errors.Is(err, errBoom) || res != nil {
			t.Fatalf("workers %d: Run = %v, %v; want the injected error", workers, res, err)
		}
	}
}

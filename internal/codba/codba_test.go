package codba

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
	cfg.ULPopSize = 10
	cfg.ULArchiveSize = 10
	cfg.ULEvalBudget = 100
	cfg.SubPopSize = 4
	cfg.SubGens = 3
	cfg.LLArchiveSize = 10
	cfg.LLEvalBudget = 1500
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.ULCrossoverProb != 0.85 || cfg.ULMutationProb != 0.01 {
		t.Fatalf("Table II UL operators: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.ULPopSize = 1 },
		func(c *Config) { c.SubPopSize = 1 },
		func(c *Config) { c.SubGens = 0 },
		func(c *Config) { c.LLEvalBudget = 1 },
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

func TestRunProducesResult(t *testing.T) {
	mk := smallMarket(t)
	res, err := Run(mk, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens == 0 {
		t.Fatal("no generations")
	}
	if res.ULEvals > 100 || res.LLEvals > 1500 {
		t.Fatalf("budgets exceeded: %d/%d", res.ULEvals, res.LLEvals)
	}
	if len(res.BestPrice) != mk.Leaders() {
		t.Fatalf("price length %d", len(res.BestPrice))
	}
	if res.BestGapPct < 0 {
		t.Fatalf("gap %v", res.BestGapPct)
	}
	// The defining property of the nested scheme: LL evaluations dwarf
	// UL evaluations per generation.
	if res.LLEvals <= res.ULEvals {
		t.Fatalf("nested decomposition should burn LL budget fastest: UL=%d LL=%d",
			res.ULEvals, res.LLEvals)
	}
	if m := stats.Monotonicity(res.ULCurve.Y, +1); m != 1 {
		t.Fatalf("archive curve not monotone: %v", m)
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := smallMarket(t)
	a, err := Run(mk, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestRevenue != b.BestRevenue || a.BestGapPct != b.BestGapPct ||
		a.LLEvals != b.LLEvals {
		t.Fatal("same seed diverged")
	}
}

func TestEarlyStopSavesBudget(t *testing.T) {
	// With SubGens large, early stopping must kick in well before the
	// worst-case spend on at least some candidates.
	mk := smallMarket(t)
	cfg := smallConfig(3)
	cfg.SubGens = 50
	cfg.LLEvalBudget = 100000
	cfg.ULEvalBudget = 20 // two generations of 10
	res, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	worstCase := res.Gens*cfg.ULPopSize*cfg.SubPopSize*cfg.SubGens + res.Gens
	if res.LLEvals >= worstCase {
		t.Fatalf("no early stopping: %d LL evals = worst case %d", res.LLEvals, worstCase)
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

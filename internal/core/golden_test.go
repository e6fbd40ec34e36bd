package core

import (
	"math"
	"testing"
)

// runGolden is one whole-run hex golden: the final Result of a seeded
// run on smallMarket, pinned as math.Float64bits of Best.Revenue and
// Best.GapPct plus the best tree's S-expression.
type runGolden struct {
	seed     uint64
	workers  int
	gens     int
	revBits  uint64
	gapBits  uint64
	bestTree string
}

func checkRunGoldens(t *testing.T, goldens []runGolden) {
	t.Helper()
	checkConfigGoldens(t, goldens, func(*Config) {})
}

// checkConfigGoldens is checkRunGoldens with edit applied to every
// run's smallConfig.
func checkConfigGoldens(t *testing.T, goldens []runGolden, edit func(*Config)) {
	t.Helper()
	mk := smallMarket(t)
	for _, g := range goldens {
		cfg := smallConfig(g.seed)
		cfg.Workers = g.workers
		edit(&cfg)
		res, err := Run(mk, cfg)
		if err != nil {
			t.Fatalf("seed=%d workers=%d: %v", g.seed, g.workers, err)
		}
		if res.Gens != g.gens {
			t.Errorf("seed=%d workers=%d: gens=%d, want %d", g.seed, g.workers, res.Gens, g.gens)
		}
		if bits := math.Float64bits(res.Best.Revenue); bits != g.revBits {
			t.Errorf("seed=%d workers=%d: revenue bits %#x (%v), want %#x",
				g.seed, g.workers, bits, res.Best.Revenue, g.revBits)
		}
		if bits := math.Float64bits(res.Best.GapPct); bits != g.gapBits {
			t.Errorf("seed=%d workers=%d: gap bits %#x (%v), want %#x",
				g.seed, g.workers, bits, res.Best.GapPct, g.gapBits)
		}
		if res.Best.TreeStr != g.bestTree {
			t.Errorf("seed=%d workers=%d: tree %q, want %q", g.seed, g.workers, res.Best.TreeStr, g.bestTree)
		}
	}
}

// TestExactModeGoldenBitIdentical pins the paper-faithful path: the
// final Result of a whole run must reproduce, bit for bit and across
// seeds and worker counts, the constants captured from the engine's
// exact path. If this test fails, the default path changed behavior,
// which refactors must never do.
func TestExactModeGoldenBitIdentical(t *testing.T) {
	checkRunGoldens(t, []runGolden{
		{7, 1, 12, 0x40a40149693b4ae7, 0x4018d9b5fc683eda, "(- (% (* c xbar) (- b q)) (* (mod b xbar) (% d d)))"},
		{41, 1, 12, 0x40a0e267b5f2dfb0, 0x40146402a48796f2, "xbar"},
		{7, 2, 12, 0x40a40149693b4ae7, 0x4018d9b5fc683eda, "(- (% (* c xbar) (- b q)) (* (mod b xbar) (% d d)))"},
		{41, 2, 12, 0x40a0e267b5f2dfb0, 0x40146402a48796f2, "xbar"},
	})
}

// TestCompiledRunGolden pins the compiled evaluation path (the
// predator forest and the hunter program), and that a run's bits do
// not depend on Workers: every prey's relaxation starts from its
// nearer parent's basis, never from a worker's solve history, and the
// predator wave folds its pairings in sample order, so Workers 1 to 4
// must all give the same Result. The predator evaluations behind it
// were once proved bit-identical to the tree-walking interpreter,
// which stays the test oracle of the runner (gp.FuzzCompiledEval,
// gp.FuzzForestEval).
func TestCompiledRunGolden(t *testing.T) {
	var goldens []runGolden
	for workers := 1; workers <= 4; workers++ {
		goldens = append(goldens,
			runGolden{3, workers, 12, 0x40a80171c0f9ee7e, 0x4000263f45aad50b, "(% (* c xbar) (- xbar (- xbar c)))"},
			runGolden{17, workers, 12, 0x40a2bb587d6a9d44, 0x4010c243470544b5, "(+ xbar xbar)"})
	}
	checkRunGoldens(t, goldens)
}

// TestCostFitnessResultGolden pins Result under the CostFitness
// ablation, where the archive holds raw costs and Result re-measures
// the best tree's gap on a seed-derived prey sample. No other golden
// reaches that path.
func TestCostFitnessResultGolden(t *testing.T) {
	checkConfigGoldens(t, []runGolden{
		{17, 1, 12, 0x40a2bb587d6a9d44, 0x40184751ba8f1c74, "(+ xbar xbar)"},
		{21, 1, 12, 0x40a3cd23f122111c, 0x40113d745f59f240, "(mod xbar q)"},
	}, func(cfg *Config) { cfg.CostFitness = true })
}

// Benchmarks regenerating the paper's evaluation artifacts, one per
// table and figure (§V). Each benchmark iteration is a complete
// (scaled-budget) optimization run; alongside ns/op the benchmarks
// report the quantity the corresponding table or figure plots as custom
// metrics:
//
//	BenchmarkTableIII — gap%      (Table III: %-gap to LL optimality)
//	BenchmarkTableIV  — F         (Table IV: UL objective values)
//	BenchmarkFig4     — mono      (Fig 4: CARBON curve monotonicity, →1)
//	BenchmarkFig5     — reversals (Fig 5: COBRA see-saw reversal count)
//
// Budgets are scaled from Table II's 50 000 evaluations so the suite
// finishes on one machine; cmd/blbench -full runs the real protocol.
// The per-table absolute values are therefore looser than the paper's,
// but the comparisons' directions match (see EXPERIMENTS.md).
package carbon_test

import (
	"testing"

	"carbon/internal/bcpop"
	"carbon/internal/cobra"
	"carbon/internal/core"
	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/lp"
	"carbon/internal/orlib"
	"carbon/internal/stats"
)

// benchBudget returns scaled budgets for a class: larger instances get
// the same evaluation counts (the paper holds budgets constant across
// classes too).
const (
	benchPop     = 12
	benchULEvals = 240
	benchLLEvals = 480
)

func benchMarket(b *testing.B, cl orlib.Class) *bcpop.Market {
	b.Helper()
	mk, err := bcpop.NewMarketFromClass(cl, 0)
	if err != nil {
		b.Fatal(err)
	}
	return mk
}

func carbonBenchConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.ULPopSize, cfg.LLPopSize = benchPop, benchPop
	cfg.ULArchiveSize, cfg.LLArchiveSize = benchPop, benchPop
	cfg.ULEvalBudget, cfg.LLEvalBudget = benchULEvals, benchLLEvals
	cfg.PreySample = 2
	cfg.Workers = 1
	return cfg
}

func cobraBenchConfig(seed uint64) cobra.Config {
	cfg := cobra.DefaultConfig()
	cfg.Seed = seed
	cfg.ULPopSize, cfg.LLPopSize = benchPop, benchPop
	cfg.ULArchiveSize, cfg.LLArchiveSize = benchPop, benchPop
	cfg.ULEvalBudget, cfg.LLEvalBudget = benchULEvals, benchLLEvals
	cfg.CoevPairs = 4
	cfg.ArchiveInject = 2
	cfg.Workers = 1
	return cfg
}

// BenchmarkTableIII regenerates Table III: per class, both algorithms'
// best %-gap to lower-level optimality (reported as the "gap%" metric).
func BenchmarkTableIII(b *testing.B) {
	for _, cl := range orlib.PaperClasses {
		cl := cl
		b.Run("CARBON/"+cl.String(), func(b *testing.B) {
			mk := benchMarket(b, cl)
			total := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(mk, carbonBenchConfig(uint64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				total += res.Best.GapPct
			}
			b.ReportMetric(total/float64(b.N), "gap%")
		})
		b.Run("COBRA/"+cl.String(), func(b *testing.B) {
			mk := benchMarket(b, cl)
			total := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cobra.Run(mk, cobraBenchConfig(uint64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				total += res.BestGapPct
			}
			b.ReportMetric(total/float64(b.N), "gap%")
		})
	}
}

// BenchmarkTableIV regenerates Table IV: per class, both algorithms'
// reported upper-level objective (the "F" metric). COBRA's higher F is
// the over-estimation the paper's Eq. 2/3 argument explains.
func BenchmarkTableIV(b *testing.B) {
	for _, cl := range orlib.PaperClasses {
		cl := cl
		b.Run("CARBON/"+cl.String(), func(b *testing.B) {
			mk := benchMarket(b, cl)
			total := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(mk, carbonBenchConfig(uint64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				total += res.Best.Revenue
			}
			b.ReportMetric(total/float64(b.N), "F")
		})
		b.Run("COBRA/"+cl.String(), func(b *testing.B) {
			mk := benchMarket(b, cl)
			total := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cobra.Run(mk, cobraBenchConfig(uint64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				total += res.BestRevenue
			}
			b.ReportMetric(total/float64(b.N), "F")
		})
	}
}

// figClass is the class Figures 4 and 5 use in the paper.
var figClass = orlib.Class{N: 500, M: 30}

// BenchmarkFig4 regenerates Fig 4's data: a CARBON run on n=500 m=30
// whose two convergence curves must be smooth. The "mono" metrics are
// the fraction of monotone steps (1.0 = perfectly steady, the paper's
// qualitative claim for CARBON).
func BenchmarkFig4(b *testing.B) {
	mk := benchMarket(b, figClass)
	ulMono, gapMono := 0.0, 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(mk, carbonBenchConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		ulMono += stats.Monotonicity(res.ULCurve.Y, +1)
		gapMono += stats.Monotonicity(res.GapCurve.Y, -1)
	}
	b.ReportMetric(ulMono/float64(b.N), "ulMono")
	b.ReportMetric(gapMono/float64(b.N), "gapMono")
}

// BenchmarkFig5 regenerates Fig 5's data: a COBRA run on the same class.
// The "reversals" metric counts direction changes in the gap curve —
// the see-saw signature the paper attributes to COBRA's alternating
// improvement phases.
func BenchmarkFig5(b *testing.B) {
	mk := benchMarket(b, figClass)
	reversals, gapMono := 0.0, 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cobra.Run(mk, cobraBenchConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		reversals += float64(stats.SeeSaw(res.GapCurve.Y))
		gapMono += stats.Monotonicity(res.GapCurve.Y, -1)
	}
	b.ReportMetric(reversals/float64(b.N), "reversals")
	b.ReportMetric(gapMono/float64(b.N), "gapMono")
}

// BenchmarkPairedEvaluation measures the single hot operation both
// algorithms are built from: one (pricing, heuristic) paired evaluation
// on the figure-class market (LP relaxation warm-started from the
// previous pricing's basis, one price away, as a child's starts from its
// parent's + compiled tree scoring + greedy; the tree is compiled once,
// as the hunter is once per generation).
func BenchmarkPairedEvaluation(b *testing.B) {
	mk := benchMarket(b, figClass)
	set := covering.TableISet()
	ev, err := bcpop.NewEvaluator(mk, set)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := gp.Compile(set, gp.MustParse(set, "(% (* q d) c)"))
	if err != nil {
		b.Fatal(err)
	}
	price := make([]float64, mk.Leaders())
	bounds := mk.PriceBounds()
	for j := range price {
		price[j] = bounds.Up[j] / 2
	}
	var start *lp.Basis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		price[i%len(price)] = bounds.Up[0] * float64(i%7+1) / 8
		p, err := ev.PrepareFrom(price, start)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ev.EvalProgramWith(p, prog); err != nil {
			b.Fatal(err)
		}
		start = p.Rx.Basis
	}
}

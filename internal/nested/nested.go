// Package nested implements the legacy "nested sequential" baseline
// (category NSQ/CST in the paper's §III taxonomy, Fig 2): a single
// genetic algorithm over upper-level decisions where *every* fitness
// evaluation solves the induced lower-level instance from scratch with a
// fixed hand-written heuristic (Chvátal's ratio greedy).
//
// This is the scheme the paper calls "very time consuming": accuracy at
// the lower level is bought per-evaluation instead of being learned once
// and amortized, so under an equal lower-level evaluation budget the
// upper-level search sees far fewer candidate pricings than CARBON. The
// package exists as the third comparison point for the taxonomy
// benchmarks (see bench_test.go and EXPERIMENTS.md).
package nested

import (
	"errors"
	"fmt"
	"slices"

	"carbon/internal/archive"
	"carbon/internal/bcpop"
	"carbon/internal/covering"
	"carbon/internal/ga"
	"carbon/internal/lp"
	"carbon/internal/par"
	"carbon/internal/rng"
	"carbon/internal/stats"
)

// Config parameterizes the nested GA. The upper level reuses the
// Table II GA operator suite so comparisons isolate the *architecture*
// (nested vs co-evolutionary), not the operators.
type Config struct {
	Seed            uint64
	PopSize         int
	ArchiveSize     int
	ULEvalBudget    int     // upper-level evaluations
	LLEvalBudget    int     // lower-level solves (one per UL evaluation)
	CrossoverProb   float64 // SBX
	MutationProb    float64 // polynomial, per gene
	SBXEta, PolyEta float64
	Elites          int
	Workers         int

	// GraspStarts switches the fixed lower-level solver from the
	// deterministic Chvátal greedy to GRASP with this many randomized
	// starts (GraspAlpha is the restricted-candidate-list looseness).
	// Each start is charged as one lower-level evaluation, so GRASP buys
	// better per-candidate answers at the price of proportionally fewer
	// upper-level candidates — the nested trade-off dial.
	GraspStarts int
	GraspAlpha  float64
}

// DefaultConfig mirrors the Table II upper-level column.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		PopSize:       100,
		ArchiveSize:   100,
		ULEvalBudget:  50000,
		LLEvalBudget:  50000,
		CrossoverProb: 0.85,
		MutationProb:  0.01,
		SBXEta:        15,
		PolyEta:       20,
		Elites:        1,
	}
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	switch {
	case c.PopSize < 2:
		return errors.New("nested: population size must be at least 2")
	case c.ArchiveSize < 1:
		return errors.New("nested: archive size must be positive")
	case c.ULEvalBudget < c.PopSize || c.LLEvalBudget < c.PopSize:
		return errors.New("nested: budgets must cover one generation")
	case c.Elites < 0 || c.Elites >= c.PopSize:
		return errors.New("nested: bad elite count")
	}
	return nil
}

// Result summarizes one nested-GA run.
type Result struct {
	BestPrice   []float64
	BestRevenue float64
	BestGapPct  float64 // gap of the Chvátal answer on the best pricing
	ULEvals     int
	LLEvals     int
	Gens        int
	ULCurve     stats.Series
	GapCurve    stats.Series
}

// Run executes the nested GA: each upper-level fitness evaluation costs
// one lower-level solve (Chvátal greedy on the induced instance), so
// both budgets drain in lockstep.
func Run(mk *bcpop.Market, cfg Config) (*Result, error) {
	return run(mk, cfg, nil)
}

// run is Run with lpFault (nil in production) installed on every worker
// evaluator: consulted before each LP relaxation solve, a non-nil return
// fails that solve and ends the run with the error.
func run(mk *bcpop.Market, cfg Config, lpFault func() error) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := par.Workers(cfg.Workers)
	evs := make([]*bcpop.Evaluator, workers)
	for i := range evs {
		ev, err := bcpop.NewEvaluator(mk, covering.TableISet())
		if err != nil {
			return nil, err
		}
		ev.SetLPFault(lpFault)
		evs[i] = ev
	}
	r := rng.New(cfg.Seed)
	bounds := mk.PriceBounds()
	step := ga.Step{Elites: cfg.Elites, CrossProb: cfg.CrossoverProb, SBXEta: cfg.SBXEta,
		MutProb: cfg.MutationProb, PolyEta: cfg.PolyEta}

	pop := make([][]float64, cfg.PopSize)
	for i := range pop {
		pop[i] = bounds.RandomVector(r)
	}
	fit := make([]float64, cfg.PopSize)
	gaps := make([]float64, cfg.PopSize)
	arch := archive.New(cfg.ArchiveSize, false, nil, slices.Clone[[]float64])

	res := &Result{}
	ulUsed, llUsed := 0, 0
	bestGap := 0.0
	llPerCand := 1
	if cfg.GraspStarts > 0 {
		llPerCand = cfg.GraspStarts
	}
	// Each candidate's LP relaxation starts from the final basis of its
	// nearer parent (nil, a cold solve, in generation 1), so every result
	// is a pure function of the run and not of Workers.
	starts := make([]*lp.Basis, cfg.PopSize)
	final := make([]*lp.Basis, cfg.PopSize)
	errs := make([]error, cfg.PopSize)
	for ulUsed+cfg.PopSize <= cfg.ULEvalBudget && llUsed+cfg.PopSize*llPerCand <= cfg.LLEvalBudget {
		// Pre-draw per-candidate seeds on the main goroutine so the
		// GRASP path stays deterministic under striped evaluation.
		var seeds []uint64
		if cfg.GraspStarts > 0 {
			seeds = make([]uint64, len(pop))
			for i := range seeds {
				seeds[i] = r.Uint64()
			}
		}
		par.Striped(len(pop), workers, nil, func(i, w int) {
			var gr *rng.Rand
			if seeds != nil {
				gr = rng.New(seeds[i])
			}
			out, basis, err := evalCandidate(evs[w], pop[i], starts[i], cfg, gr)
			errs[i], final[i] = err, basis
			if err != nil {
				return
			}
			if out.Feasible {
				fit[i] = out.Revenue
			} else {
				fit[i] = 0
			}
			gaps[i] = out.GapPct
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("nested: candidate %d: %w", i, err)
			}
		}
		ulUsed += len(pop)
		llUsed += len(pop) * llPerCand

		bestI := 0
		for i := range fit {
			if fit[i] > fit[bestI] {
				bestI = i
			}
		}
		for i, x := range pop {
			if arch.Add(x, fit[i]) && i == bestI {
				bestGap = gaps[i]
			}
		}
		res.Gens++
		x := float64(ulUsed + llUsed)
		if be, ok := arch.Best(); ok {
			res.ULCurve.X = append(res.ULCurve.X, x)
			res.ULCurve.Y = append(res.ULCurve.Y, be.Fitness)
		}
		res.GapCurve.X = append(res.GapCurve.X, x)
		res.GapCurve.Y = append(res.GapCurve.Y, gaps[bestI])

		next, parents := step.Breed(r, pop, func(i, j int) bool { return fit[i] > fit[j] }, bounds)
		for c, pa := range parents {
			starts[c] = final[pa.Nearest(next[c], pop)]
		}
		pop = next
	}
	res.ULEvals, res.LLEvals = ulUsed, llUsed
	if be, ok := arch.Best(); ok {
		res.BestPrice = be.Item
		res.BestRevenue = be.Fitness
		res.BestGapPct = bestGap
	}
	return res, nil
}

// evalCandidate relaxes the induced instance of price from the basis
// start and answers it with the fixed lower-level solver: GRASP drawing
// from gr when configured, else the Chvátal ratio greedy. It returns the
// paired result and the relaxation's final basis.
func evalCandidate(ev *bcpop.Evaluator, price []float64, start *lp.Basis, cfg Config, gr *rng.Rand) (bcpop.Result, *lp.Basis, error) {
	p, err := ev.PrepareFrom(price, start)
	if err != nil {
		return bcpop.Result{}, nil, err
	}
	var out bcpop.Result
	if cfg.GraspStarts > 0 {
		out, _, err = ev.EvalGRASPWith(p, gr, cfg.GraspStarts, cfg.GraspAlpha)
	} else {
		// An empty selection repaired by Chvátal completion IS the
		// Chvátal greedy, so reuse the selection path.
		out, _, err = ev.EvalSelectionWith(p, make([]bool, ev.Market().Bundles()))
	}
	return out, p.Rx.Basis, err
}

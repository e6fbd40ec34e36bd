// Package codba re-implements CODBA (Chaabani, Bechikh & Ben Said,
// CEC 2015), the third bi-level algorithm discussed in the paper's
// related-work section: "a co-evolutionary decomposition-based
// algorithm... generating from the upper-level solutions many LL
// populations. The authors then evaluate in parallel each
// sub-population. Each individual of these LL populations mates using
// crossover with the best archived LL solutions until no more
// improvement occurs at LL."
//
// The paper's criticism — that despite the "co-evolutionary" label the
// scheme is a nested optimizer, because every upper-level candidate
// spawns and drains its own lower-level sub-population — is visible in
// this implementation's budget accounting: lower-level evaluations are
// consumed per upper-level candidate, so the upper level sees only
// LLBudget / (SubPopSize × SubGens) candidates in total. The
// sub-populations do run in parallel (the part of CODBA that is honestly
// parallel), via the same striped-worker scheme as the other algorithms.
package codba

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

// Config parameterizes CODBA. Upper-level operators mirror Table II so
// cross-algorithm comparisons isolate the architecture.
type Config struct {
	Seed uint64

	ULPopSize       int
	ULArchiveSize   int
	ULEvalBudget    int
	ULCrossoverProb float64
	ULMutationProb  float64
	ULSBXEta        float64
	ULPolyEta       float64

	// Decomposition: each UL candidate gets its own LL sub-population
	// evolved for at most SubGens generations, stopping early when a
	// generation brings no improvement (the paper's "until no more
	// improvement occurs at LL").
	SubPopSize      int
	SubGens         int
	LLArchiveSize   int // archive of elite baskets that sub-populations mate with
	LLEvalBudget    int
	LLCrossoverProb float64
	LLMutationProb  float64 // 0 = auto 1/#variables

	Elites  int
	Workers int
}

// DefaultConfig returns Table II-compatible parameters with the CODBA
// decomposition knobs at the cited paper's scale.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		ULPopSize:       100,
		ULArchiveSize:   100,
		ULEvalBudget:    50000,
		ULCrossoverProb: 0.85,
		ULMutationProb:  0.01,
		ULSBXEta:        15,
		ULPolyEta:       20,
		SubPopSize:      10,
		SubGens:         5,
		LLArchiveSize:   100,
		LLEvalBudget:    50000,
		LLCrossoverProb: 0.85,
		Elites:          1,
	}
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	switch {
	case c.ULPopSize < 2:
		return errors.New("codba: UL population must be at least 2")
	case c.ULArchiveSize < 1 || c.LLArchiveSize < 1:
		return errors.New("codba: archive sizes must be positive")
	case c.SubPopSize < 2 || c.SubGens < 1:
		return errors.New("codba: sub-population needs size >= 2 and gens >= 1")
	case c.ULEvalBudget < c.ULPopSize:
		return errors.New("codba: UL budget below one generation")
	case c.LLEvalBudget < c.SubPopSize:
		return errors.New("codba: LL budget below one sub-generation")
	case c.Elites < 0 || c.Elites >= c.ULPopSize:
		return errors.New("codba: bad elite count")
	}
	return nil
}

// Result summarizes one CODBA run.
type Result struct {
	BestPrice   []float64
	BestRevenue float64
	BestGapPct  float64
	ULEvals     int
	LLEvals     int
	Gens        int
	ULCurve     stats.Series
	GapCurve    stats.Series
}

// Run executes CODBA until either budget is exhausted.
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
	if cfg.LLMutationProb == 0 {
		cfg.LLMutationProb = 1 / float64(mk.Bundles())
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
	step := ga.Step{Elites: cfg.Elites, CrossProb: cfg.ULCrossoverProb, SBXEta: cfg.ULSBXEta,
		MutProb: cfg.ULMutationProb, PolyEta: cfg.ULPolyEta}
	m := mk.Bundles()

	pop := make([][]float64, cfg.ULPopSize)
	for i := range pop {
		pop[i] = bounds.RandomVector(r)
	}
	fit := make([]float64, cfg.ULPopSize)
	gaps := make([]float64, cfg.ULPopSize)
	ulArch := archive.New(cfg.ULArchiveSize, false, nil, slices.Clone[[]float64])
	llArch := archive.New(cfg.LLArchiveSize, true, nil, slices.Clone[[]bool])

	res := &Result{}
	ulUsed, llUsed := 0, 0
	llPerCandidate := cfg.SubPopSize * cfg.SubGens
	bestGap := 0.0

	// Per-candidate rng seeds are pre-drawn on the main goroutine so the
	// parallel sub-population solves stay deterministic. Each candidate's
	// LP relaxation starts from the final basis of its nearer parent (nil,
	// a cold solve, in generation 1), so no result depends on Workers.
	starts := make([]*lp.Basis, cfg.ULPopSize)
	preps := make([]*bcpop.Prepared, cfg.ULPopSize)
	for ulUsed+cfg.ULPopSize <= cfg.ULEvalBudget &&
		llUsed+cfg.ULPopSize*llPerCandidate <= cfg.LLEvalBudget {

		seeds := make([]uint64, len(pop))
		for i := range seeds {
			seeds[i] = r.Uint64()
		}
		elite := llArch.Entries()
		llSpent := make([]int, len(pop))
		errs := make([]error, len(pop))
		par.Striped(len(pop), workers, nil, func(i, w int) {
			out, spent, p, err := solveSub(evs[w], pop[i], starts[i], rng.New(seeds[i]), elite, cfg, m)
			errs[i], preps[i] = err, p
			if err != nil {
				return
			}
			llSpent[i] = spent
			if out.Feasible {
				fit[i] = out.Revenue
			} else {
				fit[i] = 0
			}
			gaps[i] = out.GapPct
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("codba: candidate %d: %w", i, err)
			}
		}
		ulUsed += len(pop)
		for _, s := range llSpent {
			llUsed += s
		}

		bestI := 0
		for i := range fit {
			if fit[i] > fit[bestI] {
				bestI = i
			}
		}
		for i, x := range pop {
			if ulArch.Add(x, fit[i]) && i == bestI {
				bestGap = gaps[i]
			}
		}
		res.Gens++
		xAxis := float64(ulUsed + llUsed)
		if be, ok := ulArch.Best(); ok {
			res.ULCurve.X = append(res.ULCurve.X, xAxis)
			res.ULCurve.Y = append(res.ULCurve.Y, be.Fitness)
		}
		res.GapCurve.X = append(res.GapCurve.X, xAxis)
		res.GapCurve.Y = append(res.GapCurve.Y, gaps[bestI])

		// Refresh the elite-basket archive from the generation winner:
		// answer the best candidate's lower level once more, against the
		// relaxation its sub-population already used, and archive the
		// basket the next generation's sub-populations will mate with.
		if llUsed < cfg.LLEvalBudget {
			out, basket, _ := evs[0].EvalSelectionWith(preps[bestI], make([]bool, m))
			llUsed++
			llArch.Add(basket, out.LLCost)
		}

		next, parents := step.Breed(r, pop, func(i, j int) bool { return fit[i] > fit[j] }, bounds)
		for c, pa := range parents {
			starts[c] = preps[pa.Nearest(next[c], pop)].Rx.Basis
		}
		pop = next
	}

	res.ULEvals, res.LLEvals = ulUsed, llUsed
	if be, ok := ulArch.Best(); ok {
		res.BestPrice = be.Item
		res.BestRevenue = be.Fitness
		res.BestGapPct = bestGap
	}
	return res, nil
}

// solveSub evolves one lower-level sub-population for the candidate
// pricing: random baskets seeded with archived elites, two-point
// crossover against the elite pool, bit-swap mutation, early stop when a
// generation brings no improvement. The candidate's LP relaxation is
// solved once, from the basis start, and every basket is paired against
// it. Returns the best paired result, the number of LL evaluations
// consumed and the candidate's prepared context, whose Rx.Basis is the
// relaxation's final basis.
func solveSub(ev *bcpop.Evaluator, price []float64, start *lp.Basis, r *rng.Rand,
	elite []archive.Entry[[]bool], cfg Config, m int) (bcpop.Result, int, *bcpop.Prepared, error) {

	p, err := ev.PrepareFrom(price, start)
	if err != nil {
		return bcpop.Result{}, 0, nil, err
	}

	sub := make([][]bool, cfg.SubPopSize)
	for i := range sub {
		if i < len(elite) {
			sub[i] = append([]bool(nil), elite[i].Item...)
			continue
		}
		y := make([]bool, m)
		for j := range y {
			y[j] = r.Bool(0.5)
		}
		sub[i] = y
	}
	fit := make([]float64, cfg.SubPopSize)
	spent := 0
	var best bcpop.Result
	bestCost := 0.0
	haveBest := false

	evaluate := func() int {
		bestI := 0
		for i, y := range sub {
			out, _, _ := ev.EvalSelectionWith(p, y) // errs only on a nil context
			spent++
			fit[i] = out.LLCost
			if fit[i] < fit[bestI] {
				bestI = i
			}
			if !haveBest || out.LLCost < bestCost {
				best, bestCost, haveBest = out, out.LLCost, true
			}
		}
		return bestI
	}
	evaluate()
	for g := 1; g < cfg.SubGens; g++ {
		prevBest := bestCost
		better := func(i, j int) bool { return fit[i] < fit[j] }
		next := make([][]bool, 0, len(sub))
		// Keep the current best.
		bi := 0
		for i := range fit {
			if fit[i] < fit[bi] {
				bi = i
			}
		}
		next = append(next, append([]bool(nil), sub[bi]...))
		for len(next) < len(sub) {
			p1 := sub[ga.BinaryTournament(r, len(sub), better)]
			// Mate with an archived elite when available (the cited
			// paper's "mate using crossover with the best archived LL
			// solutions"), otherwise within the sub-population.
			var p2 []bool
			if len(elite) > 0 && r.Bool(0.5) {
				p2 = elite[r.Intn(len(elite))].Item
			} else {
				p2 = sub[ga.BinaryTournament(r, len(sub), better)]
			}
			var c1, c2 []bool
			if r.Bool(cfg.LLCrossoverProb) {
				c1, c2 = ga.TwoPointCrossover(r, p1, p2)
			} else {
				c1 = append([]bool(nil), p1...)
				c2 = append([]bool(nil), p2...)
			}
			ga.SwapMutateInPlace(r, c1, cfg.LLMutationProb)
			ga.SwapMutateInPlace(r, c2, cfg.LLMutationProb)
			next = append(next, c1)
			if len(next) < len(sub) {
				next = append(next, c2)
			}
		}
		sub = next
		evaluate()
		if bestCost >= prevBest-1e-9 {
			break // no more improvement at LL
		}
	}
	return best, spent, p, nil
}

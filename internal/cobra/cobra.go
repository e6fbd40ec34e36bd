// Package cobra re-implements COBRA (Legillon, Liefooghe & Talbi,
// CEC 2012), the co-evolutionary baseline the paper compares CARBON
// against, following the paper's Algorithm 1:
//
//	pop ← create_initial_pop()
//	pop_u ← copy_upper(pop);  pop_l ← copy_lower(pop)
//	while stopping criterion is not met:
//	    upper_improvement(pop_u) and lower_improvement(pop_l)
//	    upper_archiving(pop_u)  and lower_archiving(pop_l)
//	    selection(pop_u)        and selection(pop_l)
//	    coevolution(pop_u, pop_l)
//	    adding from upper archive and from lower archive
//	return lower archive
//
// The upper population evolves pricing vectors with the Table II GA
// operators; the lower population evolves raw binary baskets (two-point
// crossover, bit-swap mutation at rate 1/#variables). Each level is
// evaluated against the best-known partner from the other level — the
// nested pairing whose staleness produces the see-saw convergence the
// paper shows in Fig 5. Fitness at the lower level is the raw follower
// cost f (NOT the %-gap): this is exactly the design decision the paper
// criticizes, since f values obtained under different upper-level
// decisions are incomparable. The gap is still computed for reporting.
//
// Documented deviations from the (unpublished) reference code: raw
// binary baskets are repaired to covering feasibility by Chvátal
// completion before costing (Baldwinian repair: the genotype is not
// rewritten), and the improvement phases run a fixed number of
// generations per phase (PhaseGens).
//
// Only the gaps need an LP. The upper level reads revenue alone, so it
// pairs each pricing with the partner basket on the induced instance
// without relaxing it (bcpop.Evaluator.Induce). Every gap — lower-level
// evaluation, co-evolution pairing and the recorded curve — divides by
// the LB of a cold LP solve of its pricing, made once per distinct price
// in each outer iteration and shared through a memo before the workers
// repair against it. A cold solve is a pure function of the price, so
// results do not depend on Workers.
package cobra

import (
	"errors"
	"fmt"
	"slices"

	"carbon/internal/archive"
	"carbon/internal/bcpop"
	"carbon/internal/covering"
	"carbon/internal/ga"
	"carbon/internal/par"
	"carbon/internal/rng"
	"carbon/internal/stats"
)

// Config carries COBRA's Table II column plus the phase-length and
// co-evolution knobs Algorithm 1 leaves open.
type Config struct {
	Seed uint64

	ULPopSize       int     // 100
	ULArchiveSize   int     // 100
	ULEvalBudget    int     // 50000
	ULCrossoverProb float64 // 0.85 (SBX)
	ULMutationProb  float64 // 0.01 (polynomial, per gene)
	ULSBXEta        float64
	ULPolyEta       float64

	LLPopSize       int     // 100
	LLArchiveSize   int     // 100
	LLEvalBudget    int     // 50000
	LLCrossoverProb float64 // 0.85 (two-point)
	LLMutationProb  float64 // per bit; 0 selects 1/#variables (Table II)

	// PhaseGens is the number of generations per improvement phase at
	// each level before control alternates (Algorithm 1 line 5).
	PhaseGens int
	// CoevPairs is how many random cross-population pairs the
	// co-evolution operator evaluates per outer iteration (line 8).
	CoevPairs int
	// ArchiveInject is how many archive members are re-added to each
	// population after co-evolution (line 9).
	ArchiveInject int
	// Elites per generation within an improvement phase.
	Elites int
	// Workers bounds evaluation parallelism (0 = GOMAXPROCS). It
	// changes only the wall time: every Result field is bit-identical
	// for any value.
	Workers int
}

// DefaultConfig returns the paper's Table II parameter column for COBRA.
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
		LLPopSize:       100,
		LLArchiveSize:   100,
		LLEvalBudget:    50000,
		LLCrossoverProb: 0.85,
		LLMutationProb:  0, // auto: 1/#variables
		PhaseGens:       5,
		CoevPairs:       20,
		ArchiveInject:   10,
		Elites:          1,
	}
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	switch {
	case c.ULPopSize < 2 || c.LLPopSize < 2:
		return errors.New("cobra: population sizes must be at least 2")
	case c.ULArchiveSize < 1 || c.LLArchiveSize < 1:
		return errors.New("cobra: archive sizes must be positive")
	case c.ULEvalBudget < c.ULPopSize || c.LLEvalBudget < c.LLPopSize:
		return errors.New("cobra: budgets must cover at least one generation")
	case c.PhaseGens < 1:
		return errors.New("cobra: PhaseGens must be at least 1")
	case c.CoevPairs < 0 || c.ArchiveInject < 0:
		return errors.New("cobra: negative co-evolution knobs")
	case c.Elites < 0 || c.Elites >= c.ULPopSize || c.Elites >= c.LLPopSize:
		return errors.New("cobra: bad elite count")
	}
	return nil
}

// llEntry is one lower-archive member: the basket, the follower cost it
// was archived at, and the gap it had on the instance it was costed on.
type llEntry struct {
	x      []bool
	gapPct float64
}

func (e llEntry) clone() llEntry {
	return llEntry{x: append([]bool(nil), e.x...), gapPct: e.gapPct}
}

// Result summarizes one COBRA run.
type Result struct {
	BestPrice   []float64
	BestRevenue float64
	BestLLCost  float64
	BestGapPct  float64 // gap of the best (lowest-f) lower-archive entry
	MinGapPct   float64 // best gap anywhere in the lower archive
	ULEvals     int
	LLEvals     int
	Gens        int
	ULCurve     stats.Series // x: total evals, y: best F this generation
	GapCurve    stats.Series // x: total evals, y: gap of the current best basket
}

// Run executes COBRA on the market until either budget is exhausted.
// An evaluation or relaxation failure ends the run with its error.
func Run(mk *bcpop.Market, cfg Config) (*Result, error) {
	s, err := newState(mk, cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}

func newState(mk *bcpop.Market, cfg Config) (*state, error) {
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
		evs[i] = ev
	}
	return &state{mk: mk, cfg: cfg, evs: evs, workers: workers, r: rng.New(cfg.Seed), memo: bcpop.NewCache()}, nil
}

type state struct {
	mk      *bcpop.Market
	cfg     Config
	evs     []*bcpop.Evaluator
	workers int
	r       *rng.Rand

	popU [][]float64
	popL [][]bool
	fitU []float64
	fitL []float64
	gapL []float64

	archU *archive.Archive[[]float64]
	archL *archive.Archive[llEntry]

	bestX []float64 // best-known partner for LL evaluations
	bestY []bool    // best-known partner for UL evaluations

	// memo holds the cold relaxation of every price whose gap was read
	// in the current outer iteration (see relax).
	memo *bcpop.Cache

	ulUsed, llUsed int
	res            *Result
}

func (s *state) run() (*Result, error) {
	cfg := s.cfg
	s.initPops()
	for s.ulBudgetLeft(cfg.ULPopSize) && s.llBudgetLeft(cfg.LLPopSize) {
		s.memo.Reset()
		// Line 5: upper improvement then lower improvement.
		for g := 0; g < cfg.PhaseGens && s.ulBudgetLeft(cfg.ULPopSize); g++ {
			if err := s.upperGeneration(); err != nil {
				return nil, err
			}
		}
		for g := 0; g < cfg.PhaseGens && s.llBudgetLeft(cfg.LLPopSize); g++ {
			if err := s.lowerGeneration(); err != nil {
				return nil, err
			}
		}
		// Line 8: co-evolution — random cross pairings.
		if err := s.coevolution(); err != nil {
			return nil, err
		}
		// Line 9: re-inject archive members.
		s.injectFromArchives()
	}

	s.res.ULEvals, s.res.LLEvals = s.ulUsed, s.llUsed
	if be, ok := s.archU.Best(); ok {
		s.res.BestPrice = be.Item
		s.res.BestRevenue = be.Fitness
	}
	if be, ok := s.archL.Best(); ok {
		s.res.BestLLCost = be.Fitness
		s.res.BestGapPct = be.Item.gapPct
	}
	s.res.MinGapPct = s.res.BestGapPct
	for _, e := range s.archL.Entries() {
		if e.Item.gapPct < s.res.MinGapPct {
			s.res.MinGapPct = e.Item.gapPct
		}
	}
	return s.res, nil
}

// initPops creates the initial populations (create_initial_pop,
// copy_upper, copy_lower), the archives and the initial partners.
func (s *state) initPops() {
	cfg := s.cfg
	bounds := s.mk.PriceBounds()
	m := s.mk.Bundles()

	// create_initial_pop + copy_upper/copy_lower.
	s.popU = make([][]float64, cfg.ULPopSize)
	for i := range s.popU {
		s.popU[i] = bounds.RandomVector(s.r)
	}
	s.popL = make([][]bool, cfg.LLPopSize)
	for i := range s.popL {
		y := make([]bool, m)
		for j := range y {
			y[j] = s.r.Bool(0.5)
		}
		s.popL[i] = y
	}
	s.fitU = make([]float64, cfg.ULPopSize)
	s.fitL = make([]float64, cfg.LLPopSize)
	s.gapL = make([]float64, cfg.LLPopSize)
	s.archU = archive.New(cfg.ULArchiveSize, false, nil, slices.Clone[[]float64])
	s.archL = archive.New(cfg.LLArchiveSize, true, nil, llEntry.clone)
	s.res = &Result{}

	// Initial partners: the first individuals of each population.
	s.bestX = append([]float64(nil), s.popU[0]...)
	s.bestY = append([]bool(nil), s.popL[0]...)
}

func (s *state) ulBudgetLeft(n int) bool { return s.ulUsed+n <= s.cfg.ULEvalBudget }
func (s *state) llBudgetLeft(n int) bool { return s.llUsed+n <= s.cfg.LLEvalBudget }

// relax returns the cold LP relaxation of each price, in order. A price
// already in the memo costs nothing; the distinct new ones are solved
// before any worker repairs against them, one stripe per evaluator, each
// cold. A relaxation is therefore a pure function of its price: neither
// Workers nor the memo's lifetime changes a bit of it.
func (s *state) relax(prices ...[]float64) ([]*bcpop.Prepared, error) {
	slots := make([]int, len(prices))
	var fresh []int
	for i, p := range prices {
		slot, isNew := s.memo.Slot(p)
		slots[i] = slot
		if isNew {
			fresh = append(fresh, i)
		}
	}
	err := evalStriped(len(fresh), s.workers, func(i, w int) error {
		p, err := s.evs[w].Prepare(prices[fresh[i]])
		if err != nil {
			return err
		}
		s.memo.Fill(slots[fresh[i]], p)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cobra: relaxation: %w", err)
	}
	out := make([]*bcpop.Prepared, len(prices))
	for i, slot := range slots {
		out[i] = s.memo.At(slot)
	}
	return out, nil
}

// evalUpper scores every upper individual against the frozen best
// basket. Revenue needs only the induced costs, so no LP is solved.
func (s *state) evalUpper() error {
	partner := s.bestY
	err := evalStriped(len(s.popU), s.workers, func(i, w int) error {
		ev := s.evs[w]
		p, err := ev.Induce(s.popU[i])
		if err != nil {
			return err
		}
		out, _, err := ev.EvalSelectionWith(p, partner)
		s.fitU[i] = out.Revenue
		return err
	})
	if err != nil {
		return fmt.Errorf("cobra: upper evaluation: %w", err)
	}
	s.ulUsed += len(s.popU)
	return nil
}

// evalLower scores every lower individual against the frozen best
// pricing. Fitness is the repaired follower cost f — deliberately NOT
// the gap (see the package comment).
func (s *state) evalLower() error {
	ctx, err := s.relax(s.bestX)
	if err != nil {
		return err
	}
	err = evalStriped(len(s.popL), s.workers, func(i, w int) error {
		out, _, err := s.evs[w].EvalSelectionWith(ctx[0], s.popL[i])
		s.fitL[i] = out.LLCost
		s.gapL[i] = out.GapPct
		return err
	})
	if err != nil {
		return fmt.Errorf("cobra: lower evaluation: %w", err)
	}
	s.llUsed += len(s.popL)
	return nil
}

func (s *state) upperGeneration() error {
	cfg := s.cfg
	if err := s.evalUpper(); err != nil {
		return err
	}
	bestI := 0
	for i := range s.fitU {
		if s.fitU[i] > s.fitU[bestI] {
			bestI = i
		}
	}
	s.bestX = append(s.bestX[:0], s.popU[bestI]...)
	for i, x := range s.popU {
		s.archU.Add(x, s.fitU[i])
	}
	if err := s.record(); err != nil {
		return err
	}
	step := ga.Step{Elites: cfg.Elites, CrossProb: cfg.ULCrossoverProb, SBXEta: cfg.ULSBXEta,
		MutProb: cfg.ULMutationProb, PolyEta: cfg.ULPolyEta}
	s.popU, _ = step.Breed(s.r, s.popU, func(i, j int) bool { return s.fitU[i] > s.fitU[j] }, s.mk.PriceBounds())
	s.res.Gens++
	return nil
}

func (s *state) lowerGeneration() error {
	cfg := s.cfg
	if err := s.evalLower(); err != nil {
		return err
	}
	bestI := 0
	for i := range s.fitL {
		if s.fitL[i] < s.fitL[bestI] {
			bestI = i
		}
	}
	s.bestY = append(s.bestY[:0], s.popL[bestI]...)
	for i, y := range s.popL {
		s.archL.Add(llEntry{x: y, gapPct: s.gapL[i]}, s.fitL[i])
	}
	if err := s.record(); err != nil {
		return err
	}
	s.popL = breedLower(s.r, s.popL, s.fitL, cfg)
	s.res.Gens++
	return nil
}

// coevolution evaluates random cross pairings (x_i, y_j) of the two
// populations and archives what it finds — the "random co-evolutionary
// operator" of [32].
func (s *state) coevolution() error {
	cfg := s.cfg
	type pair struct{ u, l int }
	pairs := make([]pair, 0, cfg.CoevPairs)
	for k := 0; k < cfg.CoevPairs; k++ {
		if !s.ulBudgetLeft(len(pairs)+1) || !s.llBudgetLeft(len(pairs)+1) {
			break
		}
		pairs = append(pairs, pair{s.r.Intn(len(s.popU)), s.r.Intn(len(s.popL))})
	}
	if len(pairs) == 0 {
		return nil
	}
	prices := make([][]float64, len(pairs))
	for i, p := range pairs {
		prices[i] = s.popU[p.u]
	}
	ctx, err := s.relax(prices...)
	if err != nil {
		return err
	}
	outs := make([]bcpop.Result, len(pairs))
	err = evalStriped(len(pairs), s.workers, func(i, w int) error {
		var err error
		outs[i], _, err = s.evs[w].EvalSelectionWith(ctx[i], s.popL[pairs[i].l])
		return err
	})
	if err != nil {
		return fmt.Errorf("cobra: coevolution: %w", err)
	}
	s.ulUsed += len(pairs)
	s.llUsed += len(pairs)
	for i, p := range pairs {
		s.archU.Add(s.popU[p.u], outs[i].Revenue)
		s.archL.Add(llEntry{x: s.popL[p.l], gapPct: outs[i].GapPct}, outs[i].LLCost)
		if outs[i].Revenue > s.bestRevenueSoFar() {
			s.bestX = append(s.bestX[:0], s.popU[p.u]...)
		}
	}
	return nil
}

func (s *state) bestRevenueSoFar() float64 {
	if be, ok := s.archU.Best(); ok {
		return be.Fitness
	}
	return -1
}

// injectFromArchives overwrites the worst members of each population
// with the top archive entries (Algorithm 1 line 9).
func (s *state) injectFromArchives() {
	k := s.cfg.ArchiveInject
	for i := 0; i < k && i < s.archU.Len(); i++ {
		worst := worstIndex(s.fitU, true)
		s.popU[worst] = append([]float64(nil), s.archU.At(i).Item...)
		s.fitU[worst] = s.archU.At(i).Fitness
	}
	for i := 0; i < k && i < s.archL.Len(); i++ {
		worst := worstIndex(s.fitL, false)
		s.popL[worst] = append([]bool(nil), s.archL.At(i).Item.x...)
		s.fitL[worst] = s.archL.At(i).Fitness
	}
}

// worstIndex finds the worst member (maximize=true means fitness is
// maximized, so worst is the minimum).
func worstIndex(fit []float64, maximize bool) int {
	w := 0
	for i := range fit {
		if maximize && fit[i] < fit[w] || !maximize && fit[i] > fit[w] {
			w = i
		}
	}
	return w
}

// record appends the per-generation curves: the best revenue observed in
// the current upper population and the gap of the current best basket
// re-measured against the current best pricing. The re-measurement is
// charged to the LL budget (1 evaluation) to keep accounting honest.
func (s *state) record() error {
	x := float64(s.ulUsed + s.llUsed)
	bestF := s.fitU[0]
	for _, f := range s.fitU {
		if f > bestF {
			bestF = f
		}
	}
	s.res.ULCurve.X = append(s.res.ULCurve.X, x)
	s.res.ULCurve.Y = append(s.res.ULCurve.Y, bestF)

	if !s.llBudgetLeft(1) {
		return nil
	}
	ctx, err := s.relax(s.bestX)
	if err != nil {
		return err
	}
	out, _, err := s.evs[0].EvalSelectionWith(ctx[0], s.bestY)
	if err != nil {
		return fmt.Errorf("cobra: gap record: %w", err)
	}
	s.llUsed++
	s.res.GapCurve.X = append(s.res.GapCurve.X, x)
	s.res.GapCurve.Y = append(s.res.GapCurve.Y, out.GapPct)
	return nil
}

func breedLower(r *rng.Rand, pop [][]bool, fit []float64, cfg Config) [][]bool {
	better := func(i, j int) bool { return fit[i] < fit[j] }
	next := make([][]bool, 0, len(pop))
	for _, e := range ga.TopK(len(pop), cfg.Elites, better) {
		next = append(next, append([]bool(nil), pop[e]...))
	}
	for len(next) < len(pop) {
		p1 := pop[ga.BinaryTournament(r, len(pop), better)]
		p2 := pop[ga.BinaryTournament(r, len(pop), better)]
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
		if len(next) < len(pop) {
			next = append(next, c2)
		}
	}
	return next
}

// evalStriped is par.Striped for fallible work: a stripe stops at its
// first error, and the error of the lowest failing index is returned.
func evalStriped(n, workers int, fn func(i, worker int) error) error {
	errs := make([]error, n)
	failed := make([]bool, workers)
	par.Striped(n, workers, nil, func(i, w int) {
		if !failed[w] {
			errs[i] = fn(i, w)
			failed[w] = errs[i] != nil
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Package multilevel prototypes the paper's stated future work:
// "multiple-level problems with deeper nested structure in order to
// analyze the limitations of CARBON in terms of co-evolution."
//
// The model is a pricing chain over one covering market:
//
//	leader:      prices its bundles first
//	middles 1…D: each observes everything upstream and prices its own
//	             bundles in turn
//	customer:    buys the cheapest basket covering all service
//	             requirements from the full market (the leader's, the
//	             middles' and the competitors' bundles)
//
// D = 1 is the tri-level pricing problem (TLPOP: CSP-A → CSP-B →
// customer); D = 0 is the paper's BCPOP. CARBON's decoupling trick is
// applied at every reactive level. The customer keeps the paper's GP
// *scoring heuristics* scored by the Eq. 1 %-gap. A middle level cannot
// be a population of price vectors (each upstream decision induces a
// different instance — the same epistasis one level up), so it becomes
// a population of GP *pricing policies*: trees mapping per-bundle
// features to a price, applicable to any induced instance. 2 + D
// populations co-evolve:
//
//	leader:   price vectors (ga.Step, Table II), fitness = leader
//	          revenue under the best policies and the best heuristic;
//	middles:  pricing policies (gp.Step), fitness = mean revenue of
//	          that middle across a fresh sample of leader decisions;
//	customer: scoring heuristics (gp.Step), fitness = mean %-gap across
//	          the same sample.
//
// The known limitation this prototype makes measurable: a middle
// level's fitness has no per-instance normalizer as good as the LP
// bound (revenue upper bounds are loose), so its selection is noisier
// than the customer's — exactly the "limitation in terms of
// co-evolution" the paper wants analyzed. See the package tests and
// BenchmarkTriLevel.
package multilevel

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"carbon/internal/archive"
	"carbon/internal/covering"
	"carbon/internal/ga"
	"carbon/internal/gp"
	"carbon/internal/orlib"
	"carbon/internal/rng"
	"carbon/internal/stats"
)

// feature is the policy environment for one middle-level bundle, layout
// PolicyTerms.
type feature [5]float64

// PolicyTerms names the middle-level policy terminal set, in env order:
// the bundle's template cost, its mean coverage per service, the mean
// service requirement, the mean competitor price, and the mean of all
// upstream prices (the only context-dependent slot).
var PolicyTerms = []string{"c0", "qbar", "bbar", "cbar", "abar"}

// PolicySet returns the GP primitive set for pricing policies: Table I
// operators over PolicyTerms, with ERCs enabled so policies can express
// absolute price levels.
func PolicySet() *gp.Set {
	return &gp.Set{
		Ops:       gp.TableIOps(),
		Terms:     append([]string(nil), PolicyTerms...),
		ConstProb: 0.2, ConstMin: 0, ConstMax: 2,
	}
}

// ChainMarket is a pricing chain over one covering template: the
// leader owns the first group of bundles, then D middle players price
// their groups in sequence (each observing everything upstream), and a
// rational customer covers from the whole market. The columns after the
// last group are fixed-price competitors.
//
// Each middle player's reaction is a GP pricing policy over per-bundle
// features (PolicyTerms); the "abar" slot carries the mean of all
// *upstream* prices (leader plus earlier middles), so deeper levels see
// the accumulated pricing climate they react to.
type ChainMarket struct {
	template *covering.Instance
	groups   []int // groups[0] = leader bundles, groups[1..] = middles
	offsets  []int // column offset of each group
	boundsA  ga.Bounds
	capB     float64
	feat     [][]feature // per middle level, per bundle in that group
}

// NewChainMarket slices the instance into leader, D middle groups and
// competitors. groups must leave at least one competitor column.
func NewChainMarket(in *covering.Instance, groups []int) (*ChainMarket, error) {
	if in == nil {
		return nil, errors.New("multilevel: nil instance")
	}
	if len(groups) < 1 {
		return nil, errors.New("multilevel: need at least the leader group")
	}
	total := 0
	for i, g := range groups {
		if g <= 0 {
			return nil, fmt.Errorf("multilevel: group %d has size %d", i, g)
		}
		total += g
	}
	if total >= in.M() {
		return nil, fmt.Errorf("multilevel: groups cover %d of %d columns; no competitors left", total, in.M())
	}
	if !in.FullSelectionFeasible() {
		return nil, errors.New("multilevel: market cannot cover the requirements")
	}
	meanComp := 0.0
	for j := total; j < in.M(); j++ {
		meanComp += in.C[j]
	}
	meanComp /= float64(in.M() - total)
	meanReq := 0.0
	for _, b := range in.B {
		meanReq += b
	}
	meanReq /= float64(in.N())

	cm := &ChainMarket{
		template: in,
		groups:   append([]int(nil), groups...),
		capB:     2 * meanComp,
	}
	cm.offsets = make([]int, len(groups))
	off := 0
	for i, g := range groups {
		cm.offsets[i] = off
		off += g
	}
	lo := make([]float64, groups[0])
	up := make([]float64, groups[0])
	for j := range up {
		up[j] = cm.capB
	}
	cm.boundsA = ga.Bounds{Lo: lo, Up: up}

	cm.feat = make([][]feature, len(groups)-1)
	for lvl := 1; lvl < len(groups); lvl++ {
		fs := make([]feature, groups[lvl])
		for j := 0; j < groups[lvl]; j++ {
			col := in.Cols[cm.offsets[lvl]+j]
			qbar := 0.0
			for _, v := range col {
				qbar += v
			}
			qbar /= float64(in.N())
			fs[j] = feature{in.C[cm.offsets[lvl]+j], qbar, meanReq, meanComp, 0}
		}
		cm.feat[lvl-1] = fs
	}
	return cm, nil
}

// NewChainMarketFromClass builds the depth-D chain on an instance of a
// paper class: the leader and each middle player own N/10 bundles (at
// least one). Depth 1 is the tri-level market.
func NewChainMarketFromClass(cl orlib.Class, index, depth int) (*ChainMarket, error) {
	in, err := orlib.GenerateCovering(cl, index)
	if err != nil {
		return nil, err
	}
	if depth < 0 || depth >= in.M() {
		return nil, fmt.Errorf("multilevel: depth %d outside [0, %d)", depth, in.M())
	}
	groups := make([]int, depth+1)
	for i := range groups {
		groups[i] = max(1, cl.N/10)
	}
	return NewChainMarket(in, groups)
}

// Depth returns the number of middle levels D.
func (cm *ChainMarket) Depth() int { return len(cm.groups) - 1 }

// LeaderSize returns the leader's price-vector length.
func (cm *ChainMarket) LeaderSize() int { return cm.groups[0] }

// BoundsA returns the leader's price box.
func (cm *ChainMarket) BoundsA() ga.Bounds { return cm.boundsA }

// ChainOutcome is one full chain evaluation: the customer data plus one
// revenue per player (index 0 = leader, 1..D = middles).
type ChainOutcome struct {
	Revenues []float64
	LLCost   float64
	GapPct   float64
	Feasible bool
}

// ChainEvaluator runs full chain evaluations against one market. It
// owns the customer scorer's compiled program, VM and greedy scratch,
// so it is not safe for concurrent use.
type ChainEvaluator struct {
	cm        *ChainMarket
	relaxer   *covering.Relaxer
	policySet *gp.Set
	custSet   *gp.Set
	costs     []float64
	scores    []float64
	prog      gp.Program
	vm        *gp.VM
	greedy    covering.GreedyScratch
	// Evals counts bottom-level evaluations (the chain's unit of work).
	Evals int
}

// NewChainEvaluator prepares an evaluator with the default sets.
func NewChainEvaluator(cm *ChainMarket) (*ChainEvaluator, error) {
	relaxer, err := covering.NewRelaxer(cm.template)
	if err != nil {
		return nil, err
	}
	return &ChainEvaluator{
		cm:        cm,
		relaxer:   relaxer,
		policySet: PolicySet(),
		custSet:   covering.TableISet(),
		costs:     make([]float64, cm.template.M()),
		scores:    make([]float64, cm.template.M()),
		vm:        gp.NewVM(),
	}, nil
}

// Eval cascades the chain: leader prices, then each middle policy in
// order (seeing the mean of all upstream prices), then the customer's
// tree-driven greedy.
func (ce *ChainEvaluator) Eval(priceA []float64, policies []gp.Tree, cust gp.Tree) (ChainOutcome, error) {
	cm := ce.cm
	if len(priceA) != cm.groups[0] {
		return ChainOutcome{}, fmt.Errorf("multilevel: got %d leader prices, want %d", len(priceA), cm.groups[0])
	}
	if len(policies) != cm.Depth() {
		return ChainOutcome{}, fmt.Errorf("multilevel: got %d policies, want %d", len(policies), cm.Depth())
	}
	copy(ce.costs[:cm.groups[0]], priceA)
	upstreamSum := 0.0
	for _, p := range priceA {
		upstreamSum += p
	}
	upstreamN := len(priceA)
	var env [5]float64
	for lvl := 1; lvl <= cm.Depth(); lvl++ {
		abar := upstreamSum / float64(upstreamN)
		off := cm.offsets[lvl]
		for j := 0; j < cm.groups[lvl]; j++ {
			env = cm.feat[lvl-1][j]
			env[4] = abar
			v := math.Abs(policies[lvl-1].Eval(ce.policySet, env[:]))
			if v > cm.capB {
				v = cm.capB
			}
			ce.costs[off+j] = v
			upstreamSum += v
			upstreamN++
		}
	}
	total := cm.offsets[cm.Depth()] + cm.groups[cm.Depth()]
	copy(ce.costs[total:], cm.template.C[total:])

	rx, err := ce.relaxer.Relax(ce.costs)
	if err != nil {
		return ChainOutcome{}, err
	}
	work, err := cm.template.WithCosts(ce.costs)
	if err != nil {
		return ChainOutcome{}, err
	}
	if err := ce.prog.Compile(ce.custSet, cust); err != nil {
		return ChainOutcome{}, err
	}
	covering.ScoreProgramInto(work, rx, ce.vm, &ce.prog, ce.scores)
	res := work.GreedyByScoreInto(ce.scores, true, &ce.greedy)
	ce.Evals++

	out := ChainOutcome{
		Revenues: make([]float64, len(cm.groups)),
		LLCost:   res.Cost,
		Feasible: res.Feasible,
	}
	if !res.Feasible {
		out.GapPct = covering.Gap(res.Cost+1e9, rx.LB)
		return out, nil
	}
	out.GapPct = covering.Gap(res.Cost, rx.LB)
	for lvl := 0; lvl < len(cm.groups); lvl++ {
		off := cm.offsets[lvl]
		for j := 0; j < cm.groups[lvl]; j++ {
			if res.X[off+j] {
				out.Revenues[lvl] += ce.costs[off+j]
			}
		}
	}
	return out, nil
}

// Config parameterizes the chain co-evolution. All populations share a
// size; GP operators reuse Table II's probabilities.
type Config struct {
	Seed      uint64
	PopSize   int
	Budget    int // bottom-level evaluations (the chain's unit of work)
	Sample    int // leader decisions sampled per policy/heuristic evaluation
	Elites    int
	Limits    gp.Limits
	InitDepth int
	TournK    int
	CrossProb float64
	MutProb   float64
	ReproProb float64
	SBXEta    float64
	PolyEta   float64
	ULMutProb float64
}

// DefaultConfig returns Table II-aligned parameters at prototype scale.
func DefaultConfig() Config {
	return Config{
		Seed:      1,
		PopSize:   24,
		Budget:    6000,
		Sample:    2,
		Elites:    1,
		Limits:    gp.DefaultLimits(),
		InitDepth: 4,
		TournK:    3,
		CrossProb: 0.85,
		MutProb:   0.10,
		ReproProb: 0.05,
		SBXEta:    15,
		PolyEta:   20,
		ULMutProb: 0.05,
	}
}

// genCost is what one generation of a depth-D chain spends: the
// customer and each of the D policy populations score every member on
// Sample leader decisions, then every leader is evaluated once.
func (c *Config) genCost(depth int) int { return c.PopSize * ((depth+1)*c.Sample + 1) }

// Validate rejects configurations unusable on a chain with depth middle
// levels, including a budget below one generation.
func (c *Config) Validate(depth int) error {
	switch {
	case c.PopSize < 2:
		return errors.New("multilevel: PopSize must be at least 2")
	case c.Sample < 1:
		return errors.New("multilevel: Sample must be at least 1")
	case c.Budget < c.genCost(depth):
		return fmt.Errorf("multilevel: budget %d below one depth-%d generation (%d evaluations)", c.Budget, depth, c.genCost(depth))
	case c.Elites < 0 || c.Elites >= c.PopSize:
		return errors.New("multilevel: bad elite count")
	case c.CrossProb+c.MutProb+c.ReproProb > 1+1e-9:
		return errors.New("multilevel: GP probabilities exceed 1")
	}
	return nil
}

// ChainResult summarizes one chain co-evolution run.
type ChainResult struct {
	BestPriceA   []float64
	BestRevenues []float64 // revenue per level under the final elites
	BestGapPct   float64
	BestPolicies []string
	BestCust     string
	Gens         int
	Evals        int
	GapCurve     stats.Series
	LeaderCurve  stats.Series
}

// RunChain co-evolves 2+D populations: the leader's prices, one policy
// population per middle level, and the customer heuristics. Per
// generation every reactive population is scored against a fresh sample
// of leader decisions with the other levels pinned to their current
// elites, level by level, deepest first so forecasts improve bottom-up
// within a generation. The leader breeds with ga.Step, every reactive
// population with gp.Step.
func RunChain(cm *ChainMarket, cfg Config) (*ChainResult, error) {
	d := cm.Depth()
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	ce, err := NewChainEvaluator(cm)
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	bounds := cm.BoundsA()
	leader := ga.Step{Elites: cfg.Elites, CrossProb: cfg.CrossProb, SBXEta: cfg.SBXEta,
		MutProb: cfg.ULMutProb, PolyEta: cfg.PolyEta}
	react := gp.Step{Elites: cfg.Elites, CrossProb: cfg.CrossProb, MutProb: cfg.MutProb,
		TournK: cfg.TournK, GrowDepth: 3, Limits: cfg.Limits}

	popA := make([][]float64, cfg.PopSize)
	for i := range popA {
		popA[i] = bounds.RandomVector(r)
	}
	popP := make([][]gp.Tree, d)
	bestP := make([]gp.Tree, d)
	for lvl := 0; lvl < d; lvl++ {
		popP[lvl] = make([]gp.Tree, cfg.PopSize)
		for i := range popP[lvl] {
			popP[lvl][i] = ce.policySet.Ramped(r, 1, cfg.InitDepth)
		}
		bestP[lvl] = popP[lvl][0].Clone()
	}
	popC := make([]gp.Tree, cfg.PopSize)
	for i := range popC {
		popC[i] = ce.custSet.Ramped(r, 1, cfg.InitDepth)
	}
	bestC := popC[0].Clone()

	fit := make([]float64, cfg.PopSize)
	lower := func(i, j int) bool { return fit[i] < fit[j] }
	higher := func(i, j int) bool { return fit[i] > fit[j] }
	archA := archive.New(cfg.PopSize, false, nil, slices.Clone[[]float64])
	res := &ChainResult{BestRevenues: make([]float64, d+1)}
	bestGapSeen := math.Inf(1)

	for ce.Evals+cfg.genCost(d) <= cfg.Budget {
		sample := r.SampleDistinct(min(cfg.Sample, len(popA)), len(popA))

		// Customer heuristics first (deepest level).
		for i, tr := range popC {
			total := 0.0
			for _, s := range sample {
				out, err := ce.Eval(popA[s], bestP, tr)
				if err != nil {
					return nil, err
				}
				total += out.GapPct
			}
			fit[i] = total / float64(len(sample))
		}
		bc := ga.TopK(len(fit), 1, lower)[0]
		bestC = popC[bc].Clone()
		if fit[bc] < bestGapSeen {
			bestGapSeen = fit[bc]
		}
		popC, _ = react.Breed(r, ce.custSet, popC, lower)

		// Middle policies, deepest first.
		for lvl := d - 1; lvl >= 0; lvl-- {
			for i, tr := range popP[lvl] {
				cand := append([]gp.Tree(nil), bestP...)
				cand[lvl] = tr
				total := 0.0
				for _, s := range sample {
					out, err := ce.Eval(popA[s], cand, bestC)
					if err != nil {
						return nil, err
					}
					total += out.Revenues[lvl+1]
				}
				fit[i] = total / float64(len(sample))
			}
			bestP[lvl] = popP[lvl][ga.TopK(len(fit), 1, higher)[0]].Clone()
			popP[lvl], _ = react.Breed(r, ce.policySet, popP[lvl], higher)
		}

		// Leader.
		for i, x := range popA {
			out, err := ce.Eval(x, bestP, bestC)
			if err != nil {
				return nil, err
			}
			if out.Feasible {
				fit[i] = out.Revenues[0]
			} else {
				fit[i] = 0
			}
		}
		for i, x := range popA {
			archA.Add(x, fit[i])
		}
		popA, _ = leader.Breed(r, popA, higher, bounds)

		res.Gens++
		xAxis := float64(ce.Evals)
		if be, ok := archA.Best(); ok {
			res.LeaderCurve.X = append(res.LeaderCurve.X, xAxis)
			res.LeaderCurve.Y = append(res.LeaderCurve.Y, be.Fitness)
		}
		res.GapCurve.X = append(res.GapCurve.X, xAxis)
		res.GapCurve.Y = append(res.GapCurve.Y, bestGapSeen)
	}

	res.Evals = ce.Evals
	res.BestGapPct = bestGapSeen
	if be, ok := archA.Best(); ok {
		res.BestPriceA = be.Item
		out, err := ce.Eval(be.Item, bestP, bestC)
		if err != nil {
			return nil, err
		}
		copy(res.BestRevenues, out.Revenues)
	}
	for _, p := range bestP {
		res.BestPolicies = append(res.BestPolicies, gp.Simplify(ce.policySet, p).String(ce.policySet))
	}
	res.BestCust = gp.Simplify(ce.custSet, bestC).String(ce.custSet)
	return res, nil
}

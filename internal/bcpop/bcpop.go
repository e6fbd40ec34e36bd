// Package bcpop models the Bi-level Cloud Pricing Optimization Problem
// (Program 2 in the paper):
//
//	max  F = Σ_{j≤L} cⱼ·xⱼ          (leader: revenue on its own bundles)
//	s.t. min f = Σ_{j≤M} cⱼ·xⱼ      (follower: cheapest covering basket)
//	     s.t. Σⱼ qⱼᵏ·xⱼ ≥ bᵏ  ∀k
//	          cⱼ ≥ 0 for j ≤ L,  xⱼ ∈ {0,1}
//
// A Market fixes the covering matrix Q, the requirements b and the
// competitors' bundle prices; the leader's decision vector re-prices the
// first L bundles. Every pricing decision therefore *induces* a fresh
// lower-level covering instance — the epistatic coupling the paper's
// co-evolution must cope with.
//
// The Evaluator bundles the LP relaxer, the GP scorer and the greedy
// into the single operation both CARBON and COBRA account as one
// fitness evaluation: pair an upper-level pricing with a lower-level
// answer (a generated heuristic's basket, or a raw binary vector) and
// report leader revenue F, follower cost f, the LP bound LB(x) and the
// paper's Eq. 1 %-gap.
package bcpop

import (
	"errors"
	"fmt"
	"math"
	"time"

	"carbon/internal/covering"
	"carbon/internal/ga"
	"carbon/internal/gp"
	"carbon/internal/orlib"
	"carbon/internal/rng"
	"carbon/internal/telemetry"
)

// Market is a BCPOP instance: a covering template in which some columns
// are leader-owned and re-priced by the decision vector. The template's
// costs give the competitors' (fixed) prices; leader entries of the
// template cost vector only serve as the anchor for price bounds.
//
// priceMap generalizes "the first L columns are the leader's": column c
// is priced by decision gene priceMap[c] (−1 marks competitor columns).
// The single-customer market of Program 2 maps columns 0..L−1 to genes
// 0..L−1; the multi-customer extension maps each customer's copy of
// leader bundle j to the same gene j, so one price is quoted to every
// customer and revenue counts every purchase.
type Market struct {
	template  *covering.Instance
	L         int       // number of price genes
	priceMap  []int     // per column: price gene or -1
	customers int       // block count (1 for the paper's single-CSC model)
	bounds    ga.Bounds // leader price bounds, length L
}

// PriceCapFactor scales the upper bound of leader prices: each leader
// bundle may be priced up to PriceCapFactor times the mean competitor
// price. Prices far above every alternative are never bought, so the
// cap keeps the search space meaningful without cutting off the optimum.
const PriceCapFactor = 2.0

// LeaderShare is the fraction of market bundles owned by the leader
// (L = max(1, N·LeaderShare)); the paper does not state L, see DESIGN.md.
const LeaderShare = 0.10

// NewMarket wraps a covering instance as a single-customer BCPOP market
// whose first leaderBundles columns are the leader's (Program 2).
func NewMarket(in *covering.Instance, leaderBundles int) (*Market, error) {
	if in == nil {
		return nil, errors.New("bcpop: nil instance")
	}
	if leaderBundles <= 0 || leaderBundles >= in.M() {
		return nil, fmt.Errorf("bcpop: leader bundles %d outside (0,%d)", leaderBundles, in.M())
	}
	priceMap := make([]int, in.M())
	for c := range priceMap {
		if c < leaderBundles {
			priceMap[c] = c
		} else {
			priceMap[c] = -1
		}
	}
	return newMarket(in, leaderBundles, priceMap, 1)
}

// newMarket finishes construction: feasibility check and price bounds
// anchored at the mean competitor price.
func newMarket(in *covering.Instance, nPrices int, priceMap []int, customers int) (*Market, error) {
	if !in.FullSelectionFeasible() {
		return nil, errors.New("bcpop: market cannot cover the requirements")
	}
	mean, n := 0.0, 0
	for c, g := range priceMap {
		if g < 0 {
			mean += in.C[c]
			n++
		}
	}
	if n == 0 {
		return nil, errors.New("bcpop: no competitor bundles to anchor price bounds")
	}
	mean /= float64(n)
	lo := make([]float64, nPrices)
	up := make([]float64, nPrices)
	for j := range up {
		up[j] = PriceCapFactor * mean
	}
	return &Market{
		template:  in,
		L:         nPrices,
		priceMap:  priceMap,
		customers: customers,
		bounds:    ga.Bounds{Lo: lo, Up: up},
	}, nil
}

// NewMultiMarket builds the multi-customer extension of Program 2
// (lifting the paper's "for the sake of simplicity, we will consider a
// single rational CSC"): `customers` independent rational CSCs share the
// same market and see the same leader prices, but each has its own
// requirement vector — the base requirements perturbed per-entry by a
// uniform factor in [1−variation, 1+variation], clamped to keep every
// customer's block coverable.
//
// The combined lower level is one block-diagonal covering instance:
// customer i owns columns [i·M, (i+1)·M) and rows [i·N, (i+1)·N). A
// leader bundle bought by several customers earns its price once per
// purchase.
func NewMultiMarket(in *covering.Instance, leaderBundles, customers int, variation float64, seed uint64) (*Market, error) {
	if in == nil {
		return nil, errors.New("bcpop: nil instance")
	}
	if leaderBundles <= 0 || leaderBundles >= in.M() {
		return nil, fmt.Errorf("bcpop: leader bundles %d outside (0,%d)", leaderBundles, in.M())
	}
	if customers < 1 {
		return nil, fmt.Errorf("bcpop: %d customers", customers)
	}
	if variation < 0 || variation >= 1 {
		return nil, fmt.Errorf("bcpop: variation %v outside [0,1)", variation)
	}
	m, n := in.M(), in.N()
	r := rng.New(seed)

	cTot := make([]float64, customers*m)
	qTot := make([][]float64, customers*n)
	bTot := make([]float64, customers*n)
	priceMap := make([]int, customers*m)
	for i := 0; i < customers; i++ {
		copy(cTot[i*m:(i+1)*m], in.C)
		for j := 0; j < m; j++ {
			if j < leaderBundles {
				priceMap[i*m+j] = j
			} else {
				priceMap[i*m+j] = -1
			}
		}
		for k := 0; k < n; k++ {
			row := make([]float64, customers*m)
			copy(row[i*m:(i+1)*m], in.Q[k])
			qTot[i*n+k] = row
			rowSum := 0.0
			for _, v := range in.Q[k] {
				rowSum += v
			}
			b := in.B[k] * r.Range(1-variation, 1+variation)
			if b < 1 {
				b = 1
			}
			if b > rowSum {
				b = rowSum // keep the block coverable
			}
			bTot[i*n+k] = b
		}
	}
	block, err := covering.New(cTot, qTot, bTot)
	if err != nil {
		return nil, err
	}
	return newMarket(block, leaderBundles, priceMap, customers)
}

// NewMarketFromClass generates the market for one of the paper's nine
// classes: the class instance with L = N·LeaderShare leader bundles.
func NewMarketFromClass(cl orlib.Class, index int) (*Market, error) {
	in, err := orlib.GenerateCovering(cl, index)
	if err != nil {
		return nil, err
	}
	l := int(float64(cl.N) * LeaderShare)
	if l < 1 {
		l = 1
	}
	return NewMarket(in, l)
}

// Leaders returns L, the length of the leader's price vector.
func (mk *Market) Leaders() int { return mk.L }

// Customers returns the number of independent follower blocks (1 for
// the paper's single-CSC model).
func (mk *Market) Customers() int { return mk.customers }

// Bundles returns M, the total number of bundles on the market.
func (mk *Market) Bundles() int { return mk.template.M() }

// Services returns N, the number of service requirements.
func (mk *Market) Services() int { return mk.template.N() }

// PriceBounds returns the box constraints of the leader's price vector.
func (mk *Market) PriceBounds() ga.Bounds { return mk.bounds }

// Template exposes the underlying covering instance (competitor costs in
// C[L:], leader placeholders in C[:L]).
func (mk *Market) Template() *covering.Instance { return mk.template }

// Costs writes the full lower-level cost vector for a pricing decision
// into dst (allocating when dst is short) and returns it.
func (mk *Market) Costs(price []float64, dst []float64) ([]float64, error) {
	if len(price) != mk.L {
		return nil, fmt.Errorf("bcpop: got %d prices, want %d", len(price), mk.L)
	}
	m := mk.template.M()
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	for c, g := range mk.priceMap {
		if g >= 0 {
			dst[c] = price[g]
		} else {
			dst[c] = mk.template.C[c]
		}
	}
	return dst, nil
}

// Induced returns the lower-level covering instance for a pricing
// decision (a fresh cost vector sharing the market matrix).
func (mk *Market) Induced(price []float64) (*covering.Instance, error) {
	costs, err := mk.Costs(price, nil)
	if err != nil {
		return nil, err
	}
	return mk.template.WithCosts(costs)
}

// Revenue computes the leader objective F: the priced value of leader
// bundles inside the follower basket(s). With multiple customers a
// bundle earns its price once per purchasing customer.
func (mk *Market) Revenue(price []float64, x []bool) float64 {
	f := 0.0
	for c, g := range mk.priceMap {
		if g >= 0 && x[c] {
			f += price[g]
		}
	}
	return f
}

// Result is one paired bi-level evaluation.
type Result struct {
	Revenue  float64 // F(x,y): leader revenue under the follower basket
	LLCost   float64 // f(x,y): follower total cost
	LB       float64 // LB(x): LP-relaxation lower bound of the induced LL (NaN if unrelaxed)
	GapPct   float64 // Eq. 1: 100·(f−LB)/LB (NaN if unrelaxed)
	Feasible bool    // the follower answer covers all requirements
}

// EvalMetrics aggregates evaluator hot-path telemetry. All fields are
// atomic, so one EvalMetrics is deliberately shared by every per-worker
// evaluator of a run — the counters report whole-run totals. A nil
// *EvalMetrics disables instrumentation (no clock reads on the hot
// path).
type EvalMetrics struct {
	TreeEvals   *telemetry.Counter   // paired evaluations of a GP heuristic (scores + greedy)
	GraspEvals  *telemetry.Counter   // GRASP starts charged as LL evals
	SelEvals    *telemetry.Counter   // raw-selection (COBRA-style) evaluations
	LPSolves    *telemetry.Counter   // real LP relaxation solves of induced instances
	LPPivots    *telemetry.Counter   // simplex steps summed over those solves
	CacheHits   *telemetry.Counter   // evaluations served from a Prepared context (no solve)
	CacheMisses *telemetry.Counter   // Prepared contexts built (one real solve each)
	Elims       *telemetry.Counter   // redundancy-elimination passes run
	Infeasible  *telemetry.Counter   // follower answers that failed to cover
	EvalTime    *telemetry.Timer     // latency of one paired evaluation; for a GP heuristic, the greedy only (scoring is not timed)
	EvalLatency *telemetry.Histogram // same latency, µs buckets
	GapPct      *telemetry.Histogram // %-gap distribution of feasible answers
	Faults      *telemetry.Counter   // evaluations quarantined after an LP/heuristic failure
}

// NewEvalMetrics registers the evaluator instruments in reg under the
// "bcpop." prefix. A nil registry yields nil (telemetry off).
func NewEvalMetrics(reg *telemetry.Registry) *EvalMetrics {
	if reg == nil {
		return nil
	}
	return &EvalMetrics{
		TreeEvals:   reg.Counter("bcpop.tree_evals"),
		GraspEvals:  reg.Counter("bcpop.grasp_evals"),
		SelEvals:    reg.Counter("bcpop.selection_evals"),
		LPSolves:    reg.Counter("bcpop.lp_solves"),
		LPPivots:    reg.Counter("bcpop.lp_pivots"),
		CacheHits:   reg.Counter("bcpop.cache_hits"),
		CacheMisses: reg.Counter("bcpop.cache_misses"),
		Elims:       reg.Counter("bcpop.eliminations"),
		Infeasible:  reg.Counter("bcpop.infeasible"),
		EvalTime:    reg.Timer("bcpop.eval_time"),
		EvalLatency: reg.Histogram("bcpop.eval_latency_us", telemetry.ExpBuckets(10, 2, 16)...),
		GapPct:      reg.Histogram("bcpop.gap_pct", 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500),
		Faults:      reg.Counter("bcpop.eval_faults"),
	}
}

// observe records one finished paired evaluation.
func (m *EvalMetrics) observe(t0 time.Time, out Result) {
	d := time.Since(t0)
	m.EvalTime.Observe(d)
	m.EvalLatency.Observe(float64(d) / float64(time.Microsecond))
	switch {
	case !out.Feasible:
		m.Infeasible.Inc()
	case !math.IsNaN(out.GapPct):
		m.GapPct.Observe(out.GapPct)
	}
}

// Evaluator performs paired evaluations against one market. It owns an
// LP relaxer and scratch buffers, so it is not safe for concurrent use —
// create one per worker (NewEvaluator is cheap relative to a run). No
// result depends on which evaluator computed it or on what it computed
// before: every relaxation starts cold or from an explicit basis.
type Evaluator struct {
	mk      *Market
	relaxer *covering.Relaxer
	costs   []float64
	scores  []float64

	// Compiled-path scratch (DESIGN.md §5j): the lane VM and the
	// greedy's working buffers. Both grow once and are reused, so
	// EvalProgramWith and EvalScoresWith allocate nothing in steady
	// state.
	vm     *gp.VM
	greedy covering.GreedyScratch

	// Eliminate controls the greedy's redundancy-elimination pass
	// (default on; the ablation benchmark turns it off).
	Eliminate bool

	// Evals counts lower-level heuristic applications (the paper's LL
	// fitness evaluation unit).
	Evals int

	// Metrics, when non-nil, receives hot-path telemetry. It may be
	// shared with other evaluators (all updates are atomic).
	Metrics *EvalMetrics

	// EvalFault, when non-nil, is consulted at the start of every
	// tree-driven paired evaluation (EvalScoresWith, EvalProgramWith);
	// a non-nil return aborts that evaluation. It models heuristic-side
	// failures the same way the relaxer's fault hook models LP failures
	// — fault injection only, nil in production.
	EvalFault func() error
}

// NewEvaluator builds an evaluator for the market using the Table I
// primitive set semantics (set may extend Table I; its terminal layout
// must match covering.TableITerms).
func NewEvaluator(mk *Market, set *gp.Set) (*Evaluator, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	// The scorer hands every tree a covering.EnvLen-float environment.
	// A set declaring more terminals would let a (possibly decoded)
	// tree index past it at evaluation time, so reject it here — before
	// any tree over it can be evaluated.
	if len(set.Terms) > covering.EnvLen {
		return nil, fmt.Errorf("bcpop: primitive set declares %d terminals but the Table I scorer environment holds %d", len(set.Terms), covering.EnvLen)
	}
	relaxer, err := covering.NewRelaxer(mk.template)
	if err != nil {
		return nil, err
	}
	return &Evaluator{
		mk:        mk,
		relaxer:   relaxer,
		costs:     make([]float64, mk.template.M()),
		scores:    make([]float64, mk.template.M()),
		vm:        gp.NewVM(),
		Eliminate: true,
	}, nil
}

// Market returns the evaluator's market.
func (ev *Evaluator) Market() *Market { return ev.mk }

// SetLPFault installs (or, with nil, clears) a fault hook on the
// evaluator's LP relaxer: consulted before every relaxation solve, a
// non-nil return fails that solve without disturbing solver state.
// Fault injection only; never set in production.
func (ev *Evaluator) SetLPFault(h func() error) { ev.relaxer.SetFault(h) }

// EvalGRASPWith pairs a prepared pricing context with a GRASP answer:
// `starts` randomized adaptive constructions (plus local search) on the
// induced instance, best kept. It solves no LP and charges each start
// as one LL evaluation.
func (ev *Evaluator) EvalGRASPWith(p *Prepared, r *rng.Rand, starts int, alpha float64) (Result, []bool, error) {
	if p == nil {
		return Result{}, nil, ErrNotPrepared
	}
	var t0 time.Time
	if ev.Metrics != nil {
		t0 = time.Now()
	}
	if starts < 1 {
		starts = 1
	}
	res := p.In.GRASPWithLS(r, starts, alpha)
	ev.Evals += starts
	out := ev.result(p.Price, p.Rx, res)
	if m := ev.Metrics; m != nil {
		m.GraspEvals.Add(int64(starts))
		m.observe(t0, out)
	}
	return out, res.X, nil
}

func (ev *Evaluator) result(price []float64, rx *covering.Relaxation, res covering.GreedyResult) Result {
	out := Result{
		LLCost:   res.Cost,
		LB:       math.NaN(),
		GapPct:   math.NaN(),
		Feasible: res.Feasible,
	}
	if res.Feasible {
		out.Revenue = ev.mk.Revenue(price, res.X)
	}
	if rx == nil {
		return out // unrelaxed context (Induce): no bound, so no gap
	}
	out.LB = rx.LB
	if res.Feasible {
		out.GapPct = covering.Gap(res.Cost, rx.LB)
	} else {
		// An infeasible follower answer forecasts nothing: worst gap,
		// no revenue.
		out.GapPct = covering.Gap(res.Cost+1e9, rx.LB)
	}
	return out
}

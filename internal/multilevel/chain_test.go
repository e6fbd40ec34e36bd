package multilevel

import (
	"math"
	"testing"

	"carbon/internal/gp"
	"carbon/internal/orlib"
	"carbon/internal/rng"
	"carbon/internal/stats"
)

// triMarket is the depth-1 (tri-level) chain on an n60_m5 instance:
// leader and middle own 6 bundles each.
func triMarket(t testing.TB) *ChainMarket {
	t.Helper()
	cm, err := NewChainMarketFromClass(orlib.Class{N: 60, M: 5}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func chainInstance(t testing.TB) *ChainMarket {
	t.Helper()
	in, err := orlib.GenerateCovering(orlib.Class{N: 80, M: 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewChainMarket(in, []int{6, 6, 6}) // leader + 2 middles
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func TestNewChainMarketValidation(t *testing.T) {
	in, err := orlib.GenerateCovering(orlib.Class{N: 30, M: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChainMarket(nil, []int{3}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := NewChainMarket(in, nil); err == nil {
		t.Fatal("no groups accepted")
	}
	if _, err := NewChainMarket(in, []int{3, 0}); err == nil {
		t.Fatal("zero-size group accepted")
	}
	if _, err := NewChainMarket(in, []int{15, 15}); err == nil {
		t.Fatal("no-competitor split accepted")
	}
	cm, err := NewChainMarket(in, []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Depth() != 2 || cm.LeaderSize() != 3 {
		t.Fatalf("geometry: depth %d leader %d", cm.Depth(), cm.LeaderSize())
	}
	for _, depth := range []int{-1, 30} {
		if _, err := NewChainMarketFromClass(orlib.Class{N: 30, M: 5}, 0, depth); err == nil {
			t.Fatalf("depth %d accepted", depth)
		}
	}
	if _, err := NewChainMarketFromClass(orlib.Class{N: 30, M: 5}, 0, 9); err == nil {
		t.Fatal("no-competitor depth accepted")
	}
}

// TestNewTriMarketValidation checks the tri-level market: a two-group
// (depth-1) chain of leader A and middle player B.
func TestNewTriMarketValidation(t *testing.T) {
	in, err := orlib.GenerateCovering(orlib.Class{N: 30, M: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChainMarket(nil, []int{2, 2}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := NewChainMarket(in, []int{0, 2}); err == nil {
		t.Fatal("LA=0 accepted")
	}
	if _, err := NewChainMarket(in, []int{15, 15}); err == nil {
		t.Fatal("LA+LB=M accepted")
	}
	cm, err := NewChainMarket(in, []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Depth() != 1 || cm.LeaderSize() != 3 {
		t.Fatalf("geometry: depth %d leader %d", cm.Depth(), cm.LeaderSize())
	}
	tm := triMarket(t)
	if tm.Depth() != 1 || tm.LeaderSize() != 6 || len(tm.feat[0]) != 6 {
		t.Fatalf("tri-level geometry: depth %d leader %d middle %d", tm.Depth(), tm.LeaderSize(), len(tm.feat[0]))
	}
}

func TestPolicySetValid(t *testing.T) {
	s := PolicySet()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Terms) != 5 {
		t.Fatalf("policy terminals: %v", s.Terms)
	}
}

// middlePrices evaluates the depth-1 chain once and returns the middle
// player's prices as the cascade wrote them.
func middlePrices(t *testing.T, ce *ChainEvaluator, priceA []float64, policy gp.Tree) []float64 {
	t.Helper()
	if _, err := ce.Eval(priceA, []gp.Tree{policy}, gp.MustParse(ce.custSet, "c")); err != nil {
		t.Fatal(err)
	}
	off := ce.cm.offsets[1]
	return ce.costs[off : off+ce.cm.groups[1]]
}

func TestApplyPolicyClampsAndResponds(t *testing.T) {
	tm := triMarket(t)
	ce, err := NewChainEvaluator(tm)
	if err != nil {
		t.Fatal(err)
	}
	set := ce.policySet
	priceA := make([]float64, tm.LeaderSize())
	// A constant policy prices every bundle the same.
	for _, p := range middlePrices(t, ce, priceA, gp.MustParse(set, "(+ 1 1)")) {
		if p != 2 {
			t.Fatalf("constant policy gave %v", p)
		}
	}
	// A huge policy output must clamp to the cap.
	for _, p := range middlePrices(t, ce, priceA, gp.MustParse(set, "(* (* cbar cbar) cbar)")) {
		if p > tm.capB+1e-9 || p < 0 {
			t.Fatalf("policy output %v outside [0, %v]", p, tm.capB)
		}
	}
	// The abar terminal must see the leader's mean price.
	for j := range priceA {
		priceA[j] = 3
	}
	for _, p := range middlePrices(t, ce, priceA, gp.MustParse(set, "abar")) {
		if math.Abs(p-3) > 1e-9 {
			t.Fatalf("abar policy gave %v, want 3", p)
		}
	}
}

func TestEvaluatorChain(t *testing.T) {
	tm := triMarket(t)
	ce, err := NewChainEvaluator(tm)
	if err != nil {
		t.Fatal(err)
	}
	priceA := tm.BoundsA().RandomVector(rng.New(1))
	policy := gp.MustParse(ce.policySet, "cbar") // price at competitor mean
	cust := gp.MustParse(ce.custSet, "(% (* q d) c)")
	out, err := ce.Eval(priceA, []gp.Tree{policy}, cust)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatal("chain produced infeasible basket")
	}
	if out.GapPct < -1e-9 || out.GapPct > 100 {
		t.Fatalf("gap %v", out.GapPct)
	}
	if len(out.Revenues) != 2 || out.Revenues[0] < 0 || out.Revenues[1] < 0 {
		t.Fatalf("revenues %v", out.Revenues)
	}
	if ce.Evals != 1 {
		t.Fatalf("eval count %d", ce.Evals)
	}
}

func TestEvalRejectsWrongLengths(t *testing.T) {
	tm := triMarket(t)
	ce, err := NewChainEvaluator(tm)
	if err != nil {
		t.Fatal(err)
	}
	policy := gp.MustParse(ce.policySet, "cbar")
	cust := gp.MustParse(ce.custSet, "c")
	if _, err := ce.Eval([]float64{1}, []gp.Tree{policy}, cust); err == nil {
		t.Fatal("wrong-length priceA accepted")
	}
}

func TestCheaperMiddlePolicyGetsBought(t *testing.T) {
	// A policy that undercuts the competitor mean should put more middle
	// bundles into the basket than one pricing at the cap.
	tm := triMarket(t)
	ce, err := NewChainEvaluator(tm)
	if err != nil {
		t.Fatal(err)
	}
	priceA := tm.BoundsA().RandomVector(rng.New(2))
	cust := gp.MustParse(ce.custSet, "(% (* q d) c)")
	cheap := gp.MustParse(ce.policySet, "(% cbar (+ 1 1))")  // half the mean
	expensive := gp.MustParse(ce.policySet, "(+ cbar cbar)") // the cap
	oc, err := ce.Eval(priceA, []gp.Tree{cheap}, cust)
	if err != nil {
		t.Fatal(err)
	}
	oe, err := ce.Eval(priceA, []gp.Tree{expensive}, cust)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Revenues[1] == 0 && oe.Revenues[1] > 0 {
		t.Fatalf("undercutting earned 0 while cap pricing earned %v", oe.Revenues[1])
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(1); err != nil {
		t.Fatal(err)
	}
	mutate := []func(*Config){
		func(c *Config) { c.PopSize = 1 },
		func(c *Config) { c.Sample = 0 },
		func(c *Config) { c.Budget = 10 },
		func(c *Config) { c.Elites = 99 },
		func(c *Config) { c.CrossProb, c.MutProb = 0.9, 0.2 },
	}
	for i, m := range mutate {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(1); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

// TestRunChainBudgetCoversDepth: one generation of a depth-D chain costs
// PopSize·((D+1)·Sample+1) evaluations, so a budget that buys a
// tri-level generation is refused at depth 2 instead of running zero
// generations.
func TestRunChainBudgetCoversDepth(t *testing.T) {
	cm := chainInstance(t)
	cfg := DefaultConfig()
	cfg.Budget = cfg.PopSize * (2*cfg.Sample + 1)
	if res, err := RunChain(cm, cfg); err == nil {
		t.Fatalf("depth-2 run on a depth-1 budget: %d generations, nil error", res.Gens)
	}
	cfg.Budget = cfg.PopSize * (3*cfg.Sample + 1)
	res, err := RunChain(cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens != 1 || res.Evals != cfg.Budget {
		t.Fatalf("exact one-generation budget: %d gens, %d evals", res.Gens, res.Evals)
	}
}

func TestChainEvalCascade(t *testing.T) {
	cm := chainInstance(t)
	ce, err := NewChainEvaluator(cm)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	priceA := cm.BoundsA().RandomVector(r)
	policies := []gp.Tree{
		gp.MustParse(ce.policySet, "cbar"),
		gp.MustParse(ce.policySet, "(% cbar (+ 1 1))"),
	}
	cust := gp.MustParse(ce.custSet, "(% (* q d) c)")
	out, err := ce.Eval(priceA, policies, cust)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatal("chain infeasible on feasible market")
	}
	if len(out.Revenues) != 3 {
		t.Fatalf("revenues per level: %v", out.Revenues)
	}
	for lvl, rev := range out.Revenues {
		if rev < 0 {
			t.Fatalf("level %d negative revenue %v", lvl, rev)
		}
	}
	if out.GapPct < -1e-9 || out.GapPct > 100 {
		t.Fatalf("gap %v", out.GapPct)
	}
}

func TestChainEvalValidation(t *testing.T) {
	cm := chainInstance(t)
	ce, err := NewChainEvaluator(cm)
	if err != nil {
		t.Fatal(err)
	}
	cust := gp.MustParse(ce.custSet, "c")
	pol := gp.MustParse(ce.policySet, "cbar")
	if _, err := ce.Eval([]float64{1}, []gp.Tree{pol, pol}, cust); err == nil {
		t.Fatal("wrong leader size accepted")
	}
	priceA := make([]float64, cm.LeaderSize())
	if _, err := ce.Eval(priceA, []gp.Tree{pol}, cust); err == nil {
		t.Fatal("wrong policy count accepted")
	}
}

func TestChainAbarSeesUpstream(t *testing.T) {
	// The second middle level's "abar" must include the first middle's
	// prices: with an echo policy at both levels and constant leader
	// prices, level 2's output equals the mean of (leader + level-1).
	in, err := orlib.GenerateCovering(orlib.Class{N: 40, M: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewChainMarket(in, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := NewChainEvaluator(cm)
	if err != nil {
		t.Fatal(err)
	}
	echo := gp.MustParse(ce.policySet, "abar")
	cust := gp.MustParse(ce.custSet, "c")
	priceA := []float64{4, 4}
	out, err := ce.Eval(priceA, []gp.Tree{echo, echo}, cust)
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	// Level 1 echoes abar = 4 → prices (4,4). Level 2's abar over
	// (4,4,4,4) = 4 again. Verify through the cost vector side effects:
	// re-run and inspect ce.costs (white-box but stable).
	for j := 2; j < 6; j++ {
		if math.Abs(ce.costs[j]-4) > 1e-9 {
			t.Fatalf("cascaded cost[%d] = %v, want 4", j, ce.costs[j])
		}
	}
}

func TestRunTriLevel(t *testing.T) {
	tm := triMarket(t)
	cfg := DefaultConfig()
	cfg.PopSize = 8
	cfg.Budget = 800
	res, err := RunChain(tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens == 0 {
		t.Fatal("no generations")
	}
	if res.Evals > cfg.Budget {
		t.Fatalf("budget exceeded: %d", res.Evals)
	}
	if len(res.BestPriceA) != tm.LeaderSize() {
		t.Fatalf("leader price length %d", len(res.BestPriceA))
	}
	if len(res.BestPolicies) != 1 || res.BestPolicies[0] == "" || res.BestCust == "" {
		t.Fatalf("programs missing: %v / %q", res.BestPolicies, res.BestCust)
	}
	if res.BestGapPct < 0 || math.IsInf(res.BestGapPct, 0) {
		t.Fatalf("gap %v", res.BestGapPct)
	}
	if m := stats.Monotonicity(res.LeaderCurve.Y, +1); m != 1 {
		t.Fatalf("leader archive curve not monotone: %v", m)
	}
	if m := stats.Monotonicity(res.GapCurve.Y, -1); m != 1 {
		t.Fatalf("best-gap-seen curve not monotone: %v", m)
	}
}

func TestRunDeterministic(t *testing.T) {
	tm := triMarket(t)
	cfg := DefaultConfig()
	cfg.PopSize = 8
	cfg.Budget = 500
	cfg.Seed = 11
	a, err := RunChain(tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChain(tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestRevenues[0] != b.BestRevenues[0] || a.BestPolicies[0] != b.BestPolicies[0] ||
		a.BestGapPct != b.BestGapPct {
		t.Fatal("same seed diverged")
	}
}

func TestRunChain(t *testing.T) {
	cm := chainInstance(t)
	cfg := DefaultConfig()
	cfg.PopSize = 6
	cfg.Budget = 700
	res, err := RunChain(cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens == 0 {
		t.Fatal("no generations")
	}
	if res.Evals > cfg.Budget {
		t.Fatalf("budget exceeded: %d", res.Evals)
	}
	if len(res.BestPolicies) != 2 || res.BestCust == "" {
		t.Fatalf("programs missing: %v / %q", res.BestPolicies, res.BestCust)
	}
	if len(res.BestRevenues) != 3 {
		t.Fatalf("revenues: %v", res.BestRevenues)
	}
	if m := stats.Monotonicity(res.LeaderCurve.Y, +1); m != 1 {
		t.Fatalf("leader archive curve not monotone: %v", m)
	}
	if m := stats.Monotonicity(res.GapCurve.Y, -1); m != 1 {
		t.Fatalf("gap curve not monotone: %v", m)
	}
}

func TestRunChainDeterministic(t *testing.T) {
	cm := chainInstance(t)
	cfg := DefaultConfig()
	cfg.PopSize = 6
	cfg.Budget = 500
	cfg.Seed = 23
	a, err := RunChain(cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChain(cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestGapPct != b.BestGapPct || a.BestCust != b.BestCust {
		t.Fatal("same seed diverged")
	}
}

func TestChainDepthZeroIsBilevel(t *testing.T) {
	// D = 0: just a leader and the customer — the BCPOP shape through
	// the chain machinery.
	in, err := orlib.GenerateCovering(orlib.Class{N: 40, M: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewChainMarket(in, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := NewChainEvaluator(cm)
	if err != nil {
		t.Fatal(err)
	}
	cust := gp.MustParse(ce.custSet, "(% (* q d) c)")
	priceA := make([]float64, 4)
	for j := range priceA {
		priceA[j] = 5
	}
	out, err := ce.Eval(priceA, nil, cust)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible || len(out.Revenues) != 1 {
		t.Fatalf("depth-0 chain: %+v", out)
	}
}

package bcpop

import (
	"errors"
	"math"
	"slices"
	"testing"

	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/orlib"
	"carbon/internal/rng"
)

// testMarket builds a small deterministic market.
func testMarket(t testing.TB, n, m, l int) *Market {
	t.Helper()
	in, err := orlib.GenerateCovering(orlib.Class{N: n, M: m}, 7)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := NewMarket(in, l)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

// evalTree pairs a pricing decision with a heuristic the way the
// engine does: Prepare solves the relaxation, gp.Compile lowers the
// tree and EvalProgramWith scores and runs the greedy. The basket is
// copied out of evaluator scratch.
func evalTree(t testing.TB, ev *Evaluator, set *gp.Set, price []float64, tree gp.Tree) (Result, []bool) {
	t.Helper()
	p, err := ev.Prepare(price)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gp.Compile(set, tree)
	if err != nil {
		t.Fatal(err)
	}
	res, basket, err := ev.EvalProgramWith(p, prog)
	if err != nil {
		t.Fatal(err)
	}
	return res, slices.Clone(basket)
}

func TestNewMarketValidation(t *testing.T) {
	in, err := orlib.GenerateCovering(orlib.Class{N: 20, M: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMarket(nil, 2); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := NewMarket(in, 0); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := NewMarket(in, 20); err == nil {
		t.Fatal("L=M accepted")
	}
	if _, err := NewMarket(in, 5); err != nil {
		t.Fatal(err)
	}
}

func TestMarketGeometry(t *testing.T) {
	mk := testMarket(t, 30, 5, 3)
	if mk.Leaders() != 3 || mk.Bundles() != 30 || mk.Services() != 5 {
		t.Fatalf("geometry %d/%d/%d", mk.Leaders(), mk.Bundles(), mk.Services())
	}
	b := mk.PriceBounds()
	if err := b.Validate(3); err != nil {
		t.Fatal(err)
	}
	// Upper bound anchored at twice the mean competitor price.
	mean := 0.0
	for j := 3; j < 30; j++ {
		mean += mk.Template().C[j]
	}
	mean /= 27
	for j := 0; j < 3; j++ {
		if b.Lo[j] != 0 {
			t.Fatalf("price lower bound %v", b.Lo[j])
		}
		if math.Abs(b.Up[j]-2*mean) > 1e-9 {
			t.Fatalf("price cap %v, want %v", b.Up[j], 2*mean)
		}
	}
}

func TestNewMarketFromClass(t *testing.T) {
	mk, err := NewMarketFromClass(orlib.Class{N: 100, M: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mk.Leaders() != 10 {
		t.Fatalf("L = %d, want 10%% of 100", mk.Leaders())
	}
}

func TestCostsComposition(t *testing.T) {
	mk := testMarket(t, 25, 5, 4)
	price := []float64{1.5, 2.5, 3.5, 4.5}
	costs, err := mk.Costs(price, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if costs[j] != price[j] {
			t.Fatalf("leader price %d not applied", j)
		}
	}
	for j := 4; j < 25; j++ {
		if costs[j] != mk.Template().C[j] {
			t.Fatalf("competitor price %d changed", j)
		}
	}
	if _, err := mk.Costs([]float64{1}, nil); err == nil {
		t.Fatal("wrong-length prices accepted")
	}
	// Buffer reuse path.
	buf := make([]float64, 25)
	costs2, err := mk.Costs(price, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &costs2[0] != &buf[0] {
		t.Fatal("provided buffer not reused")
	}
}

func TestInducedInstanceIndependence(t *testing.T) {
	mk := testMarket(t, 25, 5, 4)
	a, err := mk.Induced([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	bIn, err := mk.Induced([]float64{9, 9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.C[0] != 1 || bIn.C[0] != 9 {
		t.Fatal("induced instances share cost storage")
	}
	if &a.Q[0][0] != &bIn.Q[0][0] {
		t.Fatal("induced instances should share the matrix")
	}
}

func TestRevenueCountsOnlyLeaderBundles(t *testing.T) {
	mk := testMarket(t, 25, 5, 4)
	price := []float64{10, 20, 30, 40}
	x := make([]bool, 25)
	x[0] = true  // leader bundle: counts
	x[2] = true  // leader bundle: counts
	x[10] = true // competitor: ignored
	if got := mk.Revenue(price, x); got != 40 {
		t.Fatalf("Revenue = %v, want 40", got)
	}
}

func TestEvalTree(t *testing.T) {
	mk := testMarket(t, 40, 5, 4)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	price := mk.PriceBounds().RandomVector(r)
	tree := gp.MustParse(set, "(% (* q d) c)")
	res, basket := evalTree(t, ev, set, price, tree)
	if !res.Feasible {
		t.Fatal("dual-guided heuristic infeasible on feasible market")
	}
	if res.GapPct < -1e-9 {
		t.Fatalf("negative gap %v", res.GapPct)
	}
	if res.LB <= 0 {
		t.Fatalf("LB = %v", res.LB)
	}
	if res.LLCost < res.LB-1e-6 {
		t.Fatalf("LL cost %v below bound %v", res.LLCost, res.LB)
	}
	// Revenue must equal the hand-computed priced basket.
	if got := mk.Revenue(price, basket); math.Abs(got-res.Revenue) > 1e-9 {
		t.Fatalf("revenue %v vs recomputed %v", res.Revenue, got)
	}
	if ev.Evals != 1 {
		t.Fatalf("eval counter = %d", ev.Evals)
	}
}

func TestEvalSelectionRepairs(t *testing.T) {
	mk := testMarket(t, 40, 5, 4)
	ev, err := NewEvaluator(mk, covering.TableISet())
	if err != nil {
		t.Fatal(err)
	}
	price := make([]float64, 4)
	for j := range price {
		price[j] = 5
	}
	empty := make([]bool, 40)
	p, err := ev.Prepare(price)
	if err != nil {
		t.Fatal(err)
	}
	res, basket, err := ev.EvalSelectionWith(p, empty)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("repair failed")
	}
	induced, err := mk.Induced(price)
	if err != nil {
		t.Fatal(err)
	}
	if !induced.SelectionFeasible(basket) {
		t.Fatal("repaired basket infeasible on induced instance")
	}
	if math.Abs(res.LLCost-induced.SelectionCost(basket)) > 1e-9 {
		t.Fatalf("LL cost %v vs %v", res.LLCost, induced.SelectionCost(basket))
	}
}

// TestEvalSelectionWithContexts pins the one repair path: a Prepare
// context pairs the same selection to the same bits every time, and against
// an Induce context it solves no LP, keeps the revenue side and reports
// no bound.
func TestEvalSelectionWithContexts(t *testing.T) {
	mk := testMarket(t, 40, 5, 4)
	ev, err := NewEvaluator(mk, covering.TableISet())
	if err != nil {
		t.Fatal(err)
	}
	solves := 0
	ev.SetLPFault(func() error { solves++; return nil })
	r := rng.New(9)
	for trial := 0; trial < 5; trial++ {
		price := mk.PriceBounds().RandomVector(r)
		x := make([]bool, mk.Bundles())
		for j := range x {
			x[j] = r.Bool(0.3)
		}
		p, err := ev.Prepare(price)
		if err != nil {
			t.Fatal(err)
		}
		want, wantBasket, err := ev.EvalSelectionWith(p, x)
		if err != nil {
			t.Fatal(err)
		}
		got, basket, err := ev.EvalSelectionWith(p, x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || !slices.Equal(basket, wantBasket) {
			t.Fatalf("trial %d: second pairing %+v, first %+v", trial, got, want)
		}

		before := solves
		u, err := ev.Induce(price)
		if err != nil {
			t.Fatal(err)
		}
		if u.Rx != nil {
			t.Fatal("Induce attached a relaxation")
		}
		un, unBasket, err := ev.EvalSelectionWith(u, x)
		if err != nil {
			t.Fatal(err)
		}
		if solves != before {
			t.Fatalf("trial %d: unrelaxed pairing made %d LP solves", trial, solves-before)
		}
		if un.Revenue != want.Revenue || un.LLCost != want.LLCost || un.Feasible != want.Feasible ||
			!slices.Equal(unBasket, wantBasket) {
			t.Fatalf("trial %d: unrelaxed %+v vs relaxed %+v", trial, un, want)
		}
		if !math.IsNaN(un.LB) || !math.IsNaN(un.GapPct) {
			t.Fatalf("trial %d: unrelaxed context reported LB %v gap %v", trial, un.LB, un.GapPct)
		}
	}
	if _, _, err := ev.EvalSelectionWith(nil, make([]bool, mk.Bundles())); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("nil context: err = %v, want ErrNotPrepared", err)
	}
}

func TestCheaperLeaderEarnsMoreRevenueOnAverage(t *testing.T) {
	// Economic sanity: pricing leader bundles at the cap prices them out
	// of most baskets; pricing below the market mean gets them bought.
	mk := testMarket(t, 60, 5, 6)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	tree := gp.MustParse(set, "(% (* q d) c)")
	b := mk.PriceBounds()
	cheap := make([]float64, 6)
	expensive := make([]float64, 6)
	for j := range cheap {
		cheap[j] = b.Up[j] * 0.25
		expensive[j] = b.Up[j] * 0.999
	}
	_, basketCheap := evalTree(t, ev, set, cheap, tree)
	_, basketExp := evalTree(t, ev, set, expensive, tree)
	nCheap, nExp := 0, 0
	for j := 0; j < 6; j++ {
		if basketCheap[j] {
			nCheap++
		}
		if basketExp[j] {
			nExp++
		}
	}
	if nCheap < nExp {
		t.Fatalf("cheap leader sold %d bundles, expensive sold %d", nCheap, nExp)
	}
}

func TestGapDependsOnHeuristicNotPrice(t *testing.T) {
	// The same heuristic applied across different prices should keep
	// gaps in a comparable (small) range — the paper's core argument for
	// gap-based predator fitness.
	mk := testMarket(t, 50, 10, 5)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	tree := gp.MustParse(set, "(% (* q d) c)")
	r := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		price := mk.PriceBounds().RandomVector(r)
		res, _ := evalTree(t, ev, set, price, tree)
		if !res.Feasible {
			t.Fatal("infeasible")
		}
		if res.GapPct > 100 {
			t.Fatalf("dual-guided gap blew up: %v%%", res.GapPct)
		}
	}
}

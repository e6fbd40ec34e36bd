package bcpop

import (
	"math"
	"testing"

	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/orlib"
	"carbon/internal/rng"
)

func baseInstance(t testing.TB, n, m int) *covering.Instance {
	t.Helper()
	in, err := orlib.GenerateCovering(orlib.Class{N: n, M: m}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewMultiMarketValidation(t *testing.T) {
	in := baseInstance(t, 30, 5)
	if _, err := NewMultiMarket(nil, 3, 2, 0.1, 1); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := NewMultiMarket(in, 0, 2, 0.1, 1); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := NewMultiMarket(in, 3, 0, 0.1, 1); err == nil {
		t.Fatal("0 customers accepted")
	}
	if _, err := NewMultiMarket(in, 3, 2, 1.0, 1); err == nil {
		t.Fatal("variation=1 accepted")
	}
	if _, err := NewMultiMarket(in, 3, 2, -0.1, 1); err == nil {
		t.Fatal("negative variation accepted")
	}
}

func TestMultiMarketGeometry(t *testing.T) {
	in := baseInstance(t, 30, 5)
	const K, L = 3, 4
	mk, err := NewMultiMarket(in, L, K, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mk.Customers() != K {
		t.Fatalf("Customers = %d", mk.Customers())
	}
	if mk.Leaders() != L {
		t.Fatalf("Leaders = %d (one price per leader bundle, shared)", mk.Leaders())
	}
	if mk.Bundles() != K*30 || mk.Services() != K*5 {
		t.Fatalf("block dims %dx%d", mk.Bundles(), mk.Services())
	}
}

func TestMultiMarketBlockStructure(t *testing.T) {
	in := baseInstance(t, 20, 4)
	const K, L = 2, 3
	mk, err := NewMultiMarket(in, L, K, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	tpl := mk.Template()
	// Customer i's rows touch only customer i's columns.
	for i := 0; i < K; i++ {
		for k := 0; k < 4; k++ {
			row := tpl.Q[i*4+k]
			for c, v := range row {
				inBlock := c >= i*20 && c < (i+1)*20
				if !inBlock && v != 0 {
					t.Fatalf("row %d leaks into column %d", i*4+k, c)
				}
				if inBlock && v != in.Q[k][c-i*20] {
					t.Fatalf("row %d column %d: %v != base %v", i*4+k, c, v, in.Q[k][c-i*20])
				}
			}
		}
	}
	// Competitor prices replicated.
	for i := 0; i < K; i++ {
		for j := L; j < 20; j++ {
			if tpl.C[i*20+j] != in.C[j] {
				t.Fatal("competitor price not replicated")
			}
		}
	}
}

func TestMultiMarketCostsAndRevenue(t *testing.T) {
	in := baseInstance(t, 20, 4)
	const K, L = 2, 3
	mk, err := NewMultiMarket(in, L, K, 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	price := []float64{10, 20, 30}
	costs, err := mk.Costs(price, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The same price gene must land on every customer's copy.
	for i := 0; i < K; i++ {
		for j := 0; j < L; j++ {
			if costs[i*20+j] != price[j] {
				t.Fatalf("customer %d bundle %d priced %v", i, j, costs[i*20+j])
			}
		}
	}
	// Revenue counts each customer's purchase.
	x := make([]bool, K*20)
	x[0] = true    // customer 0 buys leader bundle 0 → +10
	x[20+0] = true // customer 1 buys leader bundle 0 → +10
	x[20+2] = true // customer 1 buys leader bundle 2 → +30
	x[5] = true    // competitor bundle: no revenue
	if got := mk.Revenue(price, x); got != 50 {
		t.Fatalf("Revenue = %v, want 50", got)
	}
}

func TestMultiMarketRequirementVariation(t *testing.T) {
	in := baseInstance(t, 20, 4)
	mk, err := NewMultiMarket(in, 3, 3, 0.3, 13)
	if err != nil {
		t.Fatal(err)
	}
	tpl := mk.Template()
	differ := false
	for k := 0; k < 4; k++ {
		if tpl.B[k] != tpl.B[4+k] {
			differ = true
		}
	}
	if !differ {
		t.Fatal("customer requirements are identical despite variation")
	}
	// Zero variation → identical blocks.
	mk0, err := NewMultiMarket(in, 3, 2, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	tpl0 := mk0.Template()
	for k := 0; k < 4; k++ {
		if tpl0.B[k] != tpl0.B[4+k] {
			t.Fatal("zero variation produced different requirements")
		}
	}
}

func TestMultiMarketEndToEndEvaluation(t *testing.T) {
	in := baseInstance(t, 40, 5)
	mk, err := NewMultiMarket(in, 4, 3, 0.2, 17)
	if err != nil {
		t.Fatal(err)
	}
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	tree := gp.MustParse(set, "(% (* q d) c)")
	r := rng.New(1)
	price := mk.PriceBounds().RandomVector(r)
	res, basket := evalTree(t, ev, set, price, tree)
	if !res.Feasible {
		t.Fatal("infeasible on feasible multi-market")
	}
	if res.GapPct < -1e-9 || res.GapPct > 100 {
		t.Fatalf("gap %v", res.GapPct)
	}
	if math.Abs(mk.Revenue(price, basket)-res.Revenue) > 1e-9 {
		t.Fatal("revenue mismatch")
	}
	// Every customer block must be individually covered.
	induced, err := mk.Induced(price)
	if err != nil {
		t.Fatal(err)
	}
	if !induced.SelectionFeasible(basket) {
		t.Fatal("basket does not cover all customers")
	}
}

func TestMultiMarketSingleCustomerMatchesNewMarket(t *testing.T) {
	in := baseInstance(t, 30, 5)
	single, err := NewMarket(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	multi1, err := NewMultiMarket(in, 3, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if single.Bundles() != multi1.Bundles() || single.Leaders() != multi1.Leaders() {
		t.Fatal("K=1 multi-market geometry differs from single market")
	}
	price := []float64{5, 6, 7}
	cs, err := single.Costs(price, nil)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := multi1.Costs(price, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cs {
		if cs[j] != cm[j] {
			t.Fatal("cost vectors differ")
		}
	}
}

// Cloud pricing walkthrough: the paper's motivating scenario (§IV-B)
// end to end. A Cloud Service Provider prices its bundles against a
// fixed competitive market; a rational customer solves a covering
// problem to buy the cheapest basket satisfying all service needs.
//
// The example audits a handful of pricing strategies — undercutting,
// matching, premium, and CARBON's evolved pricing — and shows for each
// one the customer's rational basket, the provider's realized revenue,
// and the danger of trusting a bad lower-level forecast.
package main

import (
	"fmt"
	"log"

	"carbon/internal/bcpop"
	"carbon/internal/core"
	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/orlib"
)

func main() {
	mk, err := bcpop.NewMarketFromClass(orlib.Class{N: 100, M: 10}, 1)
	if err != nil {
		log.Fatal(err)
	}
	set := covering.TableISet()
	ev, err := bcpop.NewEvaluator(mk, set)
	if err != nil {
		log.Fatal(err)
	}
	// A strong hand-written forecast heuristic: dual-weighted coverage
	// per unit cost — the LP-guided greedy expressed as a GP tree.
	forecast := gp.MustParse(set, "(% (* q d) c)")

	// eval prices the market, solves the customer's LP relaxation and
	// scores the bundles with the compiled tree; the basket it returns
	// is only valid until the next evaluation.
	eval := func(price []float64, tree gp.Tree) (bcpop.Result, []bool) {
		p, err := ev.Prepare(price)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := gp.Compile(set, tree)
		if err != nil {
			log.Fatal(err)
		}
		res, basket, err := ev.EvalProgramWith(p, prog)
		if err != nil {
			log.Fatal(err)
		}
		return res, basket
	}

	bounds := mk.PriceBounds()
	mean := 0.0
	for _, up := range bounds.Up {
		mean += up / bcpop.PriceCapFactor
	}
	mean /= float64(len(bounds.Up))
	fmt.Printf("market: %d bundles (%d ours), %d services, mean competitor price %.0f\n\n",
		mk.Bundles(), mk.Leaders(), mk.Services(), mean)

	strategies := []struct {
		name  string
		price func(j int) float64
	}{
		{"undercut (60% of market mean)", func(int) float64 { return 0.6 * mean }},
		{"match market mean", func(int) float64 { return mean }},
		{"premium (150% of mean)", func(int) float64 { return 1.5 * mean }},
	}
	fmt.Printf("%-32s %10s %10s %8s %8s\n", "strategy", "revenue", "cust.cost", "gap%", "bought")
	for _, st := range strategies {
		price := make([]float64, mk.Leaders())
		for j := range price {
			price[j] = st.price(j)
		}
		res, basket := eval(price, forecast)
		bought := 0
		for j := 0; j < mk.Leaders(); j++ {
			if basket[j] {
				bought++
			}
		}
		fmt.Printf("%-32s %10.0f %10.0f %8.2f %5d/%d\n",
			st.name, res.Revenue, res.LLCost, res.GapPct, bought, mk.Leaders())
	}

	// Now let CARBON search the pricing space while co-evolving its own
	// forecast heuristics.
	cfg := core.DefaultConfig()
	cfg.ULPopSize, cfg.LLPopSize = 30, 30
	cfg.ULArchiveSize, cfg.LLArchiveSize = 30, 30
	cfg.ULEvalBudget, cfg.LLEvalBudget = 2400, 4800
	cfg.PreySample = 2
	res, err := core.Run(mk, cfg)
	if err != nil {
		log.Fatal(err)
	}
	out, basket := eval(res.Best.Price, res.Best.Tree)
	bought := 0
	for j := 0; j < mk.Leaders(); j++ {
		if basket[j] {
			bought++
		}
	}
	fmt.Printf("%-32s %10.0f %10.0f %8.2f %5d/%d\n",
		"CARBON evolved pricing", out.Revenue, out.LLCost, out.GapPct, bought, mk.Leaders())
	fmt.Printf("\nCARBON's forecast heuristic: %s\n", res.Best.TreeStr)

	// The cautionary tale: score the same CARBON pricing with a *bad*
	// forecast and watch the revenue inflate — the over-estimation
	// effect of Eq. 2/3 that makes COBRA's Table IV numbers misleading.
	bad := gp.MustParse(set, "(- b b)") // all-zero scores: index-order greedy
	outBad, _ := eval(res.Best.Price, bad)
	fmt.Printf("\nsame pricing, bad forecast:  revenue %.0f at %.1f%% gap (inflated)\n",
		outBad.Revenue, outBad.GapPct)
	fmt.Printf("same pricing, good forecast: revenue %.0f at %.1f%% gap (realistic)\n",
		out.Revenue, out.GapPct)
}

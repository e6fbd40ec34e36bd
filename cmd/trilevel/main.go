// Command trilevel runs the multi-level pricing-chain prototype (the
// paper's future-work direction) on a class: the leader prices, each of
// the -depth middle players reacts through an evolved pricing policy,
// and the customer reacts through an evolved covering heuristic. The
// default depth 1 is the tri-level chain A → B → customer.
//
// Usage:
//
//	trilevel [-n 100] [-m 5] [-instance 0] [-seed 1] [-pop 24]
//	         [-budget 6000] [-sample 2] [-depth 1] [-curves]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"carbon/internal/multilevel"
	"carbon/internal/orlib"
)

func main() {
	var (
		n      = flag.Int("n", 100, "number of market bundles")
		m      = flag.Int("m", 5, "number of service constraints")
		idx    = flag.Int("instance", 0, "instance index within the class")
		seed   = flag.Uint64("seed", 1, "run seed")
		pop    = flag.Int("pop", 24, "population size (every population)")
		budget = flag.Int("budget", 6000, "bottom-level chain evaluations")
		sample = flag.Int("sample", 2, "leader decisions sampled per policy/heuristic evaluation")
		depth  = flag.Int("depth", 1, "middle levels in the chain (1 = tri-level)")
		curves = flag.Bool("curves", false, "print convergence curves as CSV")
	)
	flag.Parse()

	cfg := multilevel.DefaultConfig()
	cfg.Seed = *seed
	cfg.PopSize = *pop
	cfg.Budget = *budget
	cfg.Sample = *sample

	cm, err := multilevel.NewChainMarketFromClass(orlib.Class{N: *n, M: *m}, *idx, *depth)
	die(err)
	fmt.Printf("%d-level chain on n=%d m=%d (instance %d): leader + %d middles + customer\n",
		*depth+2, *n, *m, *idx, *depth)
	t0 := time.Now()
	res, err := multilevel.RunChain(cm, cfg)
	die(err)
	fmt.Printf("finished: %d generations, %d chain evaluations in %v\n",
		res.Gens, res.Evals, time.Since(t0).Round(time.Millisecond))
	for lvl, rev := range res.BestRevenues {
		name := "leader"
		if lvl > 0 {
			name = fmt.Sprintf("middle %d", lvl)
		}
		fmt.Printf("%-10s revenue: %.2f\n", name, rev)
	}
	fmt.Printf("customer forecast gap: %.3f%%\n", res.BestGapPct)
	for lvl, p := range res.BestPolicies {
		fmt.Printf("policy %d: %s\n", lvl+1, p)
	}
	fmt.Printf("customer heuristic: %s\n", res.BestCust)
	if *curves {
		fmt.Println("evals,best_revA")
		for i := range res.LeaderCurve.X {
			fmt.Printf("%.0f,%.4f\n", res.LeaderCurve.X[i], res.LeaderCurve.Y[i])
		}
		fmt.Println("evals,best_gap")
		for i := range res.GapCurve.X {
			fmt.Printf("%.0f,%.4f\n", res.GapCurve.X[i], res.GapCurve.Y[i])
		}
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "trilevel:", err)
		os.Exit(1)
	}
}

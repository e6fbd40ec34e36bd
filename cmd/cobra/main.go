// Command cobra runs the COBRA baseline (Legillon et al., re-implemented
// from the paper's Algorithm 1) on a BCPOP instance class and prints the
// archived results — the comparison column of Tables III/IV.
//
// Usage:
//
//	cobra [-n 100] [-m 5] [-instance 0] [-seed 1] [-pop 100]
//	      [-ulevals 50000] [-llevals 50000] [-phasegens 5] [-workers 0]
//	      [-curves]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"carbon/internal/bcpop"
	"carbon/internal/cobra"
	"carbon/internal/orlib"
	"carbon/internal/telemetry"
)

func main() {
	var (
		n         = flag.Int("n", 100, "number of market bundles")
		m         = flag.Int("m", 5, "number of service constraints")
		idx       = flag.Int("instance", 0, "instance index within the class")
		seed      = flag.Uint64("seed", 1, "run seed")
		pop       = flag.Int("pop", 100, "population and archive size at both levels")
		ulEvals   = flag.Int("ulevals", 50000, "upper-level fitness evaluation budget")
		llEvals   = flag.Int("llevals", 50000, "lower-level fitness evaluation budget")
		phaseGens = flag.Int("phasegens", 5, "generations per improvement phase")
		workers   = flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
		curves    = flag.Bool("curves", false, "print convergence curves as CSV")

		metricsAddr = flag.String("metrics-addr", "", "serve pprof and the runtime's expvar vars on this address while the run is live")
	)
	flag.Parse()

	if *metricsAddr != "" {
		// The COBRA baseline is not instrumented with counters, so the
		// endpoint serves only the process-level routes (pprof
		// profiles, the runtime's expvar vars); /metrics answers 404.
		addr, stop, err := telemetry.Serve(*metricsAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cobra:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/debug/pprof (also /debug/vars)\n", addr)
	}

	mk, err := bcpop.NewMarketFromClass(orlib.Class{N: *n, M: *m}, *idx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobra:", err)
		os.Exit(1)
	}
	cfg := cobra.DefaultConfig()
	cfg.Seed = *seed
	cfg.ULPopSize, cfg.LLPopSize = *pop, *pop
	cfg.ULArchiveSize, cfg.LLArchiveSize = *pop, *pop
	cfg.ULEvalBudget, cfg.LLEvalBudget = *ulEvals, *llEvals
	cfg.PhaseGens = *phaseGens
	cfg.Workers = *workers

	fmt.Printf("COBRA on class n=%d m=%d (instance %d, L=%d leader bundles)\n",
		*n, *m, *idx, mk.Leaders())
	t0 := time.Now()
	res, err := cobra.Run(mk, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobra:", err)
		os.Exit(1)
	}
	fmt.Printf("finished: %d generations, %d UL evals, %d LL evals in %v\n",
		res.Gens, res.ULEvals, res.LLEvals, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("best UL objective (revenue):   %.2f\n", res.BestRevenue)
	fmt.Printf("best archived LL cost:         %.2f\n", res.BestLLCost)
	fmt.Printf("gap of best archived basket:   %.3f%%\n", res.BestGapPct)
	fmt.Printf("best gap anywhere in archive:  %.3f%%\n", res.MinGapPct)
	if *curves {
		fmt.Println("evals,best_F")
		for i := range res.ULCurve.X {
			fmt.Printf("%.0f,%.4f\n", res.ULCurve.X[i], res.ULCurve.Y[i])
		}
		fmt.Println("evals,best_gap")
		for i := range res.GapCurve.X {
			fmt.Printf("%.0f,%.4f\n", res.GapCurve.X[i], res.GapCurve.Y[i])
		}
	}
}

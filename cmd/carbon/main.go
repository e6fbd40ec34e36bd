// Command carbon runs one CARBON optimization on a BCPOP instance class
// and prints the best pricing, the best evolved heuristic and the
// convergence summary.
//
// Usage:
//
//	carbon [-n 100] [-m 5] [-runsidx 0] [-seed 1] [-pop 100]
//	       [-ulevals 50000] [-llevals 50000] [-sample 4] [-workers 0]
//	       [-curves]
//
// Observability (all optional, none perturbs the seeded result):
//
//	-trace run.jsonl     write one JSON event per generation (see README)
//	-metrics-addr :8080  serve /metrics, /metrics/prometheus and /debug/* live
//	-progress 2s         print a progress line to stderr every interval
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"carbon/internal/bcpop"
	"carbon/internal/checkpoint"
	"carbon/internal/core"
	"carbon/internal/orlib"
	"carbon/internal/telemetry"
)

func main() {
	var (
		n       = flag.Int("n", 100, "number of market bundles (paper: 100, 250, 500)")
		m       = flag.Int("m", 5, "number of service constraints (paper: 5, 10, 30)")
		idx     = flag.Int("instance", 0, "instance index within the class")
		seed    = flag.Uint64("seed", 1, "run seed")
		pop     = flag.Int("pop", 100, "population and archive size at both levels")
		ulEvals = flag.Int("ulevals", 50000, "upper-level fitness evaluation budget")
		llEvals = flag.Int("llevals", 50000, "lower-level fitness evaluation budget")
		sample  = flag.Int("sample", 4, "prey sampled per predator evaluation")
		workers = flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")

		curves = flag.Bool("curves", false, "print convergence curves as CSV")

		customers = flag.Int("customers", 1, "rational customers (>1 = multi-customer extension)")
		variation = flag.Float64("variation", 0.25, "per-customer requirement variation (multi-customer)")

		saveEvery = flag.Int("checkpoint-every", 0, "write a checkpoint every N generations (0 = off)")
		ckptPath  = flag.String("checkpoint", "carbon.ckpt.json", "checkpoint file path")
		resume    = flag.Bool("resume", false, "resume from the checkpoint file")

		trace       = flag.String("trace", "", "write a per-generation JSONL trace to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (JSON and Prometheus text), expvar and pprof on this address (e.g. :8080)")
		progrEvery  = flag.Duration("progress", 0, "print a progress line to stderr every interval (0 = off)")
	)
	flag.Parse()

	mk, err := bcpop.NewMarketFromClass(orlib.Class{N: *n, M: *m}, *idx)
	if err == nil && *customers > 1 {
		var in = mk.Template()
		mk, err = bcpop.NewMultiMarket(in, mk.Leaders(), *customers, *variation, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbon:", err)
		os.Exit(1)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.ULPopSize, cfg.LLPopSize = *pop, *pop
	cfg.ULArchiveSize, cfg.LLArchiveSize = *pop, *pop
	cfg.ULEvalBudget, cfg.LLEvalBudget = *ulEvals, *llEvals
	cfg.PreySample = *sample
	cfg.Workers = *workers

	// Telemetry wiring: everything here is read-only with respect to
	// the run, so the seeded result is identical with or without it.
	var observers []core.Observer
	var traceObs *core.JSONLObserver
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carbon:", err)
			os.Exit(1)
		}
		traceObs = core.NewJSONLObserver(f)
		observers = append(observers, traceObs)
	}
	if *progrEvery > 0 {
		observers = append(observers, newProgressPrinter(*progrEvery))
	}
	if len(observers) > 0 {
		cfg.Observer = core.MultiObserver(observers...)
	}
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		addr, stop, err := telemetry.Serve(*metricsAddr, map[string]*telemetry.Registry{"carbon": reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "carbon:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (also /metrics/prometheus, /debug/vars, /debug/pprof)\n", addr)
	}

	fmt.Printf("CARBON on class n=%d m=%d (instance %d, L=%d leader bundles, %d customer(s))\n",
		*n, *m, *idx, mk.Leaders(), mk.Customers())
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	t0 := time.Now()
	res, err := runWithCheckpoints(ctx, mk, cfg, *saveEvery, *ckptPath, *resume)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbon:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	if traceObs != nil {
		if err := traceObs.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "carbon: closing trace:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("finished: %d generations, %d UL evals, %d LL evals in %v\n",
		res.Gens, res.ULEvals, res.LLEvals, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("best UL objective (revenue):  %.2f\n", res.Best.Revenue)
	fmt.Printf("best heuristic mean %%-gap:    %.3f%%\n", res.Best.GapPct)
	fmt.Printf("best evolved heuristic:       %s\n", res.Best.TreeStr)
	if res.Best.Simplified != res.Best.TreeStr {
		fmt.Printf("simplified:                   %s\n", res.Best.Simplified)
	}
	if len(res.Best.Price) <= 20 {
		fmt.Printf("best pricing: %.2f\n", res.Best.Price)
	}
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

// runWithCheckpoints drives the engine directly so long runs can be
// snapshotted, interrupted and resumed. On Ctrl-C/SIGTERM the current
// state is checkpointed to path before returning, so an interrupted run
// continues later with -resume.
func runWithCheckpoints(ctx context.Context, mk *bcpop.Market, cfg core.Config, every int, path string, resume bool) (*core.Result, error) {
	var (
		e   *core.Engine
		err error
	)
	if resume {
		st, lerr := checkpoint.LoadFile(path)
		if lerr != nil {
			return nil, lerr
		}
		e, err = core.Restore(mk, cfg, st)
		if err == nil {
			fmt.Fprintf(os.Stderr, "resumed from %s at generation %d\n", path, e.Gens())
		}
	} else {
		e, err = core.NewEngine(mk, cfg)
	}
	if err != nil {
		return nil, err
	}
	for e.Step() {
		if cerr := ctx.Err(); cerr != nil {
			if werr := writeCheckpoint(e, path); werr != nil {
				return nil, fmt.Errorf("interrupted, and checkpointing failed: %w", werr)
			}
			fmt.Fprintf(os.Stderr, "interrupted at generation %d; checkpoint saved to %s (resume with -resume)\n",
				e.Gens(), path)
			return nil, fmt.Errorf("run interrupted: %w", cerr)
		}
		if every > 0 && e.Gens()%every == 0 {
			if werr := writeCheckpoint(e, path); werr != nil {
				return nil, werr
			}
		}
	}
	if err := e.Err(); err != nil {
		return nil, err
	}
	res, err := e.Result()
	if err != nil {
		return nil, err
	}
	if cfg.Observer != nil {
		cfg.Observer.OnDone(res)
	}
	return res, nil
}

// progressPrinter is the -progress observer: a rate-limited one-line
// status to stderr (generation, evals used, best revenue, best gap,
// evals/sec).
type progressPrinter struct {
	every time.Duration
	mu    sync.Mutex
	start time.Time
	last  time.Time
}

func newProgressPrinter(every time.Duration) *progressPrinter {
	now := time.Now()
	return &progressPrinter{every: every, start: now, last: now}
}

func (p *progressPrinter) OnGeneration(gs core.GenStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if now.Sub(p.last) < p.every {
		return
	}
	p.last = now
	evals := gs.ULEvals + gs.LLEvals
	rate := float64(evals) / now.Sub(p.start).Seconds()
	fmt.Fprintf(os.Stderr,
		"gen %-5d evals %d/%d  best F %.2f  best gap %.3f%%  %.0f evals/s\n",
		gs.Gen, evals, gs.ULBudget+gs.LLBudget, gs.BestRevenue, gs.BestGap, rate)
}

func (p *progressPrinter) OnMigration(ms core.MigrationStats) {}

func (p *progressPrinter) OnDone(res *core.Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rate := float64(res.ULEvals+res.LLEvals) / time.Since(p.start).Seconds()
	fmt.Fprintf(os.Stderr, "done: %d generations, best F %.2f, best gap %.3f%%, %.0f evals/s\n",
		res.Gens, res.Best.Revenue, res.Best.GapPct, rate)
}

func writeCheckpoint(e *core.Engine, path string) error {
	st, err := e.Snapshot()
	if err != nil {
		return err
	}
	return st.WriteFile(path)
}

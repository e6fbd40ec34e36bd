// Command blbench regenerates every table and figure of the paper's
// evaluation section (§V):
//
//	blbench -table 3            # Table III (%-gap per class)
//	blbench -table 4            # Table IV (UL objective values)
//	blbench -fig 4              # Fig 4 (CARBON convergence, n=500 m=30)
//	blbench -fig 5              # Fig 5 (COBRA convergence, same class)
//	blbench -all                # everything, plus the shape report
//	blbench -all -full          # the paper-faithful protocol
//	                            # (30 runs × 50k evals — hours of CPU)
//	blbench -all -csv out/      # also write machine-readable CSVs
//	blbench -fig 4 -svg out/    # render the figures as SVG charts
//	blbench -all -json run.json # persist the raw runs and curves
//	blbench -all -load run.json # re-render from a saved report
//	blbench -taxonomy           # race all four §III architectures
//
// Without -full the quick protocol runs: scaled budgets that preserve
// the qualitative shape of every comparison (see EXPERIMENTS.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"carbon/internal/core"
	"carbon/internal/exp"
	"carbon/internal/orlib"
	"carbon/internal/telemetry"
)

func main() {
	var (
		table   = flag.Int("table", 0, "regenerate one table (3 or 4)")
		fig     = flag.Int("fig", 0, "regenerate one figure (4 or 5)")
		all     = flag.Bool("all", false, "regenerate everything")
		full    = flag.Bool("full", false, "paper-faithful protocol (30 runs × 50k evals)")
		runs    = flag.Int("runs", 0, "override run count")
		workers = flag.Int("workers", 0, "parallel runs (0 = GOMAXPROCS)")
		csvDir  = flag.String("csv", "", "directory for machine-readable CSV output")
		svgDir  = flag.String("svg", "", "directory for SVG figure output")
		jsonOut = flag.String("json", "", "write the raw sweep (runs + curves) as JSON")
		load    = flag.String("load", "", "re-render from a previously saved -json report instead of running")
		taxo    = flag.Bool("taxonomy", false, "race the five bi-level architectures on one class")
		multiC  = flag.Bool("multicustomer", false, "sweep CARBON over 1/2/4 customers on one class")
		quiet   = flag.Bool("q", false, "suppress progress lines")

		trace       = flag.String("trace", "", "write a JSONL trace of every CARBON run to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (JSON and Prometheus text), expvar and pprof on this address while the sweep runs")
	)
	flag.Parse()

	if *table == 0 && *fig == 0 && !*all && !*taxo && !*multiC {
		flag.Usage()
		os.Exit(2)
	}
	// Ctrl-C (or SIGTERM) cancels the sweep at the next run/generation
	// boundary instead of leaving budgets to burn.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	s := exp.Quick()
	if *full {
		s = exp.Full()
	}
	if *runs > 0 {
		s.Runs = *runs
	}
	s.Workers = *workers
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), msg)
		}
	}

	// Live introspection: a JSONL trace of every CARBON run (events are
	// labeled carbon/<class>/run<i>) and a metrics+pprof endpoint with
	// evaluator hot-path metrics aggregated over the whole sweep.
	var traceObs *core.JSONLObserver
	if *trace != "" {
		f, err := os.Create(*trace)
		die(err)
		traceObs = core.NewJSONLObserver(f)
		s.Observer = traceObs
		defer func() { die(traceObs.Close()) }()
	}
	if *metricsAddr != "" {
		s.Metrics = telemetry.NewRegistry()
		addr, stop, err := telemetry.Serve(*metricsAddr, map[string]*telemetry.Registry{"blbench": s.Metrics})
		die(err)
		defer stop()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (also /metrics/prometheus, /debug/vars, /debug/pprof)\n", addr)
	}

	if *taxo {
		cl := orlib.Class{N: 250, M: 10}
		progress(fmt.Sprintf("taxonomy: 4 architectures × %d runs on %v", s.Runs, cl))
		tx, err := exp.RunTaxonomy(cl, s)
		die(err)
		fmt.Println(tx.Render())
	}

	if *multiC {
		cl := orlib.Class{N: 100, M: 5}
		progress(fmt.Sprintf("multi-customer: K in {1,2,4} x %d runs on %v", s.Runs, cl))
		mc, err := exp.RunMultiCustomer(cl, []int{1, 2, 4}, 0.25, s)
		die(err)
		fmt.Println(mc.Render())
	}

	needTables := *all || *table == 3 || *table == 4
	needFigs := *all || *fig == 4 || *fig == 5
	figClass := orlib.Class{N: 500, M: 30} // the class Figs 4/5 use

	var tabs *exp.Tables
	var err error
	if *load != "" {
		f, err := os.Open(*load)
		die(err)
		rep, err := exp.LoadReport(f)
		die(f.Close())
		die(err)
		tabs, err = rep.Tables()
		die(err)
	}
	if needTables {
		if tabs == nil {
			tabs, err = exp.RunTablesContext(ctx, s, progress)
			die(err)
		}
		if *all || *table == 3 {
			fmt.Println(tabs.TableIII())
		}
		if *all || *table == 4 {
			fmt.Println(tabs.TableIV())
		}
		if *all {
			fmt.Println(tabs.ShapeReport())
		}
		if *csvDir != "" {
			die(os.MkdirAll(*csvDir, 0o755))
			die(os.WriteFile(filepath.Join(*csvDir, "tables.csv"), []byte(tabs.CSV()), 0o644))
		}
		if *jsonOut != "" && *load == "" {
			f, err := os.Create(*jsonOut)
			die(err)
			die(exp.BuildReport(s, tabs).Write(f))
			die(f.Close())
		}
	}
	if needFigs {
		var cell *exp.Cell
		// Reuse the sweep's cell when it covered the figure class.
		if tabs != nil {
			for _, c := range tabs.Cells {
				if c.Class == figClass {
					cell = c
					break
				}
			}
		}
		if cell == nil {
			progress(fmt.Sprintf("figures: running class %v", figClass))
			cell, err = exp.RunCellContext(ctx, figClass, s)
			die(err)
		}
		fig4, fig5 := cell.Figures(s.FigPoints)
		if *all || *fig == 4 {
			fmt.Println(fig4.ASCII(64, 10))
		}
		if *all || *fig == 5 {
			fmt.Println(fig5.ASCII(64, 10))
		}
		if *csvDir != "" {
			die(os.MkdirAll(*csvDir, 0o755))
			die(os.WriteFile(filepath.Join(*csvDir, "fig4_carbon.csv"), []byte(fig4.CSV()), 0o644))
			die(os.WriteFile(filepath.Join(*csvDir, "fig5_cobra.csv"), []byte(fig5.CSV()), 0o644))
		}
		if *svgDir != "" {
			die(os.MkdirAll(*svgDir, 0o755))
			die(os.WriteFile(filepath.Join(*svgDir, "fig4_carbon.svg"), []byte(fig4.SVG()), 0o644))
			die(os.WriteFile(filepath.Join(*svgDir, "fig5_cobra.svg"), []byte(fig5.SVG()), 0o644))
		}
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "blbench:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

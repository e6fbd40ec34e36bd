// Command carbonstat analyzes carbon.trace JSONL run logs (schema v1
// or v2): per-run summaries with anomaly flags, convergence/diversity
// tables, operator success totals, champion ancestry, and diffs between
// two traces. Tail-truncated traces (a run killed mid-write) load with
// a warning instead of failing.
//
// Usage:
//
//	carbonstat trace.jsonl                  # per-run summary + anomalies
//	carbonstat -table -every 10 trace.jsonl # convergence/diversity table
//	carbonstat -ops trace.jsonl             # operator success totals
//	carbonstat -ancestry trace.jsonl        # champion provenance chain
//	carbonstat -diff old.jsonl new.jsonl    # metric-by-metric comparison
//	carbonstat -run 'label#0' ...           # restrict to one run
//	carbonstat -spans job.spans.jsonl ...   # per-job waterfall / critical path / retry timeline
//
// -spans reads the <id>.spans.jsonl files carbond writes next to the
// spool (carbon.spans/v1): per-job attempt timelines stitched across
// restarts, a queue/compute/io/backoff breakdown, the critical path,
// per-phase p50/p90 tables, and — given several files — a cross-job
// phase table. Orphan spans (a dropped record's children) exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"carbon/internal/tracestat"
)

func main() {
	var (
		table    = flag.Bool("table", false, "print a convergence/diversity table per run")
		every    = flag.Int("every", 10, "table row spacing in generations (with -table)")
		ops      = flag.Bool("ops", false, "print per-operator success totals per run")
		ancestry = flag.Bool("ancestry", false, "print the champion's provenance chain per run")
		diff     = flag.Bool("diff", false, "diff two traces (two file arguments)")
		runKey   = flag.String("run", "", "restrict to one run ('label#island')")
		spans    = flag.Bool("spans", false, "analyze span files (<id>.spans.jsonl) instead of run traces")
	)
	flag.Parse()

	if *spans {
		if flag.NArg() == 0 {
			fatalf("-spans needs one or more span files")
		}
		if orphans := runSpans(flag.Args()); orphans > 0 {
			fatalf("%d orphan span(s): records were dropped or the file is damaged", orphans)
		}
		return
	}

	if *diff {
		if flag.NArg() != 2 {
			fatalf("-diff needs exactly two trace files")
		}
		if err := diffTraces(flag.Arg(0), flag.Arg(1), *runKey); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: carbonstat [flags] trace.jsonl")
		flag.Usage()
		os.Exit(2)
	}
	f, err := tracestat.LoadFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	if f.Truncated {
		fmt.Fprintln(os.Stderr, "carbonstat: warning: trace is tail-truncated (writer was killed mid-line); final partial event dropped")
	}
	runs := selectRuns(f, *runKey)

	switch {
	case *table:
		for _, r := range runs {
			printTable(r, *every)
		}
	case *ops:
		for _, r := range runs {
			printOps(r)
		}
	case *ancestry:
		for _, r := range runs {
			printAncestry(r)
		}
	default:
		printSummaries(runs)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "carbonstat: "+format+"\n", args...)
	os.Exit(1)
}

func selectRuns(f *tracestat.File, key string) []*tracestat.Run {
	if key == "" {
		if len(f.Runs) == 0 {
			fatalf("trace holds no runs")
		}
		return f.Runs
	}
	r := f.Run(key)
	if r == nil {
		keys := make([]string, 0, len(f.Runs))
		for _, run := range f.Runs {
			keys = append(keys, run.Key())
		}
		fatalf("no run %q in trace (have %v)", key, keys)
	}
	return []*tracestat.Run{r}
}

func printSummaries(runs []*tracestat.Run) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "RUN\tGENS\tUL/LL EVALS\tBEST REVENUE\tBEST GAP%\tDIVERSITY\tSIZE\tMIGR\tDONE")
	for _, r := range runs {
		s := r.Summarize()
		div, size := "-", "-"
		if s.HasSearch {
			div = fmt.Sprintf("%.3f", s.FinalDiversity)
			size = fmt.Sprintf("%.1f", s.FinalSizeMean)
		}
		done := "no"
		if s.Done {
			done = "yes"
		}
		fmt.Fprintf(w, "%s\t%d\t%d/%d\t%.4f\t%.4f\t%s\t%s\t%d\t%s\n",
			s.Key, s.Gens, s.ULEvals, s.LLEvals, s.BestRevenue, s.BestGap, div, size, s.Migrations, done)
	}
	w.Flush()
	for _, r := range runs {
		for _, a := range r.Summarize().Anomalies {
			fmt.Printf("!! %s: %s at gen %d: %s\n", r.Key(), a.Kind, a.Gen, a.Detail)
		}
	}
}

func printTable(r *tracestat.Run, every int) {
	fmt.Printf("== %s ==\n", r.Key())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "GEN\tBEST REV\tBEST GAP%\tDIVERSITY\tENTROPY\tSIZE\tGAP P50\tARCH +UL/+GP")
	for _, row := range r.Table(every) {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\t%.3f\t%.3f\t%.1f\t%.4f\t%d/%d\n",
			row.Gen, row.BestRevenue, row.BestGap, row.Diversity, row.Entropy,
			row.SizeMean, row.GapP50, row.ULArchAdds, row.GPArchAdds)
	}
	w.Flush()
}

func printOps(r *tracestat.Run) {
	fmt.Printf("== %s ==\n", r.Key())
	totals := r.OperatorTotals()
	if len(totals) == 0 {
		fmt.Println("(no operator statistics — v1 trace or single generation)")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "OPERATOR\tOFFSPRING\tIMPROVED\tRATE")
	for _, op := range totals {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f%%\n",
			op.Op, op.Count, op.Improved, 100*float64(op.Improved)/float64(op.Count))
	}
	w.Flush()
}

func printAncestry(r *tracestat.Run) {
	fmt.Printf("== %s ==\n", r.Key())
	if r.Done == nil || len(r.Done.Ancestry) == 0 {
		fmt.Println("(no ancestry — v1 trace, unfinished run, or lineage tracking off)")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tGEN\tOP\tFITNESS\tPARENTS\tEXPR")
	for _, rec := range r.Done.Ancestry {
		expr := rec.Expr
		if len(expr) > 60 {
			expr = expr[:57] + "..."
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%.4f\t%v\t%s\n",
			rec.ID, rec.Gen, rec.Op, rec.Fitness, rec.Parents, expr)
	}
	w.Flush()
}

func diffTraces(pathA, pathB, key string) error {
	fa, err := tracestat.LoadFile(pathA)
	if err != nil {
		return err
	}
	fb, err := tracestat.LoadFile(pathB)
	if err != nil {
		return err
	}
	pick := func(f *tracestat.File, path string) (*tracestat.Run, error) {
		if key != "" {
			if r := f.Run(key); r != nil {
				return r, nil
			}
			return nil, fmt.Errorf("%s: no run %q", path, key)
		}
		if len(f.Runs) == 0 {
			return nil, fmt.Errorf("%s: trace holds no runs", path)
		}
		return f.Runs[0], nil
	}
	ra, err := pick(fa, pathA)
	if err != nil {
		return err
	}
	rb, err := pick(fb, pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s (%s)\nB: %s (%s)\n", pathA, ra.Key(), pathB, rb.Key())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "METRIC\tA\tB\tDELTA")
	for _, row := range tracestat.Diff(ra, rb) {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%+.4f\n", row.Metric, row.A, row.B, row.Delta)
	}
	return w.Flush()
}

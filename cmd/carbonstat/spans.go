package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"carbon/internal/tracestat"
)

// runSpans is the `-spans` mode: per-job waterfall and critical-path
// breakdown from <id>.spans.jsonl files, plus a cross-job phase table
// when more than one file is given. Returns the number of defects
// (orphan spans) found, so the caller can exit non-zero on a damaged
// trace.
func runSpans(paths []string) (orphans int) {
	trees := make([]*tracestat.SpanTree, 0, len(paths))
	for _, path := range paths {
		tree, err := tracestat.LoadSpansFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		if tree.Truncated {
			fmt.Fprintf(os.Stderr, "carbonstat: warning: %s is tail-truncated (writer was killed mid-line)\n", path)
		}
		printSpanTree(path, tree)
		orphans += len(tree.Orphans)
		trees = append(trees, tree)
	}
	if len(trees) > 1 {
		fmt.Printf("== cross-job phases (%d traces) ==\n", len(trees))
		printPhaseTable(tracestat.SpanPhases(trees...))
	}
	return orphans
}

func printSpanTree(path string, t *tracestat.SpanTree) {
	fmt.Printf("== %s ==\n", path)
	if t.Len() == 0 {
		fmt.Println("(empty span file)")
		return
	}
	wall := time.Duration(t.WallNS())
	fmt.Printf("trace %s  spans %d  wall %s\n", strings.Join(t.Traces, ","), t.Len(), fmtDur(wall))

	// Retry timeline: one row per attempt, stitched across restarts.
	if atts := t.Attempts(); len(atts) > 0 {
		base := t.Roots[0].Record.StartNS
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "ATTEMPT\tSTART\tDURATION\tGENS\tFLAGS\tERROR")
		for _, a := range atts {
			var flags []string
			if a.Resumed {
				flags = append(flags, "resumed")
			}
			if a.Remote {
				flags = append(flags, "restarted-process")
			}
			if a.Open {
				flags = append(flags, "OPEN")
			}
			fl := strings.Join(flags, ",")
			if fl == "" {
				fl = "-"
			}
			errStr := a.Error
			if errStr == "" {
				errStr = "-"
			}
			fmt.Fprintf(w, "%d\t+%s\t%s\t%d\t%s\t%s\n",
				a.Number, fmtDur(time.Duration(a.StartNS-base)),
				fmtDur(time.Duration(a.EndNS-a.StartNS)), a.Gens, fl, errStr)
		}
		w.Flush()
	}

	// Where the time went, deepest span wins: queue vs compute vs io vs
	// backoff, plus unattributed gaps (time no span claims — e.g. the
	// stretch a crashed incarnation was dead).
	b := t.Breakdown()
	kinds := make([]string, 0, len(b.ByKind))
	for k := range b.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return b.ByKind[kinds[i]] > b.ByKind[kinds[j]] })
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KIND\tTIME\t%WALL")
	for _, k := range kinds {
		fmt.Fprintf(w, "%s\t%s\t%.1f%%\n", k, fmtDur(b.ByKind[k]), pct(b.ByKind[k], wall))
	}
	if gap := b.Wall - b.Covered; gap > 0 {
		fmt.Fprintf(w, "(untracked)\t%s\t%.1f%%\n", fmtDur(gap), pct(gap, wall))
	}
	w.Flush()

	// The chain of spans that gated completion.
	fmt.Println("critical path:")
	base := t.Roots[0].Record.StartNS
	for i, n := range t.CriticalPath() {
		open := ""
		if n.Open {
			open = "  (open)"
		}
		fmt.Printf("  %s%s  +%s  %s%s\n",
			strings.Repeat("· ", i), n.Record.Name,
			fmtDur(time.Duration(n.Record.StartNS-base)), fmtDur(n.Duration()), open)
	}

	fmt.Println("phases:")
	printPhaseTable(tracestat.SpanPhases(t))

	for _, o := range t.Orphans {
		fmt.Printf("!! orphan span %s (%s): parent %s missing from file\n",
			o.Record.Span, o.Record.Name, o.Record.Parent)
	}
}

func printPhaseTable(phases []tracestat.SpanPhase) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "PHASE\tKIND\tCOUNT\tP50\tP90\tMAX\tTOTAL")
	for _, p := range phases {
		kind := p.Kind
		if kind == "" {
			kind = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\t%s\t%s\n",
			p.Name, kind, p.Count, fmtDur(p.P50), fmtDur(p.P90), fmtDur(p.Max), fmtDur(p.Total))
	}
	w.Flush()
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// fmtDur trims time.Duration's default rendering to three significant
// digits — span tables are for eyeballing ratios, not nanosecond hex.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

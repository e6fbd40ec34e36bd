// Command gpview inspects evolved heuristics: it parses an S-expression
// over the paper's Table I primitive set (or the multi-level policy set),
// reports size and depth, algebraically simplifies it, and optionally
// evaluates it against an environment vector or benchmarks it on a
// generated instance.
//
// Usage:
//
//	gpview '(% (* q d) c)'
//	gpview -env 2,3,5,7,11 '(+ c (* q d))'
//	gpview -apply -n 100 -m 10 '(% (* q d) c)'   # gap on a class instance
//	gpview -trace run.jsonl                      # champion ancestry from a trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/multilevel"
	"carbon/internal/orlib"
	"carbon/internal/tracestat"
)

func main() {
	var (
		setName  = flag.String("set", "covering", "primitive set: covering | policy")
		envCSV   = flag.String("env", "", "comma-separated environment to evaluate against")
		apply    = flag.Bool("apply", false, "apply as a greedy heuristic to a generated instance")
		n        = flag.Int("n", 100, "instance bundles (with -apply)")
		m        = flag.Int("m", 5, "instance constraints (with -apply)")
		idx      = flag.Int("instance", 0, "instance index (with -apply)")
		tracePth = flag.String("trace", "", "show the champion's ancestry from this trace file instead of parsing an expression")
		runKey   = flag.String("run", "", "restrict -trace to one run ('label#island')")
	)
	flag.Parse()

	var set *gp.Set
	switch *setName {
	case "covering":
		set = covering.TableISet()
	case "policy":
		set = multilevel.PolicySet()
	default:
		fmt.Fprintf(os.Stderr, "gpview: unknown set %q\n", *setName)
		os.Exit(2)
	}

	if *tracePth != "" {
		if err := showAncestry(set, *setName, *tracePth, *runKey); err != nil {
			fmt.Fprintln(os.Stderr, "gpview:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gpview [flags] '<s-expression>'  |  gpview -trace run.jsonl")
		flag.Usage()
		os.Exit(2)
	}
	src := flag.Arg(0)

	tree, err := gp.Parse(set, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpview:", err)
		os.Exit(1)
	}
	fmt.Printf("expression: %s\n", tree.String(set))
	fmt.Printf("size: %d nodes, depth: %d, constants: %d\n",
		tree.Size(), tree.Depth(set), tree.ConstCount())
	simp := gp.Simplify(set, tree)
	if !simp.Equal(tree) {
		fmt.Printf("simplified: %s (size %d)\n", simp.String(set), simp.Size())
	} else {
		fmt.Println("simplified: (already minimal)")
	}
	fmt.Printf("terminals: %s\n", strings.Join(set.Terms, ", "))

	if *envCSV != "" {
		parts := strings.Split(*envCSV, ",")
		if len(parts) != len(set.Terms) {
			fmt.Fprintf(os.Stderr, "gpview: env needs %d values (%s)\n",
				len(set.Terms), strings.Join(set.Terms, ","))
			os.Exit(1)
		}
		env := make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gpview:", err)
				os.Exit(1)
			}
			env[i] = v
		}
		fmt.Printf("value at env %v: %g\n", env, tree.Eval(set, env))
	}

	if *apply {
		if *setName != "covering" {
			fmt.Fprintln(os.Stderr, "gpview: -apply supports the covering set only")
			os.Exit(1)
		}
		in, err := orlib.GenerateCovering(orlib.Class{N: *n, M: *m}, *idx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpview:", err)
			os.Exit(1)
		}
		rx, err := in.Relax()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpview:", err)
			os.Exit(1)
		}
		prog, err := gp.Compile(set, tree)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpview:", err)
			os.Exit(1)
		}
		scores := make([]float64, in.M())
		covering.ScoreProgramInto(in, rx, gp.NewVM(), prog, scores)
		res := in.GreedyByScore(scores, true)
		if !res.Feasible {
			fmt.Println("heuristic result: INFEASIBLE")
			os.Exit(1)
		}
		fmt.Printf("applied to n=%d m=%d instance %d: cost %.0f, LP bound %.2f, gap %.3f%%\n",
			*n, *m, *idx, res.Cost, rx.LB, covering.Gap(res.Cost, rx.LB))
	}
}

// showAncestry prints each run's champion provenance chain from a trace
// file, parsing and simplifying every recorded expression with the
// chosen primitive set so the lineage reads as heuristics, not IDs.
func showAncestry(set *gp.Set, setName, path, runKey string) error {
	f, err := tracestat.LoadFile(path)
	if err != nil {
		return err
	}
	runs := f.Runs
	if runKey != "" {
		r := f.Run(runKey)
		if r == nil {
			return fmt.Errorf("no run %q in %s", runKey, path)
		}
		runs = []*tracestat.Run{r}
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s holds no runs", path)
	}
	for _, r := range runs {
		fmt.Printf("== %s ==\n", r.Key())
		if r.Done == nil || len(r.Done.Ancestry) == 0 {
			fmt.Println("(no ancestry — v1 trace, unfinished run, or lineage tracking off)")
			continue
		}
		for i, rec := range r.Done.Ancestry {
			role := "ancestor"
			if i == 0 {
				role = "champion"
			}
			fmt.Printf("%s #%d (gen %d, via %s", role, rec.ID, rec.Gen, rec.Op)
			if len(rec.Parents) > 0 {
				fmt.Printf(" of %v", rec.Parents)
			}
			fmt.Print(")")
			if rec.Fitness != 0 {
				fmt.Printf(" gap %.4f%%", rec.Fitness)
			}
			fmt.Println()
			if rec.Expr == "" {
				continue
			}
			tree, perr := gp.Parse(set, rec.Expr)
			if perr != nil {
				fmt.Printf("  expr: %s (unparseable with -set %s: %v)\n", rec.Expr, setName, perr)
				continue
			}
			fmt.Printf("  expr: %s\n", tree.String(set))
			if simp := gp.Simplify(set, tree); !simp.Equal(tree) {
				fmt.Printf("  simplified: %s\n", simp.String(set))
			}
		}
	}
	return nil
}

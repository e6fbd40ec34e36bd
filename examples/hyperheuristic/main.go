// GP hyper-heuristics in isolation: evolve a covering heuristic from
// scratch (Burke-style generation, §IV-A of the paper) on a fixed set of
// training instances and compare it against classic hand-written
// orderings on held-out instances.
//
// This is the predator half of CARBON without the co-evolution: a plain
// generational GP whose fitness is the mean %-gap over the training set.
package main

import (
	"fmt"
	"log"

	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/orlib"
	"carbon/internal/rng"
)

type instanceData struct {
	in *covering.Instance
	rx *covering.Relaxation
}

func load(cl orlib.Class, indices []int) []instanceData {
	var out []instanceData
	for _, idx := range indices {
		in, err := orlib.GenerateCovering(cl, idx)
		if err != nil {
			log.Fatal(err)
		}
		rx, err := in.Relax()
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, instanceData{in, rx})
	}
	return out
}

// meanGap compiles the tree, applies the tree-driven greedy to every
// instance and averages the %-gap to the LP bound.
func meanGap(set *gp.Set, tree gp.Tree, data []instanceData) float64 {
	prog, err := gp.Compile(set, tree)
	if err != nil {
		log.Fatal(err)
	}
	vm := gp.NewVM()
	total := 0.0
	for _, d := range data {
		scores := make([]float64, d.in.M())
		covering.ScoreProgramInto(d.in, d.rx, vm, prog, scores)
		res := d.in.GreedyByScore(scores, true)
		if !res.Feasible {
			return 1e9
		}
		total += covering.Gap(res.Cost, d.rx.LB)
	}
	return total / float64(len(data))
}

func main() {
	cl := orlib.Class{N: 100, M: 10}
	train := load(cl, []int{0, 1, 2})
	test := load(cl, []int{10, 11, 12, 13})
	set := covering.TableISet()
	r := rng.New(7)

	// Hand-written baselines expressed in the same language.
	baselines := []struct{ name, expr string }{
		{"cheapest first (-c)", "(- (- b b) c)"},
		{"coverage/cost", "(% q c)"},
		{"dual-guided (q·d)/c", "(% (* q d) c)"},
		{"LP rounding bias (x̄)", "xbar"},
	}

	fmt.Printf("training on %d instances of %v, testing on %d\n\n", len(train), cl, len(test))
	fmt.Printf("%-28s %12s %12s\n", "heuristic", "train gap%", "test gap%")
	for _, b := range baselines {
		tree := gp.MustParse(set, b.expr)
		fmt.Printf("%-28s %12.3f %12.3f\n", b.name,
			meanGap(set, tree, train), meanGap(set, tree, test))
	}

	// Plain generational GP: tournament(3), one-point crossover 0.85,
	// uniform mutation 0.10, reproduction 0.05 (Table II's GP rows).
	const popSize, gens = 40, 25
	lim := gp.DefaultLimits()
	pop := make([]gp.Tree, popSize)
	fit := make([]float64, popSize)
	for i := range pop {
		pop[i] = set.Ramped(r, 1, 4)
	}
	best := pop[0]
	bestFit := 1e18
	for g := 0; g < gens; g++ {
		for i := range pop {
			fit[i] = meanGap(set, pop[i], train)
			if fit[i] < bestFit {
				bestFit, best = fit[i], pop[i].Clone()
			}
		}
		next := []gp.Tree{best.Clone()} // elitism
		better := func(i, j int) bool { return fit[i] < fit[j] }
		tournament := func() gp.Tree {
			bi := r.Intn(popSize)
			for k := 0; k < 2; k++ {
				c := r.Intn(popSize)
				if better(c, bi) {
					bi = c
				}
			}
			return pop[bi]
		}
		for len(next) < popSize {
			switch u := r.Float64(); {
			case u < 0.85:
				c1, c2 := gp.OnePointCrossover(r, set, tournament(), tournament(), lim)
				next = append(next, c1)
				if len(next) < popSize {
					next = append(next, c2)
				}
			case u < 0.95:
				next = append(next, gp.UniformMutate(r, set, tournament(), 3, lim))
			default:
				next = append(next, tournament().Clone())
			}
		}
		pop = next
	}

	fmt.Printf("%-28s %12.3f %12.3f\n", "evolved (GP, 25 gens)",
		meanGap(set, best, train), meanGap(set, best, test))
	fmt.Printf("\nevolved heuristic: %s\n", best.String(set))
	fmt.Println("\nThe evolved scorer is trained only on the training instances; its")
	fmt.Println("test-set gap shows the generated heuristic generalizes across")
	fmt.Println("instances of the class — the property CARBON exploits when prey")
	fmt.Println("decisions keep inducing fresh lower-level instances.")
}

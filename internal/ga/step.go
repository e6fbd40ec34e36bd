package ga

import (
	"math"

	"carbon/internal/rng"
)

// Step is Table II's generational step for a real-coded population:
// elitism, then binary tournaments, SBX with probability CrossProb and
// polynomial mutation of every child. Every upper level in this
// repository (CARBON's prey, COBRA, the nested and CODBA baselines and
// the multi-level leader) breeds with it, so architecture comparisons
// never differ in their operators.
type Step struct {
	Elites    int     // best individuals copied unchanged
	CrossProb float64 // SBX probability per tournament pair
	SBXEta    float64 // SBX distribution index
	MutProb   float64 // polynomial mutation probability per gene
	PolyEta   float64 // polynomial mutation distribution index
}

// Parents records where one offspring came from: indices into the
// parent population, P2 = -1 for a child with one parent (an elite, or
// a tournament winner that skipped crossover).
type Parents struct{ P1, P2 int }

// Nearest returns whichever of p's parents in pop lies nearer child in
// L1 distance: P1 on a tie or when there is no P2. A child's lower-level
// LP differs from a parent's only in the prices, so the nearer parent's
// final LP basis is the better place for the child's solve to start.
func (p Parents) Nearest(child []float64, pop [][]float64) int {
	if p.P2 < 0 || l1(child, pop[p.P2]) >= l1(child, pop[p.P1]) {
		return p.P1
	}
	return p.P2
}

func l1(a, b []float64) float64 {
	d := 0.0
	for i, v := range a {
		d += math.Abs(v - b[i])
	}
	return d
}

// Breed returns the next generation of pop, the same size, and each
// child's parents. better(i, j) reports whether individual i beats j.
// The first min(Elites, len(pop)) children are the elites, best first;
// every later pair shares both parents exactly when SBX made it.
func (s Step) Breed(r *rng.Rand, pop [][]float64, better func(i, j int) bool, bounds Bounds) ([][]float64, []Parents) {
	next := make([][]float64, 0, len(pop))
	parents := make([]Parents, 0, len(pop))
	for _, e := range TopK(len(pop), s.Elites, better) {
		next = append(next, append([]float64(nil), pop[e]...))
		parents = append(parents, Parents{e, -1})
	}
	for len(next) < len(pop) {
		i1 := BinaryTournament(r, len(pop), better)
		i2 := BinaryTournament(r, len(pop), better)
		var c1, c2 []float64
		o1, o2 := Parents{i1, -1}, Parents{i2, -1}
		if r.Bool(s.CrossProb) {
			c1, c2 = SBX(r, pop[i1], pop[i2], bounds, s.SBXEta)
			o1 = Parents{i1, i2}
			o2 = o1
		} else {
			c1 = append([]float64(nil), pop[i1]...)
			c2 = append([]float64(nil), pop[i2]...)
		}
		PolynomialMutateInPlace(r, c1, bounds, s.PolyEta, s.MutProb)
		PolynomialMutateInPlace(r, c2, bounds, s.PolyEta, s.MutProb)
		next = append(next, c1)
		parents = append(parents, o1)
		if len(next) < len(pop) {
			next = append(next, c2)
			parents = append(parents, o2)
		}
	}
	return next, parents
}

// TopK returns the indices of the min(k, n) best of n individuals under
// better, best first. k is an elite count, so a partial selection sort
// is the cheapest exact choice.
func TopK(n, k int, better func(i, j int) bool) []int {
	if k <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	k = min(k, n)
	for sel := 0; sel < k; sel++ {
		best := sel
		for i := sel + 1; i < n; i++ {
			if better(idx[i], idx[best]) {
				best = i
			}
		}
		idx[sel], idx[best] = idx[best], idx[sel]
	}
	return idx[:k]
}

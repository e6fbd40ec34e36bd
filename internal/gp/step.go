package gp

import (
	"carbon/internal/ga"
	"carbon/internal/rng"
)

// Step is the generational step for a tree population, DEAP's varOr
// over Table II's GP probabilities: after elitism each offspring comes
// from one-point crossover (CrossProb), uniform mutation (MutProb) or
// reproduction (the rest), with parents picked by size-TournK
// tournaments. CARBON's predators and the multi-level policy and
// customer populations all breed with it.
type Step struct {
	Elites    int
	CrossProb float64
	MutProb   float64
	TournK    int
	GrowDepth int // depth of the subtrees uniform mutation grows
	Limits    Limits
}

// Variation names the operator that produced an offspring.
type Variation uint8

const (
	Elite Variation = iota
	Crossover
	Mutation
	Reproduction
)

// Origin records how one offspring was made: the operator and its
// parents' indices (P2 = -1 unless Op is Crossover).
type Origin struct {
	Op     Variation
	P1, P2 int
}

// Breed returns the next generation of pop, the same size, and each
// child's origin. better(i, j) reports whether individual i beats j.
func (st Step) Breed(r *rng.Rand, s *Set, pop []Tree, better func(i, j int) bool) ([]Tree, []Origin) {
	next := make([]Tree, 0, len(pop))
	origins := make([]Origin, 0, len(pop))
	for _, e := range ga.TopK(len(pop), st.Elites, better) {
		next = append(next, pop[e].Clone())
		origins = append(origins, Origin{Elite, e, -1})
	}
	pick := func() int { return ga.Tournament(r, len(pop), st.TournK, better) }
	for len(next) < len(pop) {
		u := r.Float64()
		switch {
		case u < st.CrossProb:
			i1 := pick()
			i2 := pick()
			c1, c2 := OnePointCrossover(r, s, pop[i1], pop[i2], st.Limits)
			next = append(next, c1)
			origins = append(origins, Origin{Crossover, i1, i2})
			if len(next) < len(pop) {
				next = append(next, c2)
				origins = append(origins, Origin{Crossover, i1, i2})
			}
		case u < st.CrossProb+st.MutProb:
			i := pick()
			next = append(next, UniformMutate(r, s, pop[i], st.GrowDepth, st.Limits))
			origins = append(origins, Origin{Mutation, i, -1})
		default:
			i := pick()
			next = append(next, pop[i].Clone())
			origins = append(origins, Origin{Reproduction, i, -1})
		}
	}
	return next, origins
}

package gp

import (
	"testing"

	"carbon/internal/rng"
)

func TestStepBreed(t *testing.T) {
	s := testSet()
	r := rng.New(5)
	pop := make([]Tree, 9)
	fit := make([]float64, len(pop))
	for i := range pop {
		pop[i] = s.Ramped(r, 1, 4)
		fit[i] = float64((i * 4) % 9) // lowest is index 0
	}
	lower := func(i, j int) bool { return fit[i] < fit[j] }
	lim := Limits{MaxDepth: 6, MaxSize: 40}
	base := Step{Elites: 1, TournK: 3, GrowDepth: 3, Limits: lim}

	for _, c := range []struct {
		cross, mut float64
		op         Variation
	}{
		{1, 0, Crossover},
		{0, 1, Mutation},
		{0, 0, Reproduction},
	} {
		st := base
		st.CrossProb, st.MutProb = c.cross, c.mut
		next, origins := st.Breed(r, s, pop, lower)
		if len(next) != len(pop) || len(origins) != len(pop) {
			t.Fatalf("op %d: bred %d children, %d origins", c.op, len(next), len(origins))
		}
		if origins[0] != (Origin{Elite, 0, -1}) || !next[0].Equal(pop[0]) {
			t.Fatalf("op %d: elite origin %v", c.op, origins[0])
		}
		for i := 1; i < len(next); i++ {
			o := origins[i]
			if o.Op != c.op || (o.P2 >= 0) != (c.op == Crossover) {
				t.Fatalf("op %d: child %d origin %v", c.op, i, o)
			}
			if c.op == Reproduction && !next[i].Equal(pop[o.P1]) {
				t.Fatalf("child %d is not a copy of its parent", i)
			}
			if next[i].Depth(s) > lim.MaxDepth || next[i].Size() > lim.MaxSize {
				t.Fatalf("op %d: child %d breaks the limits", c.op, i)
			}
			if err := next[i].Check(s); err != nil {
				t.Fatalf("op %d: child %d: %v", c.op, i, err)
			}
		}
	}
}

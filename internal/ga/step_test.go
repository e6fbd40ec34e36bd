package ga

import (
	"slices"
	"testing"

	"carbon/internal/rng"
)

func TestStepBreed(t *testing.T) {
	r := rng.New(3)
	b := unitBounds(4)
	pop := make([][]float64, 7)
	fit := make([]float64, len(pop))
	for i := range pop {
		pop[i] = b.RandomVector(r)
		fit[i] = float64((i * 5) % 7) // best is index 4, then 1
	}
	better := func(i, j int) bool { return fit[i] > fit[j] }

	next, parents := Step{Elites: 2, CrossProb: 0.85, SBXEta: 15, MutProb: 0.1, PolyEta: 20}.Breed(r, pop, better, b)
	if len(next) != len(pop) || len(parents) != len(pop) {
		t.Fatalf("bred %d children, %d parent records, want %d", len(next), len(parents), len(pop))
	}
	for i, e := range []int{4, 1} {
		if parents[i] != (Parents{e, -1}) || !slices.Equal(next[i], pop[e]) || &next[i][0] == &pop[e][0] {
			t.Fatalf("elite %d: parents %v, want a copy of %d", i, parents[i], e)
		}
	}
	for i, c := range next {
		for g, v := range c {
			if v < b.Lo[g] || v > b.Up[g] {
				t.Fatalf("child %d gene %d = %v outside bounds", i, g, v)
			}
		}
	}

	// Without crossover or mutation every later child is a tournament
	// winner's copy with one parent.
	next, parents = Step{Elites: 1}.Breed(r, pop, better, b)
	for i := 1; i < len(next); i++ {
		p := parents[i]
		if p.P2 != -1 || !slices.Equal(next[i], pop[p.P1]) {
			t.Fatalf("child %d: parents %v, not a copy of its parent", i, p)
		}
	}

	// Always crossing: children come in pairs sharing both parents.
	_, parents = Step{CrossProb: 1, SBXEta: 15}.Breed(r, pop, better, b)
	for i := 0; i+1 < len(parents); i += 2 {
		if parents[i].P2 < 0 || parents[i] != parents[i+1] {
			t.Fatalf("SBX pair %d: %v / %v", i, parents[i], parents[i+1])
		}
	}
}

func TestParentsNearest(t *testing.T) {
	pop := [][]float64{{0, 0}, {4, 4}, {1, 1}}
	for _, c := range []struct {
		p     Parents
		child []float64
		want  int
	}{
		{Parents{0, -1}, []float64{4, 4}, 0}, // one parent
		{Parents{0, 1}, []float64{3, 3}, 1},
		{Parents{0, 1}, []float64{1, 0}, 0},
		{Parents{0, 1}, []float64{2, 2}, 0}, // tie goes to P1
		{Parents{1, 0}, []float64{2, 2}, 1},
		{Parents{2, 1}, []float64{0, 0}, 2},
	} {
		if got := c.p.Nearest(c.child, pop); got != c.want {
			t.Errorf("%+v.Nearest(%v) = %d, want %d", c.p, c.child, got, c.want)
		}
	}
}

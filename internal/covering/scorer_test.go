package covering

import (
	"fmt"
	"math"
	"testing"

	"carbon/internal/gp"
	"carbon/internal/rng"
)

// coverInstance draws an M-item, N-service instance in which every
// service has at least one covering item, so it is feasible at any M
// (randomInstance can draw an all-zero row when M is tiny).
func coverInstance(t testing.TB, r *rng.Rand, m, n int) *Instance {
	t.Helper()
	c := make([]float64, m)
	for j := range c {
		c[j] = float64(r.IntRange(1, 100))
	}
	q := make([][]float64, n)
	b := make([]float64, n)
	for k := range q {
		q[k] = make([]float64, m)
		for j := range q[k] {
			if r.Bool(0.5) {
				q[k][j] = float64(r.IntRange(1, 9))
			}
		}
		q[k][r.Intn(m)] = float64(r.IntRange(1, 9))
		sum := 0.0
		for _, v := range q[k] {
			sum += v
		}
		b[k] = math.Max(1, math.Floor(sum*r.Range(0.2, 0.6)))
	}
	in, err := New(c, q, b)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sharedPopulation draws n trees over set the way crossover shapes a
// population: a few fresh trees, then duplicates of earlier trees and
// trees joining two earlier ones under a binary operator, so earlier
// roots become interior nodes shared by later trees.
func sharedPopulation(t testing.TB, set *gp.Set, r *rng.Rand, n int) []gp.Tree {
	t.Helper()
	var binary []string
	for _, op := range set.Ops {
		if op.Arity == 2 {
			binary = append(binary, op.Name)
		}
	}
	pop := make([]gp.Tree, 0, n)
	for len(pop) < n {
		if len(pop) < 3 {
			pop = append(pop, set.Ramped(r, 1, 4))
			continue
		}
		a, b := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
		switch {
		case r.Bool(0.25):
			pop = append(pop, a.Clone())
		case a.Size()+b.Size() >= 200:
			pop = append(pop, set.Ramped(r, 1, 4))
		default:
			src := fmt.Sprintf("(%s %s %s)", binary[r.Intn(len(binary))], a.String(set), b.String(set))
			tree, err := gp.Parse(set, src)
			if err != nil {
				t.Fatal(err)
			}
			pop = append(pop, tree)
		}
	}
	return pop
}

// ScoreProgramInto must reproduce TreeScorer.Score bit for bit at item
// counts on both sides of the lane block boundary, for Table I trees
// with constants, for the extension builtins (neg/min/max) and for
// custom operators that take the VM's generic call path — one of them
// (ln) turns some lanes NaN or -Inf while its neighbours stay finite.
// ScoreForestInto must do the same for every tree of a population with
// shared subtrees and duplicates, on 500 items so the block loop runs:
// there a NaN that one tree's root collapses to 0 in its own row is
// still NaN to the trees that contain it.
func TestScoreProgramIntoMatchesTreeScorer(t *testing.T) {
	withConsts := TableISet()
	withConsts.ConstProb, withConsts.ConstMin, withConsts.ConstMax = 0.25, -3, 3
	sets := map[string]*gp.Set{
		"tableI": withConsts,
		"extension": {Ops: []gp.Op{gp.Add, gp.Sub, gp.Mul, gp.Div, gp.Mod, gp.Neg, gp.Min, gp.Max},
			Terms: TableITerms},
		"custom": {Ops: []gp.Op{
			gp.Add, gp.Mod,
			{Name: "ln", Arity: 1, F1: math.Log},
			{Name: "hyp", Arity: 2, F2: math.Hypot},
			{Name: "rsub", Arity: 2, F2: func(a, b float64) float64 { return b - a }},
		}, Terms: TableITerms},
	}
	vm := gp.NewVM() // shared across widths: the stack regrows as needed
	for _, m := range []int{1, 127, 128, 129, 500} {
		r := rng.New(uint64(m))
		in := coverInstance(t, r, m, 7)
		rx, err := in.Relax()
		if err != nil {
			t.Fatal(err)
		}
		for name, set := range sets {
			ts := NewTreeScorer(set, in, rx)
			want := make([]float64, m)
			got := make([]float64, m)
			for trial := 0; trial < 15; trial++ {
				tree := set.Ramped(r, 0, 6)
				prog, err := gp.Compile(set, tree)
				if err != nil {
					t.Fatal(err)
				}
				ts.Score(tree, want)
				for j := range got {
					got[j] = math.NaN() // ScoreProgramInto must overwrite, not add to, stale scores
				}
				ScoreProgramInto(in, rx, vm, prog, got)
				for j := range want {
					if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
						t.Fatalf("M=%d %s %s: item %d scored %v (%x) by the tree, %v (%x) by the program",
							m, name, tree.String(set), j, want[j], math.Float64bits(want[j]),
							got[j], math.Float64bits(got[j]))
					}
				}
			}
			if m == 500 {
				checkForestScores(t, set, name, in, rx, vm, sharedPopulation(t, set, r, 40))
			}
		}
	}
}

// checkForestScores compiles pop into one forest, scores it with
// ScoreForestInto and checks every tree's row against TreeScorer.Score.
func checkForestScores(t *testing.T, set *gp.Set, name string, in *Instance, rx *Relaxation, vm *gp.VM, pop []gp.Tree) {
	t.Helper()
	var f gp.Forest
	f.Compile(set, pop)
	if f.Rows() >= len(pop) {
		t.Fatalf("%s: %d distinct roots for %d trees with duplicates", name, f.Rows(), len(pop))
	}
	m := in.M()
	slab := make([]float64, f.Rows()*m)
	for j := range slab {
		slab[j] = math.NaN()
	}
	ScoreForestInto(in, rx, vm, &f, slab)
	ts := NewTreeScorer(set, in, rx)
	want := make([]float64, m)
	for i, tree := range pop {
		row, err := f.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		ts.Score(tree, want)
		got := slab[row*m : (row+1)*m]
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
				t.Fatalf("M=%d %s forest tree %d %s: item %d scored %v (%x) by the tree, %v (%x) by the forest",
					m, name, i, tree.String(set), j, want[j], math.Float64bits(want[j]),
					got[j], math.Float64bits(got[j]))
			}
		}
	}
}

// A forest compile plus a sweep allocates nothing once the forest, the
// VM and the slab have grown: the engine recompiles the population and
// rescores it every generation.
func TestScoreForestZeroAlloc(t *testing.T) {
	set := TableISet()
	r := rng.New(8)
	in := coverInstance(t, r, 300, 6)
	rx, err := in.Relax()
	if err != nil {
		t.Fatal(err)
	}
	pops := [][]gp.Tree{sharedPopulation(t, set, r, 60), sharedPopulation(t, set, r, 60)}
	var f gp.Forest
	vm := gp.NewVM()
	slab := make([]float64, 60*in.M())
	sweep := func() {
		for _, pop := range pops {
			f.Compile(set, pop)
			ScoreForestInto(in, rx, vm, &f, slab)
		}
	}
	sweep() // grow every buffer once
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Fatalf("forest compile + sweep allocates %v per call, want 0", allocs)
	}
}

// treeNear returns the first Table I tree drawn by Grow from seed whose
// size is within one node of target.
func treeNear(set *gp.Set, seed uint64, target int) gp.Tree {
	r := rng.New(seed)
	for {
		tree := set.Grow(r, r.IntRange(1, 7))
		if s := tree.Size(); s >= target-1 && s <= target+1 {
			return tree
		}
	}
}

// BenchmarkScoreProgram is the lane kernel alone: one compiled Table I
// predator scored against a relaxed instance, at the small-gen
// (n100_m5) and paper-scale (n500_m30) shapes, on trees near the mean
// predator sizes of the table-cell (~6 nodes), paper-gen (~12) and
// small-gen (~67) benchmark workloads.
func BenchmarkScoreProgram(b *testing.B) {
	set := TableISet()
	for _, shape := range []struct{ m, n int }{{100, 5}, {500, 30}} {
		in := randomInstance(b, rng.New(uint64(shape.m)), shape.m, shape.n)
		rx, err := in.Relax()
		if err != nil {
			b.Fatal(err)
		}
		for _, target := range []int{6, 12, 67} {
			tree := treeNear(set, uint64(target), target)
			prog, err := gp.Compile(set, tree)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("n%d_m%d/nodes%d", shape.m, shape.n, tree.Size())
			b.Run(name, func(b *testing.B) {
				vm := gp.NewVM()
				scores := make([]float64, in.M())
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ScoreProgramInto(in, rx, vm, prog, scores)
				}
			})
		}
	}
}

// BenchmarkScoreForest is the predator wave's scoring kernel: a
// 100-tree population with shared subtrees and duplicates, compiled
// into one forest and scored against a relaxed instance in one sweep,
// at the small-gen and paper-scale shapes. The compile sub-benchmark
// is the once-per-generation forest compile alone.
func BenchmarkScoreForest(b *testing.B) {
	set := TableISet()
	for _, shape := range []struct{ m, n int }{{100, 5}, {500, 30}} {
		r := rng.New(uint64(shape.m))
		in := randomInstance(b, r, shape.m, shape.n)
		rx, err := in.Relax()
		if err != nil {
			b.Fatal(err)
		}
		pop := sharedPopulation(b, set, r, 100)
		var f gp.Forest
		f.Compile(set, pop)
		name := fmt.Sprintf("n%d_m%d", shape.m, shape.n)
		b.Run(name+"/compile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Compile(set, pop)
			}
		})
		b.Run(fmt.Sprintf("%s/rows%d_ops%d", name, f.Rows(), f.OpNodes()), func(b *testing.B) {
			vm := gp.NewVM()
			slab := make([]float64, f.Rows()*in.M())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ScoreForestInto(in, rx, vm, &f, slab)
			}
		})
	}
}

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

// ScoreProgramInto must reproduce TreeScorer.Score bit for bit at item
// counts on both sides of the lane block boundary, for Table I trees
// with constants, for the extension builtins (neg/min/max) and for
// custom operators that take the VM's generic call path — one of them
// (ln) turns some lanes NaN or -Inf while its neighbours stay finite.
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
		}
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
			prog, err := gp.Compile(set, treeNear(set, uint64(target), target))
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("n%d_m%d/nodes%d", shape.m, shape.n, prog.Size())
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

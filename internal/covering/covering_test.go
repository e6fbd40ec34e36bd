package covering

import (
	"math"
	"testing"

	"carbon/internal/gp"
	"carbon/internal/rng"
)

// tiny returns a hand-checkable instance: item 0 covers both services
// for cost 3; items 1 and 2 cover one service each for cost 2.
// Optimum: {0} at cost 3.
func tiny(t *testing.T) *Instance {
	t.Helper()
	in, err := New(
		[]float64{3, 2, 2},
		[][]float64{
			{1, 1, 0},
			{1, 0, 1},
		},
		[]float64{1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// randomInstance builds a feasible random covering instance.
func randomInstance(t testing.TB, r *rng.Rand, m, n int) *Instance {
	t.Helper()
	c := make([]float64, m)
	q := make([][]float64, n)
	b := make([]float64, n)
	for j := 0; j < m; j++ {
		c[j] = float64(r.IntRange(1, 100))
	}
	for k := 0; k < n; k++ {
		q[k] = make([]float64, m)
		rowSum := 0.0
		for j := 0; j < m; j++ {
			if r.Bool(0.5) {
				q[k][j] = float64(r.IntRange(1, 9))
				rowSum += q[k][j]
			}
		}
		b[k] = math.Max(1, math.Floor(rowSum*r.Range(0.2, 0.6)))
	}
	in, err := New(c, q, b)
	if err != nil {
		t.Fatal(err)
	}
	if !in.FullSelectionFeasible() {
		t.Fatal("random instance infeasible")
	}
	return in
}

func TestNewValidation(t *testing.T) {
	_, err := New(nil, nil, nil)
	if err == nil {
		t.Fatal("empty instance accepted")
	}
	_, err = New([]float64{1}, [][]float64{{1, 2}}, []float64{1})
	if err == nil {
		t.Fatal("ragged Q accepted")
	}
	_, err = New([]float64{-1}, [][]float64{{1}}, []float64{1})
	if err == nil {
		t.Fatal("negative cost accepted")
	}
	_, err = New([]float64{1}, [][]float64{{-2}}, []float64{1})
	if err == nil {
		t.Fatal("negative coefficient accepted")
	}
	_, err = New([]float64{1}, [][]float64{{1}}, []float64{math.NaN()})
	if err == nil {
		t.Fatal("NaN requirement accepted")
	}
}

func TestColsView(t *testing.T) {
	in := tiny(t)
	if in.Cols[0][0] != 1 || in.Cols[0][1] != 1 {
		t.Fatalf("column 0 = %v", in.Cols[0])
	}
	if in.Cols[2][0] != 0 || in.Cols[2][1] != 1 {
		t.Fatalf("column 2 = %v", in.Cols[2])
	}
}

func TestSelectionFeasibleAndCost(t *testing.T) {
	in := tiny(t)
	if !in.SelectionFeasible([]bool{true, false, false}) {
		t.Fatal("item 0 alone should be feasible")
	}
	if in.SelectionFeasible([]bool{false, true, false}) {
		t.Fatal("item 1 alone covers only service 0")
	}
	if !in.SelectionFeasible([]bool{false, true, true}) {
		t.Fatal("items 1+2 should be feasible")
	}
	if got := in.SelectionCost([]bool{true, false, true}); got != 5 {
		t.Fatalf("cost = %v", got)
	}
}

func TestWithCosts(t *testing.T) {
	in := tiny(t)
	v, err := in.WithCosts([]float64{10, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.SelectionCost([]bool{true, false, false}) != 10 {
		t.Fatal("new costs not applied")
	}
	if in.C[0] != 3 {
		t.Fatal("original instance mutated")
	}
	if _, err := in.WithCosts([]float64{1}); err == nil {
		t.Fatal("wrong-length costs accepted")
	}
	if _, err := in.WithCosts([]float64{1, -2, 3}); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestGreedyByScoreFindsCover(t *testing.T) {
	in := tiny(t)
	// Scores favouring the expensive pair first: still must cover.
	res := in.GreedyByScore([]float64{-1, 5, 4}, false)
	if !res.Feasible {
		t.Fatal("greedy failed on feasible instance")
	}
	if !in.SelectionFeasible(res.X) {
		t.Fatal("greedy result reported feasible but is not")
	}
	if res.Cost != in.SelectionCost(res.X) {
		t.Fatalf("cost mismatch: %v vs %v", res.Cost, in.SelectionCost(res.X))
	}
	// With scores preferring item 0 the greedy must find the optimum.
	res0 := in.GreedyByScore([]float64{9, 0, 0}, false)
	if res0.Cost != 3 {
		t.Fatalf("score-led greedy cost %v, want 3", res0.Cost)
	}
}

func TestGreedySkipsNonContributing(t *testing.T) {
	// Item 1 contributes nothing once item 0 is taken; greedy must skip
	// it even with the best score... but item 0 has the second-best, so
	// ordering is [1,0,2]; after 1, service 1 still unmet, 0 covers it.
	in := tiny(t)
	res := in.GreedyByScore([]float64{5, 9, 0}, false)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	if res.X[2] {
		t.Fatal("item 2 added although it no longer contributed")
	}
}

func TestRedundancyElimination(t *testing.T) {
	in := tiny(t)
	// Order [1, 2, 0]: greedy adds 1 (covers svc0), 2 (covers svc1) →
	// feasible without 0; nothing redundant. Order [2, 1, 0]: same.
	// Order [1, 0, ...]: adds 1, then 0 → 1 becomes redundant.
	res := in.GreedyByScore([]float64{5, 9, 0}, true)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	if res.X[1] && res.X[0] {
		t.Fatal("redundant item survived elimination")
	}
	if res.Cost != in.SelectionCost(res.X) {
		t.Fatalf("cost tracking broke: %v vs %v", res.Cost, in.SelectionCost(res.X))
	}
}

func TestEliminationNeverIncreasesCostOrBreaksFeasibility(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		in := randomInstance(t, r, 30, 8)
		scores := make([]float64, in.M())
		for j := range scores {
			scores[j] = r.Range(-10, 10)
		}
		plain := in.GreedyByScore(scores, false)
		elim := in.GreedyByScore(scores, true)
		if plain.Feasible != elim.Feasible {
			t.Fatal("elimination changed feasibility")
		}
		if !plain.Feasible {
			continue
		}
		if !in.SelectionFeasible(elim.X) {
			t.Fatal("eliminated selection infeasible")
		}
		if elim.Cost > plain.Cost+1e-9 {
			t.Fatalf("elimination increased cost: %v > %v", elim.Cost, plain.Cost)
		}
	}
}

func TestGreedyInfeasibleInstance(t *testing.T) {
	in, err := New(
		[]float64{1},
		[][]float64{{1}, {0}},
		[]float64{1, 5}, // service 1 can never be covered
	)
	if err != nil {
		t.Fatal(err)
	}
	res := in.GreedyByScore([]float64{1}, true)
	if res.Feasible {
		t.Fatal("greedy claimed feasibility on an uncoverable instance")
	}
	if in.FullSelectionFeasible() {
		t.Fatal("FullSelectionFeasible wrong")
	}
}

func TestChvatalGreedy(t *testing.T) {
	in := tiny(t)
	res := in.ChvatalGreedy()
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	// Ratio: item 0 gain 2 / cost 3 ≈ 0.67 beats 0.5 of items 1,2.
	if !res.X[0] || res.X[1] || res.X[2] {
		t.Fatalf("Chvátal picked %v, want item 0 only", res.X)
	}
	if res.Cost != 3 {
		t.Fatalf("cost %v", res.Cost)
	}
}

func TestRepairCompletesInfeasibleVector(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 50; trial++ {
		in := randomInstance(t, r, 25, 6)
		x := make([]bool, in.M())
		for j := range x {
			x[j] = r.Bool(0.2)
		}
		orig := append([]bool(nil), x...)
		res := in.Repair(x)
		if !res.Feasible {
			t.Fatal("repair failed on feasible instance")
		}
		if !in.SelectionFeasible(res.X) {
			t.Fatal("repaired selection infeasible")
		}
		if res.Cost != in.SelectionCost(res.X) {
			t.Fatal("repair cost mismatch")
		}
		for j := range x {
			if x[j] != orig[j] {
				t.Fatal("Repair mutated its input")
			}
		}
	}
}

func TestRepairOnFeasibleOnlyRemovesRedundancy(t *testing.T) {
	in := tiny(t)
	res := in.Repair([]bool{true, true, true})
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	if res.Cost > 4+1e-9 {
		t.Fatalf("repair left cost %v", res.Cost)
	}
}

func TestRelaxBoundsExact(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(t, r, 14, 5)
		rx, err := in.Relax()
		if err != nil {
			t.Fatal(err)
		}
		ex := in.SolveExact(0)
		if !ex.Optimal {
			t.Fatal("exact did not prove optimality on small instance")
		}
		if rx.LB > ex.Cost+1e-6 {
			t.Fatalf("LP bound %v exceeds exact optimum %v", rx.LB, ex.Cost)
		}
		for k, d := range rx.Dual {
			if d < -1e-9 {
				t.Fatalf("negative dual %v on >= row %d", d, k)
			}
		}
		for j, xb := range rx.XBar {
			if xb < -1e-9 || xb > 1+1e-9 {
				t.Fatalf("x̄[%d] = %v outside [0,1]", j, xb)
			}
		}
		// Any heuristic must sit between LB and... above LB.
		gr := in.ChvatalGreedy()
		if gr.Cost < rx.LB-1e-6 {
			t.Fatalf("greedy %v beat the LP bound %v", gr.Cost, rx.LB)
		}
		if gr.Cost < ex.Cost-1e-9 {
			t.Fatalf("greedy %v beat the exact optimum %v", gr.Cost, ex.Cost)
		}
	}
}

func TestExactTiny(t *testing.T) {
	in := tiny(t)
	ex := in.SolveExact(0)
	if !ex.Optimal || ex.Cost != 3 {
		t.Fatalf("exact = %+v, want optimal cost 3", ex)
	}
}

func TestExactInfeasible(t *testing.T) {
	in, err := New([]float64{1}, [][]float64{{0}}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	ex := in.SolveExact(0)
	if ex.Feasible {
		t.Fatal("exact claimed feasibility")
	}
}

func TestExactNodeBudget(t *testing.T) {
	r := rng.New(6)
	in := randomInstance(t, r, 30, 10)
	ex := in.SolveExact(1)
	if ex.Nodes > 1 {
		t.Fatalf("node budget ignored: %d nodes", ex.Nodes)
	}
	// Should still return the greedy incumbent.
	if !ex.Feasible {
		t.Fatal("no incumbent returned")
	}
}

func TestRelaxerMatchesCold(t *testing.T) {
	r := rng.New(7)
	in := randomInstance(t, r, 40, 8)
	rl, err := NewRelaxer(in)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		costs := make([]float64, in.M())
		for j := range costs {
			costs[j] = float64(r.IntRange(1, 100))
		}
		warm, err := rl.Relax(costs)
		if err != nil {
			t.Fatal(err)
		}
		v, err := in.WithCosts(costs)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := v.Relax()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warm.LB-cold.LB) > 1e-6*(1+math.Abs(cold.LB)) {
			t.Fatalf("warm LB %v != cold LB %v", warm.LB, cold.LB)
		}
	}
	if _, err := rl.Relax([]float64{1}); err == nil {
		t.Fatal("wrong-length costs accepted")
	}
}

func TestGap(t *testing.T) {
	if g := Gap(110, 100); math.Abs(g-10) > 1e-12 {
		t.Fatalf("Gap(110,100) = %v", g)
	}
	if g := Gap(100, 100); g != 0 {
		t.Fatalf("Gap(100,100) = %v", g)
	}
	if g := Gap(0, 0); g != 0 {
		t.Fatalf("Gap(0,0) = %v", g)
	}
	if g := Gap(5, 0); g != 500 {
		t.Fatalf("Gap(5,0) = %v", g)
	}
}

func TestTableISet(t *testing.T) {
	s := TableISet()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Terms) != 5 {
		t.Fatalf("Table I has 5 terminals, got %d", len(s.Terms))
	}
	want := []string{"c", "q", "b", "d", "xbar"}
	for i, term := range s.Terms {
		if term != want[i] {
			t.Fatalf("terminal %d = %q", i, term)
		}
	}
}

// applyTree scores the items with the reference tree walker and runs
// the greedy with redundancy elimination.
func applyTree(set *gp.Set, in *Instance, rx *Relaxation, tree gp.Tree) GreedyResult {
	scores := make([]float64, in.M())
	NewTreeScorer(set, in, rx).Score(tree, scores)
	return in.GreedyByScore(scores, true)
}

func TestTreeScorerDualGuidedTreeBeatsAntiGreedy(t *testing.T) {
	// The dual-weighted coverage tree (* q d) should produce far better
	// covers than an adversarial tree (- b b) (all-zero scores: index
	// order).
	r := rng.New(8)
	set := TableISet()
	dualTree := gp.MustParse(set, "(% (* q d) c)")
	flatTree := gp.MustParse(set, "(- b b)")
	better, worse := 0, 0
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(t, r, 40, 8)
		rx, err := in.Relax()
		if err != nil {
			t.Fatal(err)
		}
		rd := applyTree(set, in, rx, dualTree)
		rf := applyTree(set, in, rx, flatTree)
		if !rd.Feasible || !rf.Feasible {
			t.Fatal("heuristic infeasible on feasible instance")
		}
		if rd.Cost < rf.Cost-1e-9 {
			better++
		} else if rd.Cost > rf.Cost+1e-9 {
			worse++
		}
	}
	if better <= worse {
		t.Fatalf("dual-guided tree won %d, lost %d", better, worse)
	}
}

func TestTreeScorerGapNonNegative(t *testing.T) {
	r := rng.New(9)
	set := TableISet()
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(t, r, 25, 6)
		rx, err := in.Relax()
		if err != nil {
			t.Fatal(err)
		}
		res := applyTree(set, in, rx, set.Ramped(r, 1, 4))
		if !res.Feasible {
			t.Fatal("infeasible")
		}
		if g := Gap(res.Cost, rx.LB); g < -1e-6 {
			t.Fatalf("negative gap %v", g)
		}
	}
}

func BenchmarkGreedyByScore500x30(b *testing.B) {
	r := rng.New(10)
	in := randomInstance(b, r, 500, 30)
	scores := make([]float64, in.M())
	for j := range scores {
		scores[j] = r.Range(-5, 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := in.GreedyByScore(scores, true)
		if !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkTreeScore500x30(b *testing.B) {
	r := rng.New(11)
	in := randomInstance(b, r, 500, 30)
	rx, err := in.Relax()
	if err != nil {
		b.Fatal(err)
	}
	set := TableISet()
	tree := set.Full(r, 4)
	ts := NewTreeScorer(set, in, rx)
	scores := make([]float64, in.M())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Score(tree, scores)
	}
}

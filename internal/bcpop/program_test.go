package bcpop

import (
	"math"
	"testing"

	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/rng"
	"carbon/internal/telemetry"
)

// The compiled path must reproduce the reference exactly — the tree
// walker's scores (covering.TreeScorer) and the greedy on the same
// prepared context: identical Result bits and identical baskets, across
// many random trees and pricing decisions. The context comes from
// another evaluator, so this also pins that a Prepared context pairs
// the same on any evaluator.
func TestEvalProgramWithMatchesTreeScorer(t *testing.T) {
	mk := testMarket(t, 40, 25, 5)
	set := covering.TableISet()
	set.ConstProb, set.ConstMin, set.ConstMax = 0.25, -3, 3
	evPrep, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	evProg, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	scores := make([]float64, mk.Bundles())
	for trial := 0; trial < 30; trial++ {
		price := mk.PriceBounds().RandomVector(r)
		p, err := evPrep.Prepare(price)
		if err != nil {
			t.Fatal(err)
		}
		tree := set.Ramped(r, 1, 5)
		covering.NewTreeScorer(set, p.In, p.Rx).Score(tree, scores)
		ref := p.In.GreedyByScore(scores, true)
		want, wantX := evPrep.result(price, p.Rx, ref), ref.X
		prog, err := gp.Compile(set, tree)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		got, gotX, err := evProg.EvalProgramWith(p, prog)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want.Revenue) != math.Float64bits(got.Revenue) ||
			math.Float64bits(want.LLCost) != math.Float64bits(got.LLCost) ||
			math.Float64bits(want.LB) != math.Float64bits(got.LB) ||
			math.Float64bits(want.GapPct) != math.Float64bits(got.GapPct) ||
			want.Feasible != got.Feasible {
			t.Fatalf("trial %d (%s): reference %+v, compiled %+v",
				trial, tree.String(set), want, got)
		}
		if len(wantX) != len(gotX) {
			t.Fatalf("trial %d: basket lengths %d vs %d", trial, len(wantX), len(gotX))
		}
		for j := range wantX {
			if wantX[j] != gotX[j] {
				t.Fatalf("trial %d: baskets diverge at item %d", trial, j)
			}
		}
	}
}

// Each EvalProgramWith charges one LL evaluation, one tree_evals, one
// cache_hits and no LP solve.
func TestEvalProgramWithMetricsParity(t *testing.T) {
	mk := testMarket(t, 30, 20, 4)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ev.Metrics = NewEvalMetrics(reg)
	r := rng.New(5)
	price := mk.PriceBounds().RandomVector(r)
	p, err := ev.Prepare(price)
	if err != nil {
		t.Fatal(err)
	}
	tree := set.Ramped(r, 1, 4)
	prog, err := gp.Compile(set, tree)
	if err != nil {
		t.Fatal(err)
	}
	const evals = 7
	for i := 0; i < evals; i++ {
		if _, _, err := ev.EvalProgramWith(p, prog); err != nil {
			t.Fatal(err)
		}
	}
	m := ev.Metrics
	if got := m.TreeEvals.Load(); got != evals {
		t.Errorf("tree_evals = %d, want %d", got, evals)
	}
	if got := m.CacheHits.Load(); got != evals {
		t.Errorf("cache_hits = %d, want %d", got, evals)
	}
	if got := m.LPSolves.Load(); got != 1 {
		t.Errorf("lp_solves = %d, want 1 (the Prepare)", got)
	}
	if got := m.CacheMisses.Load(); got != 1 {
		t.Errorf("cache_misses = %d, want 1", got)
	}
	if ev.Evals != evals+0 {
		t.Errorf("Evals = %d, want %d", ev.Evals, evals)
	}
}

// A tree decoded against a bigger terminal set than the evaluator's
// must fail to compile over the evaluator's set (not read past the
// environment), and a set with more terminals than the scorer
// environment must be rejected at evaluator construction.
func TestHostileTerminalSetsRejected(t *testing.T) {
	mk := testMarket(t, 20, 10, 2)
	wide := covering.TableISet() // 5 terminals
	narrow := &gp.Set{Ops: gp.TableIOps(), Terms: []string{"c", "q"}}
	if _, err := NewEvaluator(mk, narrow); err != nil {
		t.Fatal(err)
	}
	// "xbar" is terminal index 4 in the wide set — out of range for the
	// narrow evaluator.
	hostile, err := gp.Parse(wide, "(+ c xbar)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gp.Compile(narrow, hostile); err == nil {
		t.Fatal("Compile accepted a tree over a larger terminal set")
	}

	over := &gp.Set{Ops: gp.TableIOps(), Terms: []string{"t0", "t1", "t2", "t3", "t4", "t5"}}
	if _, err := NewEvaluator(mk, over); err == nil {
		t.Fatalf("NewEvaluator accepted a set with %d terminals (scorer env holds %d)",
			len(over.Terms), covering.EnvLen)
	}
}

// The steady-state hot path must not allocate: compile once, then
// every cached paired evaluation reuses the VM stack and greedy
// scratch.
func TestEvalProgramWithZeroAlloc(t *testing.T) {
	mk := testMarket(t, 40, 25, 5)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	price := mk.PriceBounds().RandomVector(r)
	p, err := ev.Prepare(price)
	if err != nil {
		t.Fatal(err)
	}
	tree := set.Ramped(r, 2, 5)
	prog, err := gp.Compile(set, tree)
	if err != nil {
		t.Fatal(err)
	}
	ev.EvalProgramWith(p, prog) // warm up scratch
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := ev.EvalProgramWith(p, prog); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("EvalProgramWith allocates %v per call, want 0", allocs)
	}
}

// BenchmarkEvalProgram500x30 is the compiled batched hot path at paper
// scale: one Prepare + one Compile, then repeated cached paired
// evaluations.
func BenchmarkEvalProgram500x30(b *testing.B) {
	mk := testMarket(b, 500, 30, 50)
	set := covering.TableISet()
	ev, err := NewEvaluator(mk, set)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(4)
	tree := set.Ramped(r, 2, 5)
	price := mk.PriceBounds().RandomVector(r)
	p, err := ev.Prepare(price)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := gp.Compile(set, tree)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.EvalProgramWith(p, prog); err != nil {
			b.Fatal(err)
		}
	}
}

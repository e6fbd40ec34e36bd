package bcpop

import (
	"testing"

	"carbon/internal/covering"
	"carbon/internal/rng"
	"carbon/internal/telemetry"
)

// TestEvaluatorMetrics checks that the hot-path instruments count what
// actually happened, and that an uninstrumented evaluator (nil Metrics)
// behaves identically.
func TestEvaluatorMetrics(t *testing.T) {
	mk := testMarket(t, 30, 5, 3)
	set := covering.TableISet()
	plain, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	metered, err := NewEvaluator(mk, set)
	if err != nil {
		t.Fatal(err)
	}
	metered.Metrics = NewEvalMetrics(reg)

	r := rng.New(1)
	price := mk.PriceBounds().RandomVector(r)
	tree := set.Ramped(rng.New(2), 1, 3)

	outPlain, _ := evalTree(t, plain, set, price, tree)
	outMetered, _ := evalTree(t, metered, set, price, tree)
	if outPlain != outMetered {
		t.Fatalf("metrics changed the evaluation: %+v vs %+v", outPlain, outMetered)
	}
	p, err := metered.Prepare(price)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := metered.EvalGRASPWith(p, rng.New(3), 2, 0.3); err != nil {
		t.Fatal(err)
	}
	sel, err := metered.Prepare(price)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := metered.EvalSelectionWith(sel, make([]bool, mk.Bundles())); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("bcpop.tree_evals").Load(); got != 1 {
		t.Fatalf("tree_evals = %d, want 1", got)
	}
	if got := reg.Counter("bcpop.grasp_evals").Load(); got != 2 {
		t.Fatalf("grasp_evals = %d, want 2 (one per start)", got)
	}
	if got := reg.Counter("bcpop.selection_evals").Load(); got != 1 {
		t.Fatalf("selection_evals = %d, want 1", got)
	}
	if got := reg.Counter("bcpop.lp_solves").Load(); got != 3 {
		t.Fatalf("lp_solves = %d, want 3 (one Prepare per paired evaluation)", got)
	}
	if got := reg.Counter("bcpop.lp_pivots").Load(); got < 3 {
		t.Fatalf("lp_pivots = %d, want at least one per cold solve", got)
	}
	if got := reg.Counter("bcpop.eliminations").Load(); got != 1 {
		t.Fatalf("eliminations = %d, want 1 (the tree evaluation, Eliminate on)", got)
	}
	if got := reg.Timer("bcpop.eval_time").Count(); got != 3 {
		t.Fatalf("eval_time observations = %d, want 3 (GRASP is one timed call)", got)
	}
	hist := reg.Histogram("bcpop.eval_latency_us").Snapshot()
	if hist.Count != 3 {
		t.Fatalf("latency histogram count = %d, want 3", hist.Count)
	}
	feasible := reg.Histogram("bcpop.gap_pct").Snapshot().Count
	infeasible := reg.Counter("bcpop.infeasible").Load()
	if feasible+infeasible != 3 {
		t.Fatalf("gap histogram (%d) + infeasible (%d) must cover all 3 paired evaluations",
			feasible, infeasible)
	}
}

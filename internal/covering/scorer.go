package covering

import (
	"carbon/internal/gp"
)

// TableITerms is the paper's Table I terminal set, in environment-vector
// order: cost cⱼ, coefficient qⱼᵏ, requirement bᵏ, LP dual d_k, relaxed
// solution value x̄ⱼ.
var TableITerms = []string{"c", "q", "b", "d", "xbar"}

// TableISet returns a fresh primitive set implementing the paper's
// Table I exactly: operators {+, -, *, %, mod} over the five terminals.
func TableISet() *gp.Set {
	return &gp.Set{Ops: gp.TableIOps(), Terms: append([]string(nil), TableITerms...)}
}

// EnvLen is the scorer environment-vector length — Table I's terminal
// count. The scorer hands trees exactly this many features, so a
// primitive set routed into it may declare at most EnvLen terminals;
// bcpop.NewEvaluator enforces that bound, which is what keeps a tree
// decoded against a larger terminal set from indexing past the
// environment at evaluation time.
const EnvLen = 5

// TreeScorer evaluates a GP tree into per-item scores for GreedyByScore.
// Three of Table I's terminals are indexed by service k while the tree
// scores item j, so the scorer evaluates the tree once per (item,
// service) pair and sums over services:
//
//	score(j) = Σₖ tree(cⱼ, qⱼᵏ, bᵏ, d_k, x̄ⱼ)
//
// This additive aggregation is the natural reading of Table I — it makes
// the LP-guided orderings expressible (e.g. the tree (* q d) yields
// score(j) = Σₖ qⱼᵏ·d_k, the dual-weighted coverage whose descending
// order reproduces the reduced-cost greedy) while degenerating gracefully
// for service-independent trees (they scale by N uniformly, preserving
// the order).
type TreeScorer struct {
	Set *gp.Set
	rx  *Relaxation
	in  *Instance
	env [EnvLen]float64
}

// NewTreeScorer binds a scorer to an instance and its relaxation data.
func NewTreeScorer(set *gp.Set, in *Instance, rx *Relaxation) *TreeScorer {
	return &TreeScorer{Set: set, in: in, rx: rx}
}

// Score fills scores[j] for every item. len(scores) must be M.
func (ts *TreeScorer) Score(tree gp.Tree, scores []float64) {
	in, rx := ts.in, ts.rx
	n := in.N()
	for j := range scores {
		col := in.Cols[j]
		ts.env[0] = in.C[j]
		ts.env[4] = rx.XBar[j]
		total := 0.0
		for k := 0; k < n; k++ {
			ts.env[1] = col[k]
			ts.env[2] = in.B[k]
			ts.env[3] = rx.Dual[k]
			total += tree.Eval(ts.Set, ts.env[:])
		}
		scores[j] = total
	}
}

// scoreBlock is how many items ScoreProgramInto evaluates per VM pass:
// the lane width, so the VM's operand stack is at most depth × 128
// floats.
const scoreBlock = 128

// ScoreProgramInto is Score for a compiled tree, in the allocation-free
// form the evaluation hot path uses: no scorer object, and the VM's
// operand stack is reused across calls. Items are the VM's lanes. For
// each block of up to scoreBlock items and each service k in ascending
// order, the program runs once over the block — c, qᵏ and x̄ are
// contiguous per-item vectors (Q is row-major), bᵏ and d_k broadcast —
// and each item's value is added into its score. Every item's sum
// therefore runs 0 + v₀ + v₁ + … in ascending k exactly as in Score,
// and the VM reproduces gp.Tree.Eval bit for bit per lane, so the
// scores are bit-identical to Score on the program's source tree.
func ScoreProgramInto(in *Instance, rx *Relaxation, vm *gp.VM, p *gp.Program, scores []float64) {
	for j0 := 0; j0 < len(scores); j0 += scoreBlock {
		j1 := min(j0+scoreBlock, len(scores))
		out := scores[j0:j1]
		clear(out)
		env := [EnvLen]gp.Term{0: {V: in.C[j0:j1]}, 4: {V: rx.XBar[j0:j1]}}
		for k, b := range in.B {
			env[1].V = in.Q[k][j0:j1]
			env[2].S = b
			env[3].S = rx.Dual[k]
			for i, v := range vm.EvalLanes(p, env[:], len(out)) {
				out[i] += v
			}
		}
	}
}

// ApplyHeuristic scores the items with the tree and runs the greedy,
// returning the greedy result — one lower-level fitness evaluation in
// the paper's accounting.
func (ts *TreeScorer) ApplyHeuristic(tree gp.Tree, eliminate bool) GreedyResult {
	scores := make([]float64, ts.in.M())
	ts.Score(tree, scores)
	return ts.in.GreedyByScore(scores, eliminate)
}

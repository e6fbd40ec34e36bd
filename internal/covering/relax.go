package covering

import (
	"fmt"

	"carbon/internal/lp"
)

// Relaxation holds the LP-relaxation data of one instance: the lower
// bound LB(x) of Eq. 1 and the two LP-derived terminals of Table I
// (dual values d_k and relaxed solution values x̄ⱼ).
type Relaxation struct {
	LB     float64
	Dual   []float64 // length N, one per service
	XBar   []float64 // length M, one per item
	Status lp.Status
	Pivots int       // simplex steps the solve took
	Basis  *lp.Basis // final basis (RelaxFrom only; nil unless optimal)
}

// lpProblem builds min c·x, Qx ≥ b, 0 ≤ x ≤ 1 for the instance.
func (in *Instance) lpProblem() *lp.Problem {
	m, n := in.M(), in.N()
	rel := make([]lp.Relation, n)
	lo := make([]float64, m)
	up := make([]float64, m)
	for j := range up {
		up[j] = 1
	}
	return &lp.Problem{C: in.C, A: in.Q, Rel: rel, B: in.B, Lo: lo, Up: up}
}

// Relax solves the LP relaxation from scratch.
func (in *Instance) Relax() (*Relaxation, error) {
	sol, err := lp.Solve(in.lpProblem())
	if err != nil {
		return nil, err
	}
	return relaxationFrom(sol), nil
}

func relaxationFrom(sol *lp.Solution) *Relaxation {
	return &Relaxation{
		LB:     sol.Obj,
		Dual:   sol.Dual,
		XBar:   sol.X,
		Status: sol.Status,
		Pivots: sol.Pivots,
	}
}

// Relaxer solves a stream of relaxations that share Q and b but carry
// different costs, using the warm-started simplex. This is the hot path
// of CARBON: every upper-level pricing decision changes only the costs
// of the leader's bundles, so an earlier optimal basis stays primal
// feasible. A Relaxer is not safe for concurrent use; create one per
// worker.
type Relaxer struct {
	ws *lp.WarmSolver
	m  int
}

// NewRelaxer prepares a warm solver for the instance's matrix.
func NewRelaxer(in *Instance) (*Relaxer, error) {
	ws, err := lp.NewWarmSolver(in.lpProblem())
	if err != nil {
		return nil, err
	}
	return &Relaxer{ws: ws, m: in.M()}, nil
}

// SetFault installs (or, with nil, clears) a fault hook on the
// underlying warm solver: it is consulted before every solve, and a
// non-nil return aborts that solve without disturbing the warm basis.
// Wired through bcpop.Evaluator.SetLPFault for fault-injection runs.
func (r *Relaxer) SetFault(h func() error) { r.ws.Fault = h }

// Relax solves the relaxation with the given item costs, warm-starting
// from the basis the previous Relax left.
func (r *Relaxer) Relax(costs []float64) (*Relaxation, error) {
	if len(costs) != r.m {
		return nil, fmt.Errorf("covering: got %d costs, want %d", len(costs), r.m)
	}
	sol, err := r.ws.SolveWithCosts(costs)
	if err != nil {
		return nil, err
	}
	return relaxationFrom(sol), nil
}

// RelaxFrom solves the relaxation with the given item costs from the
// basis start (nil = cold; see lp.WarmSolver.SolveFrom), so the result
// is a pure function of (costs, start). The returned Relaxation carries
// the final basis for later solves to start from.
func (r *Relaxer) RelaxFrom(costs []float64, start *lp.Basis) (*Relaxation, error) {
	if len(costs) != r.m {
		return nil, fmt.Errorf("covering: got %d costs, want %d", len(costs), r.m)
	}
	sol, err := r.ws.SolveFrom(costs, start)
	if err != nil {
		return nil, err
	}
	rx := relaxationFrom(sol)
	rx.Basis = r.ws.Basis()
	return rx, nil
}

// Gap returns the paper's Eq. 1 lower-level optimality gap in percent:
// 100·(value − LB)/LB. The instance generator guarantees LB > 0; a
// non-positive LB (degenerate hand-built instance) yields gap 0 when the
// value matches and +Inf-free large gap otherwise, keeping comparisons
// total.
func Gap(value, lb float64) float64 {
	if lb <= 1e-12 {
		if value <= 1e-12 {
			return 0
		}
		return 100 * value // degenerate: treat LB as 1
	}
	return 100 * (value - lb) / lb
}

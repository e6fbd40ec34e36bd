package bilevel

import (
	"errors"
	"math"
)

// The paper (§II) distinguishes two positions when the follower's
// rational set P(x) is not a singleton:
//
//	optimistic:  ŷ = argmin { F(x,y) : y ∈ P(x) }
//	pessimistic: ŷ = argmax { F(x,y) : y ∈ P(x) }
//
// and adopts the optimistic case ("no optimality guaranties exist in the
// pessimistic case"). For the scalar linear programs of this package the
// distinction is decidable exactly: P(x) is a point when Gy ≠ 0 and the
// whole feasible interval when Gy = 0, so the two positions only differ
// for indifferent followers — which this file makes inspectable.

// ReactionSet is the follower's full rational set for one leader
// decision: the interval [YLo, YHi] of lower-level optimal responses.
type ReactionSet struct {
	YLo, YHi float64
	Feasible bool
}

// RationalReactionSet computes P(x) exactly: a single point when the
// follower has a strict preference (Gy ≠ 0), the whole feasible interval
// when the follower is indifferent (Gy = 0).
func (p *Linear1D) RationalReactionSet(x float64) ReactionSet {
	ylo, yhi := 0.0, math.Inf(1)
	for _, c := range p.LL {
		switch {
		case c.B > eps:
			if v := (c.C - c.A*x) / c.B; v < yhi {
				yhi = v
			}
		case c.B < -eps:
			if v := (c.C - c.A*x) / c.B; v > ylo {
				ylo = v
			}
		default:
			if c.A*x-c.C > eps {
				return ReactionSet{}
			}
		}
	}
	if ylo > yhi+eps {
		return ReactionSet{}
	}
	switch {
	case p.Gy < 0:
		if math.IsInf(yhi, 1) {
			return ReactionSet{}
		}
		return ReactionSet{YLo: yhi, YHi: yhi, Feasible: true}
	case p.Gy > 0:
		return ReactionSet{YLo: ylo, YHi: ylo, Feasible: true}
	default:
		if math.IsInf(yhi, 1) {
			return ReactionSet{} // indifferent over an unbounded set
		}
		return ReactionSet{YLo: ylo, YHi: yhi, Feasible: true}
	}
}

// pessimisticPick selects the follower answer the pessimistic leader
// must plan for: the UL-feasible point of P(x) maximizing F — and when
// *no* point of P(x) is UL-feasible, the pessimistic leader cannot use
// x at all.
func (p *Linear1D) pessimisticPick(x float64, rs ReactionSet) (float64, bool) {
	if !rs.Feasible {
		return 0, false
	}
	// F is linear in y, so the max over [YLo, YHi] is at an endpoint;
	// but the pessimistic follower may also pick a UL-infeasible point,
	// which kills x entirely. Check the whole interval stays UL-feasible
	// by checking both endpoints (UL constraints are linear in y too, so
	// feasibility over an interval is equivalent to endpoint
	// feasibility).
	if !p.ULFeasible(x, rs.YLo) || !p.ULFeasible(x, rs.YHi) {
		return 0, false
	}
	if p.Fy*rs.YHi > p.Fy*rs.YLo {
		return rs.YHi, true
	}
	return rs.YLo, true
}

// SolvePessimistic computes the exact pessimistic bi-level optimum:
// min over x of max { F(x,y) : y ∈ P(x) }, with x discarded whenever any
// rational follower answer violates the upper-level constraints. The
// candidate enumeration reuses the breakpoint analysis of Solve.
func (p *Linear1D) SolvePessimistic() (Solution, error) {
	if p.XHi < p.XLo {
		return Solution{}, errors.New("bilevel: empty x box")
	}
	cands := p.candidateXs()
	best := Solution{F: math.Inf(1)}
	found := false
	for _, x := range cands {
		if x < p.XLo-eps || x > p.XHi+eps {
			continue
		}
		x = math.Max(p.XLo, math.Min(p.XHi, x))
		rs := p.RationalReactionSet(x)
		y, ok := p.pessimisticPick(x, rs)
		if !ok {
			continue
		}
		f := p.F(x, y)
		if f < best.F-eps {
			best = Solution{X: x, Y: y, F: f}
			found = true
		}
	}
	if !found {
		return Solution{}, errors.New("bilevel: no pessimistically feasible point")
	}
	return best, nil
}

package lp

import (
	"fmt"
	"math"
)

// CheckKKT verifies that sol is an optimal solution of p by checking the
// Karush–Kuhn–Tucker conditions within tolerance eps:
//
//  1. primal feasibility (rows and bounds),
//  2. dual feasibility (row dual signs consistent with row senses for a
//     minimization problem: y ≥ 0 on ≥-rows, y ≤ 0 on ≤-rows; reduced
//     costs ≥ 0 at lower bounds, ≤ 0 at upper bounds, ≈ 0 strictly
//     between bounds),
//  3. complementary slackness on rows (yᵢ·(Aᵢx−bᵢ) ≈ 0),
//  4. strong duality via the Lagrangian: c·x = y·b + Σⱼ dⱼ·xⱼ* where dⱼ
//     is the reduced cost and xⱼ* the bound it is pinned at.
//
// It returns nil when all conditions hold. Together these conditions
// certify optimality, so tests can validate the solver without an
// external reference implementation.
func CheckKKT(p *Problem, sol *Solution, eps float64) error {
	if sol.Status != Optimal {
		return fmt.Errorf("lp: CheckKKT on non-optimal solution (%v)", sol.Status)
	}
	m, n := len(p.B), len(p.C)
	lo := p.Lo
	if lo == nil {
		lo = make([]float64, n)
	}
	up := p.Up
	if up == nil {
		up = make([]float64, n)
		for j := range up {
			up[j] = math.Inf(1)
		}
	}
	scale := 1.0
	for j := 0; j < n; j++ {
		if a := math.Abs(sol.X[j]); a > scale {
			scale = a
		}
	}
	tolv := float64(eps * scale)

	// 1. Primal feasibility.
	for j := 0; j < n; j++ {
		if sol.X[j] < lo[j]-tolv || sol.X[j] > up[j]+tolv {
			return fmt.Errorf("lp: x[%d]=%v violates bounds [%v,%v]", j, sol.X[j], lo[j], up[j])
		}
	}
	act := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			act[i] += float64(p.A[i][j] * sol.X[j])
		}
		rowScale := math.Abs(p.B[i]) + 1
		switch p.Rel[i] {
		case GE:
			if act[i] < p.B[i]-float64(eps*rowScale) {
				return fmt.Errorf("lp: row %d: %v < %v", i, act[i], p.B[i])
			}
		case LE:
			if act[i] > p.B[i]+float64(eps*rowScale) {
				return fmt.Errorf("lp: row %d: %v > %v", i, act[i], p.B[i])
			}
		case EQ:
			if math.Abs(act[i]-p.B[i]) > eps*rowScale {
				return fmt.Errorf("lp: row %d: %v != %v", i, act[i], p.B[i])
			}
		}
	}

	// 2. Dual feasibility: row dual signs.
	for i := 0; i < m; i++ {
		y := sol.Dual[i]
		switch p.Rel[i] {
		case GE:
			if y < -eps {
				return fmt.Errorf("lp: dual %d = %v < 0 on >= row", i, y)
			}
		case LE:
			if y > eps {
				return fmt.Errorf("lp: dual %d = %v > 0 on <= row", i, y)
			}
		}
	}
	// Reduced-cost consistency with bound status.
	for j := 0; j < n; j++ {
		d := p.C[j]
		for i := 0; i < m; i++ {
			d -= float64(sol.Dual[i] * p.A[i][j])
		}
		if math.Abs(d-sol.ReducedCost[j]) > eps*(1+math.Abs(d)) {
			return fmt.Errorf("lp: reported reduced cost %v != recomputed %v for var %d",
				sol.ReducedCost[j], d, j)
		}
		atLo := sol.X[j] <= lo[j]+tolv
		atUp := !math.IsInf(up[j], 1) && sol.X[j] >= up[j]-tolv
		switch {
		case atLo && atUp: // fixed variable: any reduced cost is fine
		case atLo:
			if d < -eps {
				return fmt.Errorf("lp: var %d at lower bound with reduced cost %v < 0", j, d)
			}
		case atUp:
			if d > eps {
				return fmt.Errorf("lp: var %d at upper bound with reduced cost %v > 0", j, d)
			}
		default:
			if math.Abs(d) > eps {
				return fmt.Errorf("lp: interior var %d has reduced cost %v != 0", j, d)
			}
		}
	}

	// 3. Complementary slackness on rows.
	for i := 0; i < m; i++ {
		slack := act[i] - p.B[i]
		if math.Abs(sol.Dual[i]*slack) > eps*(1+math.Abs(p.B[i]))*(1+math.Abs(sol.Dual[i])) {
			return fmt.Errorf("lp: complementary slackness violated on row %d: y=%v slack=%v",
				i, sol.Dual[i], slack)
		}
	}

	// 4. Strong duality through the Lagrangian.
	dualObj := 0.0
	for i := 0; i < m; i++ {
		dualObj += float64(sol.Dual[i] * p.B[i])
	}
	for j := 0; j < n; j++ {
		d := sol.ReducedCost[j]
		switch {
		case d > eps:
			dualObj += float64(d * lo[j])
		case d < -eps:
			dualObj += float64(d * up[j]) // finite, else dual infeasible above
		}
	}
	if math.Abs(dualObj-sol.Obj) > eps*(1+math.Abs(sol.Obj)) {
		return fmt.Errorf("lp: duality gap: primal %v vs dual %v", sol.Obj, dualObj)
	}
	return nil
}

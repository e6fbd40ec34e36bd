// Package lp implements a dense, two-phase, bounded-variable revised
// simplex method for linear programs of the form
//
//	min  c·x
//	s.t. Aᵢ·x  {≥, ≤, =}  bᵢ        i = 1..m
//	     loⱼ ≤ xⱼ ≤ upⱼ             j = 1..n   (upⱼ may be +Inf)
//
// It returns the primal solution, the objective, the row dual values and
// the structural reduced costs. The solver exists because the paper's
// %-gap metric (Eq. 1) and two of its GP terminals (Table I: dual values
// d_k and relaxed solution values x̄_j) require the LP relaxation of
// every induced lower-level covering instance.
//
// Design notes. The relaxations solved here have very few rows
// (m ∈ {5,10,30}) and up to ~1000 columns, so a dense basis inverse
// (m×m) with full Dantzig pricing is both simple and fast: each
// iteration is O(m² + nnz).
//
// When no structural coefficient is zero — true of every MKP-derived
// instance of the paper — the structural block is stored once in column
// groups of four (price.go), and pricing runs one of two kernels over
// it: AVX2 assembly where the CPU supports it, portable Go elsewhere.
// Every column subtracts its own terms one at a time in ascending row
// order, each product rounded before the subtraction, so both kernels
// give the bits of the column-at-a-time loop. No product in this package
// may fuse with the addition it feeds (every one is wrapped in an
// explicit float64 conversion), so a solve gives the same bits on every
// GOARCH. Matrices with zeros (the block-diagonal multi-customer
// market) keep sparse columns.
//
// A bound flip leaves the basis, the duals and every reduced cost
// unchanged, so the iteration after one reuses the last pricing, and
// the final pricing becomes Solution.ReducedCost.
//
// Bounded variables are handled natively (nonbasic-at-upper status and
// bound flips) rather than by adding n explicit bound rows, which keeps
// the basis tiny. Cycling is prevented by switching from Dantzig to
// Bland's rule after a burst of degenerate pivots.
//
// Two fast paths matter for the co-evolutionary workload:
//
//   - a crash basis: when setting every structural variable at one of
//     its bounds already satisfies all rows through the slacks (true for
//     covering instances, where x = 1 is feasible), phase 1 is skipped
//     entirely;
//   - WarmSolver: the BCPOP leader only changes *costs* between
//     evaluations (the covering matrix and requirements are fixed), so
//     any earlier optimal basis stays primal feasible and re-solving
//     from it runs phase 2 only. SolveFrom takes that basis as a compact
//     Basis value (exported by WarmSolver.Basis), refactors B⁻¹ from it
//     and returns a result that depends only on (costs, basis); CARBON
//     starts each child's solve from its nearer parent's basis, which
//     takes a handful of pivots.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint row.
type Relation int8

const (
	GE Relation = iota // Aᵢ·x ≥ bᵢ
	LE                 // Aᵢ·x ≤ bᵢ
	EQ                 // Aᵢ·x = bᵢ
)

func (r Relation) String() string {
	switch r {
	case GE:
		return ">="
	case LE:
		return "<="
	case EQ:
		return "="
	}
	return "?"
}

// Problem is a dense LP. All slices must be fully populated; A is m rows
// by n columns. Lo/Up are per-variable bounds; Up entries may be
// math.Inf(1). A nil Lo means all zeros; a nil Up means all +Inf.
type Problem struct {
	C   []float64
	A   [][]float64
	Rel []Relation
	B   []float64
	Lo  []float64
	Up  []float64
}

// Status reports how a solve terminated.
type Status int8

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution is the result of Solve.
type Solution struct {
	Status      Status
	Obj         float64
	X           []float64 // structural variable values, length n
	Dual        []float64 // row duals y, length m
	ReducedCost []float64 // structural reduced costs c_j - y·A_j, length n
	Iterations  int
	Pivots      int // simplex steps of this solve: basis changes and bound flips
}

const (
	tol          = 1e-9
	feasTol      = 1e-7
	blandTrigger = 64 // consecutive degenerate pivots before Bland's rule
)

// Solve runs the two-phase bounded-variable simplex. It returns an error
// for malformed input (dimension mismatches, NaN, inverted bounds); model
// outcomes (infeasible/unbounded) are reported via Solution.Status.
func Solve(p *Problem) (*Solution, error) {
	lo, up, err := validate(p)
	if err != nil {
		return nil, err
	}
	s := newSolver(p, lo, up)
	return s.run(), nil
}

func validate(p *Problem) (lo, up []float64, err error) {
	m := len(p.B)
	n := len(p.C)
	if len(p.A) != m || len(p.Rel) != m {
		return nil, nil, fmt.Errorf("lp: %d rows in B but %d in A, %d in Rel", m, len(p.A), len(p.Rel))
	}
	for i, row := range p.A {
		if len(row) != n {
			return nil, nil, fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	lo = p.Lo
	if lo == nil {
		lo = make([]float64, n)
	}
	up = p.Up
	if up == nil {
		up = make([]float64, n)
		for j := range up {
			up[j] = math.Inf(1)
		}
	}
	if len(lo) != n || len(up) != n {
		return nil, nil, errors.New("lp: bound vector length mismatch")
	}
	for j := 0; j < n; j++ {
		if math.IsNaN(lo[j]) || math.IsNaN(up[j]) || math.IsInf(lo[j], 0) {
			return nil, nil, fmt.Errorf("lp: bad bounds on variable %d: [%v,%v]", j, lo[j], up[j])
		}
		if up[j] < lo[j] {
			return nil, nil, fmt.Errorf("lp: inverted bounds on variable %d: [%v,%v]", j, lo[j], up[j])
		}
	}
	for j, c := range p.C {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, nil, fmt.Errorf("lp: bad cost on variable %d: %v", j, c)
		}
	}
	for i := 0; i < m; i++ {
		if math.IsNaN(p.B[i]) || math.IsInf(p.B[i], 0) {
			return nil, nil, fmt.Errorf("lp: bad rhs on row %d: %v", i, p.B[i])
		}
		for j, a := range p.A[i] {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return nil, nil, fmt.Errorf("lp: bad coefficient at (%d,%d): %v", i, j, a)
			}
		}
	}
	return lo, up, nil
}

// solver holds the working state of one solve. Column layout:
// [0,n) structural, [n,n+m) slack/surplus, [n+m,n+2m) artificial.
type solver struct {
	m, n   int
	nTot   int       // n + m + m
	cols   []colVec  // sparse columns of the full constraint matrix
	cost   []float64 // phase-2 costs (0 for slack & artificial)
	lo     []float64
	up     []float64
	b      []float64
	x      []float64 // current value of every variable
	atUp   []bool    // nonbasic-at-upper flag
	inB    []bool    // basic flag
	dir    []float64 // pricing direction: +1 at lower, −1 at upper, 0 basic or fixed (valid in iterate)
	basis  []int     // basic variable per row
	binv   []float64 // m×m row-major basis inverse
	xB     []float64 // values of basic variables (mirror of x[basis[i]])
	yBuf   []float64 // scratch: duals
	wBuf   []float64 // scratch: B⁻¹·A_enter
	slab   []float64 // structural block in column groups of four (price.go), nil unless fullyDense
	rows   []int32   // 0..m-1, the index slice of a gathered slab column
	colBuf []float64 // scratch: the slab column column() gathered last
	dBuf   []float64 // scratch: structural reduced costs (dense slab only)
	fac    []float64 // scratch: m×m basis matrix while install refactors it
	iters  int
	pivots int // simplex steps since the current solve began
	degen  int // consecutive degenerate pivots (Bland trigger)
}

// colVec is a sparse column: parallel index/value slices.
type colVec struct {
	idx []int32
	val []float64
}

// fullyDense reports whether every coefficient of a is nonzero, so the
// sparse structural columns would each list all rows in order.
func fullyDense(a [][]float64) bool {
	for _, row := range a {
		for _, v := range row {
			if v == 0 {
				return false
			}
		}
	}
	return true
}

// column returns column j of the constraint matrix. A structural column
// of the dense slab is gathered into colBuf, which the next call
// overwrites; every other column is its stored sparse vector.
func (s *solver) column(j int) colVec {
	if j >= s.n || s.slab == nil {
		return s.cols[j]
	}
	g := s.slab[slabAt(0, j, s.m):]
	v := s.colBuf
	for i := range v {
		v[i] = g[4*i]
	}
	return colVec{idx: s.rows, val: v}
}

func newSolver(p *Problem, lo, up []float64) *solver {
	m, n := len(p.B), len(p.C)
	s := &solver{
		m: m, n: n, nTot: n + 2*m,
		cost:  make([]float64, n+2*m),
		lo:    make([]float64, n+2*m),
		up:    make([]float64, n+2*m),
		b:     append([]float64(nil), p.B...),
		x:     make([]float64, n+2*m),
		atUp:  make([]bool, n+2*m),
		inB:   make([]bool, n+2*m),
		dir:   make([]float64, n+2*m),
		basis: make([]int, m),
		binv:  make([]float64, m*m),
		xB:    make([]float64, m),
		yBuf:  make([]float64, m),
		wBuf:  make([]float64, m),
	}
	copy(s.cost[:n], p.C)
	copy(s.lo[:n], lo)
	copy(s.up[:n], up)

	s.cols = make([]colVec, s.nTot)
	if fullyDense(p.A) {
		// Every structural column holds all m rows: store the block once
		// in column groups and leave the structural cols empty; column()
		// gathers one when a caller needs it.
		s.slab = make([]float64, groupLen(n, m))
		s.dBuf = make([]float64, n)
		s.colBuf = make([]float64, m)
		s.rows = make([]int32, m)
		for i, row := range p.A {
			s.rows[i] = int32(i)
			for j, v := range row {
				s.slab[slabAt(i, j, m)] = v
			}
		}
	} else {
		for j := 0; j < n; j++ {
			var c colVec
			for i := 0; i < m; i++ {
				if a := p.A[i][j]; a != 0 {
					c.idx = append(c.idx, int32(i))
					c.val = append(c.val, a)
				}
			}
			s.cols[j] = c
		}
	}
	// Slack/surplus columns: ≤ gets +1 slack in [0,∞); ≥ gets a -1
	// coefficient so the slack variable itself stays ≥ 0; = gets a slack
	// fixed to [0,0].
	for i := 0; i < m; i++ {
		j := n + i
		coef := 1.0
		switch p.Rel[i] {
		case GE:
			coef = -1
			s.up[j] = math.Inf(1)
		case LE:
			s.up[j] = math.Inf(1)
		case EQ:
			s.up[j] = 0
		}
		s.cols[j] = colVec{idx: []int32{int32(i)}, val: []float64{coef}}
	}
	// Artificial columns get their sign fixed in phase-1 setup.
	return s
}

// run executes (crash basis | phase 1) then phase 2.
func (s *solver) run() *Solution {
	if !s.crash() {
		if st, ok := s.phase1(); !ok {
			return s.failedSolution(st)
		}
	}
	return s.phase2()
}

// crash tries to start from a pure slack basis: put every structural
// variable at one of its bounds (all-lower first, then all-upper) and
// check whether the implied slack values are within the slack bounds.
// On success the basis inverse is diagonal (±1) and phase 1 is skipped.
func (s *solver) crash() bool {
	for _, upper := range []bool{false, true} {
		if upper {
			allFinite := true
			for j := 0; j < s.n; j++ {
				if math.IsInf(s.up[j], 1) {
					allFinite = false
					break
				}
			}
			if !allFinite {
				continue
			}
		}
		// Row activity with the chosen nonbasic point.
		act := make([]float64, s.m)
		for j := 0; j < s.n; j++ {
			v := s.lo[j]
			if upper {
				v = s.up[j]
			}
			if v != 0 {
				c := s.column(j)
				for k, i := range c.idx {
					act[i] += float64(c.val[k] * v)
				}
			}
		}
		ok := true
		slack := make([]float64, s.m)
		for i := 0; i < s.m; i++ {
			j := s.n + i
			coef := s.cols[j].val[0] // ±1
			// Row: act + coef·slack = b  →  slack = (b-act)/coef.
			sv := (s.b[i] - act[i]) / coef
			if sv < s.lo[j]-feasTol || sv > s.up[j]+feasTol {
				ok = false
				break
			}
			slack[i] = math.Max(sv, s.lo[j])
		}
		if !ok {
			continue
		}
		// Install the slack basis.
		for j := 0; j < s.n; j++ {
			s.atUp[j] = upper
			if upper {
				s.x[j] = s.up[j]
			} else {
				s.x[j] = s.lo[j]
			}
			s.inB[j] = false
		}
		for i := 0; i < s.m; i++ {
			j := s.n + i
			s.basis[i] = j
			s.inB[j] = true
			s.xB[i] = slack[i]
			s.x[j] = slack[i]
			coef := s.cols[j].val[0]
			row := s.binv[i*s.m : (i+1)*s.m]
			for k := range row {
				row[k] = 0
			}
			row[i] = 1 / coef
		}
		// Artificials stay out of the basis and locked at zero.
		for i := 0; i < s.m; i++ {
			j := s.n + s.m + i
			s.cols[j] = colVec{idx: []int32{int32(i)}, val: []float64{1}}
			s.lo[j], s.up[j] = 0, 0
			s.x[j] = 0
			s.inB[j] = false
		}
		return true
	}
	return false
}

// phase1 installs an artificial basis and minimizes total infeasibility.
// It reports the terminal status and whether a feasible basis was found.
func (s *solver) phase1() (Status, bool) {
	// Initial point: every structural and slack variable at its lower
	// bound (finite by validation).
	for j := 0; j < s.n+s.m; j++ {
		s.x[j] = s.lo[j]
		s.atUp[j] = false
		s.inB[j] = false
	}
	// Residual r = b - A·x determines artificial signs and values.
	r := make([]float64, s.m)
	copy(r, s.b)
	for j := 0; j < s.n+s.m; j++ {
		if s.x[j] != 0 {
			c := s.column(j)
			for k, i := range c.idx {
				r[i] -= float64(c.val[k] * s.x[j])
			}
		}
	}
	phase1 := make([]float64, s.nTot)
	for i := range s.binv {
		s.binv[i] = 0
	}
	for i := 0; i < s.m; i++ {
		j := s.n + s.m + i
		coef := 1.0
		if r[i] < 0 {
			coef = -1
		}
		s.cols[j] = colVec{idx: []int32{int32(i)}, val: []float64{coef}}
		s.lo[j], s.up[j] = 0, math.Inf(1)
		s.x[j] = math.Abs(r[i])
		s.basis[i] = j
		s.inB[j] = true
		s.atUp[j] = false
		s.xB[i] = s.x[j]
		s.binv[i*s.m+i] = 1 / coef
		phase1[j] = 1
	}

	st := s.iterate(phase1, true)
	if st == IterLimit {
		return IterLimit, false
	}
	infeas := 0.0
	for i := 0; i < s.m; i++ {
		if s.basis[i] >= s.n+s.m {
			infeas += s.xB[i]
		}
	}
	if infeas > feasTol {
		return Infeasible, false
	}
	// Lock artificials at zero for phase 2. Basic artificials stuck at
	// value 0 are harmless; they just can't re-grow.
	for i := 0; i < s.m; i++ {
		j := s.n + s.m + i
		s.up[j] = 0
		if !s.inB[j] {
			s.x[j] = 0
		}
	}
	return Optimal, true
}

// phase2 minimizes the true objective from the current feasible basis
// and assembles the Solution.
func (s *solver) phase2() *Solution {
	st := s.iterate(s.cost, false)
	if st != Optimal {
		return s.failedSolution(st)
	}
	sol := &Solution{
		Status:      Optimal,
		X:           make([]float64, s.n),
		Dual:        make([]float64, s.m),
		ReducedCost: make([]float64, s.n),
		Iterations:  s.iters,
		Pivots:      s.pivots,
	}
	for i := 0; i < s.m; i++ {
		s.x[s.basis[i]] = s.xB[i]
	}
	copy(sol.X, s.x[:s.n])
	// iterate returned Optimal right after pricing the final basis, so
	// yBuf holds its duals and dBuf its structural reduced costs.
	y := s.yBuf
	copy(sol.Dual, y)
	obj := 0.0
	for j := 0; j < s.n; j++ {
		obj += float64(s.cost[j] * s.x[j])
	}
	sol.Obj = obj
	if s.slab != nil {
		copy(sol.ReducedCost, s.dBuf)
		return sol
	}
	for j := 0; j < s.n; j++ {
		sol.ReducedCost[j] = s.reducedCost(j, s.cost, y)
	}
	return sol
}

func (s *solver) failedSolution(st Status) *Solution {
	return &Solution{
		Status:      st,
		X:           make([]float64, s.n),
		Dual:        make([]float64, s.m),
		ReducedCost: make([]float64, s.n),
		Iterations:  s.iters,
		Pivots:      s.pivots,
	}
}

// duals computes y = c_B·B⁻¹ for the given cost vector into the shared
// scratch buffer.
func (s *solver) duals(cost []float64) []float64 {
	y := s.yBuf
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < s.m; i++ {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.binv[i*s.m : (i+1)*s.m]
		for k, v := range row {
			y[k] += float64(cb * v)
		}
	}
	return y
}

// reducedCost is cost[j] − y·A_j for a sparse column j.
func (s *solver) reducedCost(j int, cost, y []float64) float64 {
	d := cost[j]
	c := s.cols[j]
	for k, i := range c.idx {
		d -= float64(y[i] * c.val[k])
	}
	return d
}

// setDir sets dir[j] from j's status: 0 when j is basic or fixed,
// otherwise +1 at its lower bound and −1 at its upper bound, the sign
// of a profitable move.
func (s *solver) setDir(j int) {
	switch {
	case s.inB[j] || s.lo[j] == s.up[j]:
		s.dir[j] = 0
	case s.atUp[j]:
		s.dir[j] = -1
	default:
		s.dir[j] = 1
	}
}

// iterate runs primal simplex iterations with cost vector `cost` until
// optimality, unboundedness or the iteration cap. In phase 1 artificial
// columns may price; afterwards they are excluded. On Optimal, yBuf
// holds the duals and dBuf the structural reduced costs of the final
// basis.
func (s *solver) iterate(cost []float64, phase1 bool) Status {
	maxIter := s.iters + 5000 + 50*(s.n+s.m)
	w := s.wBuf
	limit := s.nTot
	if !phase1 {
		limit = s.n + s.m
	}
	for j := 0; j < limit; j++ {
		s.setDir(j)
	}
	// Structural reduced costs come from the dense slab when there is
	// one; nPriced is 0 on the sparse path.
	nPriced := len(s.dBuf)
	dDense, dirDense := s.dBuf, s.dir[:nPriced]
	var y []float64
	priced := false // y and dBuf belong to the current basis
	for {
		if s.iters >= maxIter {
			return IterLimit
		}
		s.iters++
		if !priced {
			y = s.duals(cost)
			if nPriced > 0 {
				price(dDense, cost, y, s.slab)
			}
			priced = true
		}

		// Pricing: pick the entering variable. score = dir·d is negative
		// exactly when moving j off its bound lowers the objective, and 0
		// for basic and fixed columns, which never beat best < 0.
		bland := s.degen >= blandTrigger
		enter := -1
		best := -tol
		for j, d := range dDense {
			if score := dirDense[j] * d; score < best {
				enter = j
				if bland {
					break
				}
				best = score
			}
		}
		if !bland || enter < 0 {
			for j := nPriced; j < limit; j++ {
				sg := s.dir[j]
				if sg == 0 {
					continue
				}
				if score := sg * s.reducedCost(j, cost, y); score < best {
					enter = j
					if bland {
						break
					}
					best = score
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		dir := s.dir[enter]

		// Direction through the basis: w = B⁻¹·A_enter, one row of B⁻¹
		// at a time, each summing its terms in the column's index order.
		ec := s.column(enter)
		for r := range w {
			row := s.binv[r*s.m : (r+1)*s.m]
			acc := 0.0
			if len(ec.val) == s.m {
				// A column with m entries lists every row in order.
				row := row[:len(ec.val)]
				for i, v := range ec.val {
					acc += float64(row[i] * v)
				}
			} else {
				for k, i := range ec.idx {
					acc += float64(row[i] * ec.val[k])
				}
			}
			w[r] = acc
		}

		// Ratio test. Basic variable i moves by -t·dir·w[i].
		tMax := s.up[enter] - s.lo[enter] // bound-flip cap (may be +Inf)
		leave, leaveToUp := -1, false
		consider := func(i int, t float64, toUp bool) {
			switch {
			case t < tMax-tol:
				tMax, leave, leaveToUp = t, i, toUp
			case t <= tMax+tol:
				// Tie within tolerance: under Bland's rule prefer the
				// smallest leaving variable index (anti-cycling);
				// otherwise keep the first hit.
				if leave < 0 || (bland && s.basis[i] < s.basis[leave]) {
					if t < tMax {
						tMax = t
					}
					leave, leaveToUp = i, toUp
				}
			}
		}
		for i := 0; i < s.m; i++ {
			delta := -dir * w[i]
			bi := s.basis[i]
			switch {
			case delta < -tol:
				consider(i, (s.xB[i]-s.lo[bi])/(-delta), false)
			case delta > tol:
				if !math.IsInf(s.up[bi], 1) {
					consider(i, (s.up[bi]-s.xB[i])/delta, true)
				}
			}
		}
		if math.IsInf(tMax, 1) {
			return Unbounded
		}
		s.pivots++
		if tMax < tol {
			s.degen++
		} else {
			s.degen = 0
		}
		if tMax < 0 {
			tMax = 0
		}

		// Apply the step to the basic values.
		for i := 0; i < s.m; i++ {
			s.xB[i] -= float64(tMax * dir * w[i])
		}

		if leave < 0 {
			// Pure bound flip: the entering variable crosses to its
			// opposite bound. The basis is unchanged, and so are y and
			// every reduced cost: the next iteration reuses them.
			if dir > 0 {
				s.x[enter] = s.up[enter]
				s.atUp[enter] = true
			} else {
				s.x[enter] = s.lo[enter]
				s.atUp[enter] = false
			}
			s.dir[enter] = -dir
			continue
		}

		// Pivot: `enter` becomes basic in row `leave`.
		out := s.basis[leave]
		s.inB[out] = false
		if leaveToUp {
			s.x[out] = s.up[out]
			s.atUp[out] = true
		} else {
			s.x[out] = s.lo[out]
			s.atUp[out] = false
		}
		var enterVal float64
		if dir > 0 {
			enterVal = s.lo[enter] + tMax
		} else {
			enterVal = s.up[enter] - tMax
		}
		s.basis[leave] = enter
		s.inB[enter] = true
		s.atUp[enter] = false
		s.xB[leave] = enterVal
		s.dir[enter] = 0
		s.setDir(out)
		priced = false

		// Update B⁻¹: eliminate w in all rows but `leave`.
		piv := w[leave]
		prow := s.binv[leave*s.m : (leave+1)*s.m]
		inv := 1 / piv
		for k := range prow {
			prow[k] *= inv
		}
		for i := 0; i < s.m; i++ {
			if i == leave {
				continue
			}
			f := w[i]
			if f == 0 {
				continue
			}
			row := s.binv[i*s.m : (i+1)*s.m]
			for k := range row {
				row[k] -= float64(f * prow[k])
			}
		}
	}
}

// WarmSolver solves a sequence of LPs that share A, b, Rel and bounds
// and differ only in the cost vector — the access pattern of the BCPOP
// workload, where every upper-level pricing decision re-prices the same
// covering matrix. Any optimal basis of one cost vector stays primal
// feasible for every other, so a solve that starts from one runs phase 2
// only. SolveWithCosts starts from whatever basis the previous solve
// left; SolveFrom starts from an explicit Basis, which makes its result
// a pure function of (costs, start basis).
type WarmSolver struct {
	s      *solver
	n      int
	solved bool // a feasible basis is installed
	infeas bool // the feasible region is empty regardless of costs

	// Fault, when non-nil, is consulted before every solve; a non-nil
	// return aborts the solve with that error and leaves the solver
	// state (warm basis, infeasibility latch) untouched, so a later
	// retry behaves as if the faulted call never happened. Used by the
	// fault-injection layer; nil in production.
	Fault func() error
}

// NewWarmSolver validates the problem shape and prepares a reusable
// solver. p.C provides the initial costs. A WarmSolver is not safe for
// concurrent use; clone one per goroutine via NewWarmSolver.
func NewWarmSolver(p *Problem) (*WarmSolver, error) {
	lo, up, err := validate(p)
	if err != nil {
		return nil, err
	}
	return &WarmSolver{s: newSolver(p, lo, up), n: len(p.C)}, nil
}

// begin validates a fresh cost vector (length n), consults the fault
// hook and installs the costs for the next solve.
func (ws *WarmSolver) begin(c []float64) error {
	if len(c) != ws.n {
		return fmt.Errorf("lp: got %d costs, want %d", len(c), ws.n)
	}
	for j, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: bad cost on variable %d: %v", j, v)
		}
	}
	if ws.Fault != nil {
		if err := ws.Fault(); err != nil {
			return fmt.Errorf("lp: %w", err)
		}
	}
	s := ws.s
	copy(s.cost[:s.n], c)
	s.pivots, s.degen = 0, 0
	return nil
}

// cold solves from scratch (crash basis or phase 1) and latches the
// outcome.
func (ws *WarmSolver) cold() *Solution {
	sol := ws.s.run()
	ws.solved = sol.Status == Optimal
	ws.infeas = sol.Status == Infeasible
	return sol
}

// SolveWithCosts solves with a fresh cost vector (length n), starting
// from the basis the previous solve left. The returned Solution is
// freshly allocated and remains valid across later calls.
func (ws *WarmSolver) SolveWithCosts(c []float64) (*Solution, error) {
	if err := ws.begin(c); err != nil {
		return nil, err
	}
	if ws.infeas {
		return ws.s.failedSolution(Infeasible), nil
	}
	if !ws.solved {
		return ws.cold(), nil
	}
	// Warm path: current basis is primal feasible; re-optimize.
	sol := ws.s.phase2()
	if sol.Status != Optimal {
		// Numerical trouble on the warm path (e.g. accumulated basis
		// drift): fall back to a cold solve once.
		sol = ws.cold()
	}
	return sol, nil
}

// Iterations returns the cumulative simplex iterations across all solves.
func (ws *WarmSolver) Iterations() int { return ws.s.iters }

// Reset discards the installed warm basis, so the next SolveWithCosts
// runs cold, exactly like the first solve of a fresh WarmSolver. The
// infeasibility latch is kept — an empty feasible region is a property
// of the matrix, not the costs.
func (ws *WarmSolver) Reset() { ws.solved = false }

package lp

import (
	"encoding/binary"
	"errors"
	"math"
)

// Basis is a compact simplex basis: the basic column of every row plus
// one at-upper bit per structural column. Columns [0,n) are structural
// and [n,n+m) are the row slacks; a nonbasic slack always sits at its
// lower bound. At 500×30 a Basis is under 200 bytes. It carries no
// factorization and no values: SolveFrom rebuilds B⁻¹ and x_B from the
// columns it names, so a solve from a Basis depends on nothing else.
// A Basis is immutable once built, so any number of solvers may start
// from the same one.
type Basis struct {
	basic []int32  // basic column per row, each in [0, n+m)
	atUp  []uint64 // bit j: structural column j is nonbasic at its upper bound
}

// pivTol is the smallest pivot magnitude install accepts while
// refactoring a basis matrix; below it the basis counts as singular.
const pivTol = 1e-9

// Basis returns the basis the last solve ended on, or nil when that
// solve was not optimal or ended with an artificial column basic.
func (ws *WarmSolver) Basis() *Basis {
	s := ws.s
	if !ws.solved {
		return nil
	}
	b := &Basis{basic: make([]int32, s.m), atUp: make([]uint64, (s.n+63)/64)}
	for i, j := range s.basis {
		if j >= s.n+s.m {
			return nil
		}
		b.basic[i] = int32(j)
	}
	for j := 0; j < s.n; j++ {
		if !s.inB[j] && s.atUp[j] {
			b.atUp[j/64] |= 1 << (j % 64)
		}
	}
	return b
}

// Fits reports whether b can be a basis of a problem with the given
// numbers of rows and structural columns: one basic column per row,
// each a structural or slack column, none twice, and one at-upper bit
// per structural column. It does not check that the basis matrix is
// nonsingular or its basic values feasible; SolveFrom does.
func (b *Basis) Fits(rows, cols int) bool {
	if len(b.basic) != rows || len(b.atUp) != (cols+63)/64 {
		return false
	}
	for i, j := range b.basic {
		if j < 0 || int(j) >= cols+rows {
			return false
		}
		for _, k := range b.basic[:i] {
			if k == j {
				return false
			}
		}
	}
	return true
}

// SolveFrom solves with a fresh cost vector (length n), starting from
// the basis start. A nil start solves cold. A start that does not fit
// the problem, whose basis matrix is numerically singular, or whose
// basic values are primal infeasible beyond feasTol also solves cold,
// as does a start whose phase 2 fails. The result is a pure function of
// (c, start): no earlier solve on this WarmSolver changes a bit of it.
func (ws *WarmSolver) SolveFrom(c []float64, start *Basis) (*Solution, error) {
	if err := ws.begin(c); err != nil {
		return nil, err
	}
	if ws.infeas {
		return ws.s.failedSolution(Infeasible), nil
	}
	if start == nil || !ws.s.install(start) {
		return ws.cold(), nil
	}
	sol := ws.s.phase2()
	if sol.Status != Optimal {
		sol = ws.cold()
	} else {
		ws.solved = true
	}
	return sol, nil
}

// install makes b the current basis. It puts every nonbasic column at
// the bound b records, refactors B⁻¹ from the basic columns by
// Gauss-Jordan elimination with partial pivoting and recomputes x_B. It
// reports false when b does not fit the problem, B is singular, or x_B
// violates a bound by more than feasTol; the solver state is then
// unusable until a cold run rebuilds it.
func (s *solver) install(b *Basis) bool {
	m, n := s.m, s.n
	if !b.Fits(m, n) {
		return false
	}
	for j := 0; j < n+m; j++ {
		s.inB[j] = false
	}
	for _, j := range b.basic {
		s.inB[j] = true
	}
	for j := 0; j < n+m; j++ {
		s.atUp[j] = false
		if s.inB[j] {
			continue
		}
		s.x[j] = s.lo[j]
		if j < n && b.atUp[j/64]&(1<<(j%64)) != 0 {
			if math.IsInf(s.up[j], 1) {
				return false
			}
			s.atUp[j] = true
			s.x[j] = s.up[j]
		}
	}
	// Artificial columns stay as the last cold run left them: a fitting
	// basis holds none, and phase 2 never prices them.

	// [B | I] → [I | B⁻¹], B's column i being the column basic in row i.
	if s.fac == nil {
		s.fac = make([]float64, m*m)
	}
	f, inv := s.fac, s.binv
	for k := range f {
		f[k], inv[k] = 0, 0
	}
	for i, j := range b.basic {
		s.basis[i] = int(j)
		c := s.column(int(j))
		for k, r := range c.idx {
			f[int(r)*m+i] = c.val[k]
		}
		inv[i*m+i] = 1
	}
	for k := 0; k < m; k++ {
		p := k
		for r := k + 1; r < m; r++ {
			if math.Abs(f[r*m+k]) > math.Abs(f[p*m+k]) {
				p = r
			}
		}
		piv := f[p*m+k]
		if !(math.Abs(piv) > pivTol) {
			return false
		}
		if p != k {
			swapRows(f, m, p, k)
			swapRows(inv, m, p, k)
		}
		// Columns left of k are already reduced to unit vectors, so the
		// row operations on B start at column k.
		fk, ik := f[k*m+k:(k+1)*m], inv[k*m:(k+1)*m]
		rp := 1 / piv
		for c := range fk {
			fk[c] *= rp
		}
		for c := range ik {
			ik[c] *= rp
		}
		for r := 0; r < m; r++ {
			g := f[r*m+k]
			if r == k || g == 0 {
				continue
			}
			fr, ir := f[r*m+k:(r+1)*m], inv[r*m:(r+1)*m]
			fr, ir = fr[:len(fk)], ir[:len(ik)]
			for c, v := range fk {
				fr[c] -= float64(g * v)
			}
			for c, v := range ik {
				ir[c] -= float64(g * v)
			}
		}
	}

	// x_B = B⁻¹·(b − Σ_nonbasic A_j·x_j).
	rhs := s.wBuf
	copy(rhs, s.b)
	for j := 0; j < n+m; j++ {
		xj := s.x[j]
		if s.inB[j] || xj == 0 {
			continue
		}
		c := s.column(j)
		if len(c.val) == m {
			// A column with m entries lists every row in order.
			rhs := rhs[:len(c.val)]
			for r, a := range c.val {
				rhs[r] -= float64(a * xj)
			}
			continue
		}
		for k, r := range c.idx {
			rhs[r] -= float64(c.val[k] * xj)
		}
	}
	for i := 0; i < m; i++ {
		v := 0.0
		row := inv[i*m : (i+1)*m]
		for k, a := range row {
			v += float64(a * rhs[k])
		}
		bi := s.basis[i]
		if !(v >= s.lo[bi]-feasTol && v <= s.up[bi]+feasTol) {
			return false
		}
		s.xB[i] = v
		s.x[bi] = v
	}
	return true
}

// swapRows swaps rows p and q of the row-major matrix a with m columns.
func swapRows(a []float64, m, p, q int) {
	rp, rq := a[p*m:(p+1)*m], a[q*m:(q+1)*m]
	for c := range rp {
		rp[c], rq[c] = rq[c], rp[c]
	}
}

// MarshalBinary encodes b as uvarint m, uvarint len(atUp), m uvarint
// basic columns, then the at-upper words little-endian.
func (b *Basis) MarshalBinary() ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(len(b.basic)))
	out = binary.AppendUvarint(out, uint64(len(b.atUp)))
	for _, j := range b.basic {
		out = binary.AppendUvarint(out, uint64(j))
	}
	for _, w := range b.atUp {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out, nil
}

// UnmarshalBinary decodes the MarshalBinary form. It checks only the
// encoding; whether the basis fits a problem is SolveFrom's to judge.
func (b *Basis) UnmarshalBinary(data []byte) error {
	errBad := errors.New("lp: malformed basis encoding")
	next := func() (uint64, bool) {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, false
		}
		data = data[k:]
		return v, true
	}
	// Every basic column takes at least one byte and every word eight,
	// so a hostile count is rejected before it sizes an allocation.
	m, ok1 := next()
	words, ok2 := next()
	if !ok1 || !ok2 || m > uint64(len(data)) || words > uint64(len(data))/8 {
		return errBad
	}
	basic := make([]int32, m)
	for i := range basic {
		v, ok := next()
		if !ok || v > math.MaxInt32 {
			return errBad
		}
		basic[i] = int32(v)
	}
	if uint64(len(data)) != 8*words {
		return errBad
	}
	atUp := make([]uint64, words)
	for i := range atUp {
		atUp[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	b.basic, b.atUp = basic, atUp
	return nil
}

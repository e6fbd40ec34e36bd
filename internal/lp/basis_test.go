package lp

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"carbon/internal/rng"
)

// randomCosts draws a fresh cost vector for p's columns.
func randomCosts(r *rng.Rand, n int) []float64 {
	c := make([]float64, n)
	for j := range c {
		c[j] = r.Range(1, 100)
	}
	return c
}

// withCosts returns a copy of p that carries costs c.
func withCosts(p *Problem, c []float64) *Problem {
	q := *p
	q.C = c
	return &q
}

// sameBits reports whether two solutions agree bit for bit.
func sameBits(a, b *Solution) bool {
	if a.Status != b.Status || math.Float64bits(a.Obj) != math.Float64bits(b.Obj) {
		return false
	}
	for _, pair := range [][2][]float64{{a.X, b.X}, {a.Dual, b.Dual}, {a.ReducedCost, b.ReducedCost}} {
		if len(pair[0]) != len(pair[1]) {
			return false
		}
		for j := range pair[0] {
			if math.Float64bits(pair[0][j]) != math.Float64bits(pair[1][j]) {
				return false
			}
		}
	}
	return true
}

func newWarm(t testing.TB, p *Problem) *WarmSolver {
	t.Helper()
	ws, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func solveFrom(t testing.TB, ws *WarmSolver, c []float64, b *Basis) *Solution {
	t.Helper()
	sol, err := ws.SolveFrom(c, b)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSolveFromOwnBasisTakesNoPivots(t *testing.T) {
	for _, p := range []*Problem{randomCoveringLP(rng.New(3), 200, 10), denseCoveringLP(rng.New(4), 500, 30)} {
		ws := newWarm(t, p)
		cold := solveFrom(t, ws, p.C, nil)
		if cold.Status != Optimal || cold.Pivots == 0 {
			t.Fatalf("cold solve: %v after %d pivots", cold.Status, cold.Pivots)
		}
		b := ws.Basis()
		if b == nil {
			t.Fatal("no basis after an optimal solve")
		}
		again := solveFrom(t, newWarm(t, p), p.C, b)
		if again.Pivots != 0 {
			t.Fatalf("re-solve from own basis took %d pivots", again.Pivots)
		}
		if math.Abs(again.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
			t.Fatalf("objective %v, want %v", again.Obj, cold.Obj)
		}
		if err := CheckKKT(p, again, 1e-6); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveFromIsPure: the same (costs, basis) gives the same bits on a
// fresh solver and on one with an arbitrary solve history.
func TestSolveFromIsPure(t *testing.T) {
	r := rng.New(8)
	p := denseCoveringLP(r, 300, 20)
	seed := newWarm(t, p)
	solveFrom(t, seed, p.C, nil)
	start := seed.Basis()

	used := newWarm(t, p)
	for k := 0; k < 5; k++ {
		if _, err := used.SolveWithCosts(randomCosts(r, len(p.C))); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 10; trial++ {
		c := randomCosts(r, len(p.C))
		fresh := solveFrom(t, newWarm(t, p), c, start)
		old := solveFrom(t, used, c, start)
		if !sameBits(fresh, old) || fresh.Pivots != old.Pivots {
			t.Fatalf("trial %d: solve from a basis depends on solver history", trial)
		}
		if err := CheckKKT(withCosts(p, c), fresh, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSolveFromUnusableBasisSolvesCold: every kind of unusable start
// gives exactly the cold solve's bits.
func TestSolveFromUnusableBasisSolvesCold(t *testing.T) {
	p := randomCoveringLP(rng.New(12), 60, 6)
	// Column 1 duplicates column 0, so a basis holding both is singular.
	for i := range p.A {
		p.A[i][1] = p.A[i][0]
	}
	ws := newWarm(t, p)
	solveFrom(t, ws, p.C, nil)
	good := ws.Basis()
	n, m := len(p.C), len(p.B)
	slacks := func() []int32 {
		s := make([]int32, m)
		for i := range s {
			s[i] = int32(n + i)
		}
		return s
	}
	mut := func(f func(b *Basis)) *Basis {
		b := &Basis{basic: slacks(), atUp: make([]uint64, len(good.atUp))}
		f(b)
		return b
	}
	cases := map[string]*Basis{
		"short":        {basic: good.basic[:m-1], atUp: good.atUp},
		"no bits":      {basic: good.basic},
		"out of range": mut(func(b *Basis) { b.basic[0] = int32(n + m) }),
		"negative":     mut(func(b *Basis) { b.basic[0] = -1 }),
		"duplicate":    mut(func(b *Basis) { b.basic[1] = b.basic[0] }),
		"singular":     mut(func(b *Basis) { b.basic[0], b.basic[1] = 0, 1 }),
		// All structural columns at zero leave every row uncovered: the
		// surplus slacks would have to go negative.
		"infeasible": mut(func(b *Basis) {}),
	}
	want := solveFrom(t, newWarm(t, p), p.C, nil)
	for name, b := range cases {
		got := solveFrom(t, newWarm(t, p), p.C, b)
		if !sameBits(got, want) {
			t.Errorf("%s: result differs from the cold solve", name)
		}
	}
}

func TestSolveFromAtUpperOnUnboundedColumnSolvesCold(t *testing.T) {
	p := &Problem{
		C:   []float64{1, 2},
		A:   [][]float64{{1, 1}},
		Rel: []Relation{GE},
		B:   []float64{1},
	}
	b := &Basis{basic: []int32{0}, atUp: []uint64{2}} // column 1 at +Inf
	got := solveFrom(t, newWarm(t, p), p.C, b)
	if !sameBits(got, solveFrom(t, newWarm(t, p), p.C, nil)) {
		t.Fatal("at-upper flag on an unbounded column was installed")
	}
}

func TestBasisBinaryRoundTrip(t *testing.T) {
	p := denseCoveringLP(rng.New(5), 500, 30)
	ws := newWarm(t, p)
	solveFrom(t, ws, p.C, nil)
	b := ws.Basis()
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 200 {
		t.Errorf("500×30 basis encodes to %d bytes", len(data))
	}
	var back Basis
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	again, _ := back.MarshalBinary()
	if !bytes.Equal(again, data) {
		t.Fatal("round trip changed the encoding")
	}
	for cut := 0; cut < len(data); cut++ {
		if err := new(Basis).UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if err := new(Basis).UnmarshalBinary(append(data, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0}
	if err := new(Basis).UnmarshalBinary(huge); err == nil {
		t.Fatal("hostile row count accepted")
	}
}

// rawBasis reads fuzz bytes as a basis without the encoding's checks:
// two bytes per basic column (any int16, so negative and out-of-range
// columns too), at most m+1 of them, and the first eight bytes as the
// one word of at-upper bits.
func rawBasis(data []byte, m int) *Basis {
	b := &Basis{}
	for k := 0; k+1 < len(data) && len(b.basic) <= m; k += 2 {
		b.basic = append(b.basic, int32(int16(uint16(data[k])|uint16(data[k+1])<<8)))
	}
	if len(data) >= 8 {
		b.atUp = []uint64{binary.LittleEndian.Uint64(data)}
	}
	return b
}

// FuzzSolveFromBasis feeds garbled bases to SolveFrom. It must never
// panic; the result must be a KKT-certified optimum, and whenever the
// basis cannot be installed it must equal the cold solve bit for bit.
func FuzzSolveFromBasis(f *testing.F) {
	p := randomCoveringLP(rng.New(19), 40, 5)
	n, m := len(p.C), len(p.B)
	ws := newWarm(f, p)
	solveFrom(f, ws, p.C, nil)
	enc, _ := ws.Basis().MarshalBinary()
	f.Add(enc, uint64(1))
	f.Add([]byte{}, uint64(2))
	f.Add([]byte{40, 0, 41, 0, 42, 0, 43, 0, 44, 0}, uint64(3)) // the slack basis: infeasible
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 0xff, 0xff}, uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, costSeed uint64) {
		c := randomCosts(rng.New(costSeed), n)
		b := new(Basis)
		if b.UnmarshalBinary(data) != nil {
			b = rawBasis(data, m)
		}
		got := solveFrom(t, newWarm(t, p), c, b)
		if got.Status != Optimal {
			t.Fatalf("status %v", got.Status)
		}
		if err := CheckKKT(withCosts(p, c), got, 1e-6); err != nil {
			t.Fatal(err)
		}
		if !newWarm(t, p).s.install(b) && !sameBits(got, solveFrom(t, newWarm(t, p), c, nil)) {
			t.Fatal("uninstallable basis did not solve cold")
		}
	})
}

// BenchmarkSolveFromOwnBasis500x30 is the fixed cost of a warm start:
// installing a basis (refactoring B⁻¹, recomputing x_B) and confirming
// it optimal, on the dense 500×30 shape of the paper's instances.
func BenchmarkSolveFromOwnBasis500x30(b *testing.B) {
	p := denseCoveringLP(rng.New(4), 500, 30)
	ws := newWarm(b, p)
	solveFrom(b, ws, p.C, nil)
	start := ws.Basis()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := solveFrom(b, ws, p.C, start); sol.Pivots != 0 {
			b.Fatalf("%d pivots", sol.Pivots)
		}
	}
}

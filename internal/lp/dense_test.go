package lp

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"carbon/internal/rng"
)

// denseCoveringLP is randomCoveringLP with every coefficient nonzero,
// the shape of the MKP-derived covering instances.
func denseCoveringLP(r *rng.Rand, n, m int) *Problem {
	p := &Problem{
		C:   make([]float64, n),
		A:   make([][]float64, m),
		Rel: make([]Relation, m),
		B:   make([]float64, m),
		Lo:  make([]float64, n),
		Up:  make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = r.Range(1, 100)
		p.Up[j] = 1
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		rowSum := 0.0
		for j := 0; j < n; j++ {
			p.A[i][j] = float64(r.IntRange(1, 1000))
			rowSum += p.A[i][j]
		}
		p.Rel[i] = GE
		p.B[i] = math.Floor(rowSum * r.Range(0.2, 0.8))
	}
	return p
}

// warmChainDigest runs a warm-chained solve sequence that re-prices a
// rotating 50-column block each time, like a BCPOP pricing move, and
// returns an FNV-64a digest of every solve's Obj, X, Dual and
// ReducedCost bits plus the cumulative iteration count.
func warmChainDigest(t *testing.T, p *Problem, seed uint64, solves int) (string, int) {
	t.Helper()
	ws, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for k := range buf {
			buf[k] = byte(b >> (8 * k))
		}
		h.Write(buf[:])
	}
	c := append([]float64(nil), p.C...)
	for s := 0; s < solves; s++ {
		for j := 0; j < 50; j++ {
			c[(50*s+j)%len(c)] = r.Range(1, 100)
		}
		sol, err := ws.SolveWithCosts(c)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve %d: %v %v", s, err, sol.Status)
		}
		put(sol.Obj)
		for _, v := range sol.X {
			put(v)
		}
		for _, v := range sol.Dual {
			put(v)
		}
		for _, v := range sol.ReducedCost {
			put(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), ws.Iterations()
}

// TestWarmChainGolden pins the exact bits of a warm-chained 500×30
// solve sequence on a dense matrix and on a sparse one. The digests and
// iteration counts were captured before the dense pricing kernel
// existed: any change to pivot choice or floating-point evaluation order
// shows up here.
func TestWarmChainGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     *Problem
		hash  string
		iters int
	}{
		{"dense", denseCoveringLP(rng.New(2024), 500, 30), "4fd3e19c8a9d2c7e", 1371},
		{"sparse", randomCoveringLP(rng.New(2025), 500, 30), "64d5e4118db3020a", 1813},
	} {
		hash, iters := warmChainDigest(t, tc.p, 7, 24)
		if hash != tc.hash || iters != tc.iters {
			t.Errorf("%s: digest %s, %d iterations; want %s, %d", tc.name, hash, iters, tc.hash, tc.iters)
		}
	}
}

// priceReference is the column-at-a-time loop both pricing kernels must
// match bit for bit: one subtraction chain per column of the
// column-major a, rows ascending.
func priceReference(d, cost, y, a []float64) {
	m := len(y)
	for j := range d {
		dj := cost[j]
		for i := 0; i < m; i++ {
			dj -= float64(y[i] * a[j*m+i])
		}
		d[j] = dj
	}
}

// interleave lays the column-major n-column block a out in column groups,
// the layout newSolver builds, with every padding slot set to pad.
func interleave(a []float64, n, m int, pad float64) []float64 {
	slab := make([]float64, groupLen(n, m))
	for k := range slab {
		slab[k] = pad
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			slab[slabAt(i, j, m)] = a[j*m+i]
		}
	}
	return slab
}

// kernels lists the pricing kernels this host can run: the portable one
// always, the AVX2 one where the CPU and OS support it.
func kernels() map[string]kernelFunc {
	ks := map[string]kernelFunc{"portable": pricePortable}
	if avx2Kernel != nil {
		ks["asm"] = avx2Kernel
	}
	return ks
}

// withKernel runs f with price using kernel k.
func withKernel(k kernelFunc, f func()) {
	old := priceKernel
	priceKernel = k
	defer func() { priceKernel = old }()
	f()
}

// checkKernels prices the column-major block a with every kernel, over a
// slab whose padding is poisoned with NaN, and fails unless each result
// is the bits of priceReference.
func checkKernels(t *testing.T, cost, y, a []float64) {
	t.Helper()
	n, m := len(cost), len(y)
	want := make([]float64, n)
	priceReference(want, cost, y, a)
	slab := interleave(a, n, m, math.NaN())
	for name, k := range kernels() {
		got := make([]float64, n)
		withKernel(k, func() { price(got, cost, y, slab) })
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s kernel, m=%d n=%d col %d: %x, reference %x",
					name, m, n, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}

func TestPriceDenseBitIdentical(t *testing.T) {
	r := rng.New(41)
	// Values spread over many binades, so any reassociation of a
	// column's chain changes the rounding and shows up.
	val := func() float64 {
		return r.NormFloat64() * math.Ldexp(1, r.IntRange(-20, 20))
	}
	for _, m := range []int{1, 3, 4, 5, 10, 30} {
		// Every remainder mod 4 and mod 16, so both AVX2 loops (16 and 4
		// columns a pass) and the Go tail run.
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 15, 16, 17, 18, 19, 31, 33, 501} {
			for trial := 0; trial < 4; trial++ {
				a := make([]float64, n*m)
				for k := range a {
					a[k] = val()
				}
				cost := make([]float64, n)
				for j := range cost {
					switch r.Intn(4) {
					case 0:
						cost[j] = 0
					case 1:
						cost[j] = math.Copysign(0, -1)
					default:
						cost[j] = val()
					}
				}
				y := make([]float64, m)
				for i := range y {
					if trial == 0 || r.Bool(0.3) {
						continue // zero duals: every term is ±0
					}
					y[i] = val()
				}
				checkKernels(t, cost, y, a)
			}
		}
	}
}

// TestDenseSlabOnlyWhenFullyDense pins the layout: a fully dense matrix
// is stored once, in column groups of four padded with zero columns,
// and no structural column keeps sparse storage; a matrix with a zero
// coefficient gets no slab.
func TestDenseSlabOnlyWhenFullyDense(t *testing.T) {
	p := denseCoveringLP(rng.New(3), 9, 4)
	lo, up, err := validate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := newSolver(p, lo, up)
	if len(s.slab) != 3*4*4 {
		t.Fatalf("dense matrix: slab holds %d values, want %d", len(s.slab), 3*4*4)
	}
	for g := 0; g < 3; g++ {
		for i := 0; i < 4; i++ {
			for l := 0; l < 4; l++ {
				want, j := 0.0, 4*g+l
				if j < 9 {
					want = p.A[i][j]
				}
				if got := s.slab[(g*4+i)*4+l]; got != want {
					t.Fatalf("group %d row %d lane %d: %v, want %v", g, i, l, got, want)
				}
			}
		}
	}
	for j := 0; j < 9; j++ {
		if s.cols[j].val != nil {
			t.Fatalf("column %d keeps sparse storage beside the slab", j)
		}
		c := s.column(j)
		for i := 0; i < 4; i++ {
			if c.idx[i] != int32(i) || c.val[i] != p.A[i][j] {
				t.Fatalf("column(%d) row %d: (%d, %v), want (%d, %v)", j, i, c.idx[i], c.val[i], i, p.A[i][j])
			}
		}
	}
	p.A[2][5] = 0
	if s := newSolver(p, lo, up); s.slab != nil {
		t.Fatal("a matrix with a zero coefficient got a dense slab")
	}
}

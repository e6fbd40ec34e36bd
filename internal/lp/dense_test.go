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

// priceReference is the column-at-a-time loop priceDense must match
// bit for bit: one subtraction chain per column, rows ascending.
func priceReference(d, cost, y, a []float64) {
	m := len(y)
	for j := range d {
		dj := cost[j]
		for i := 0; i < m; i++ {
			dj -= y[i] * a[j*m+i]
		}
		d[j] = dj
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
		for _, n := range []int{1, 2, 3, 5, 6, 7, 13, 501} {
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
				got := make([]float64, n)
				want := make([]float64, n)
				priceDense(got, cost, y, a)
				priceReference(want, cost, y, a)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("m=%d n=%d trial %d col %d: %x, reference %x",
							m, n, trial, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

// TestDenseSlabOnlyWhenFullyDense: the slab replaces the per-column
// storage exactly when no structural coefficient is zero.
func TestDenseSlabOnlyWhenFullyDense(t *testing.T) {
	p := denseCoveringLP(rng.New(3), 9, 4)
	lo, up, err := validate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := newSolver(p, lo, up)
	if len(s.slab) != 9*4 {
		t.Fatalf("dense matrix: slab holds %d values, want %d", len(s.slab), 9*4)
	}
	for j := 0; j < 9; j++ {
		if &s.cols[j].val[0] != &s.slab[j*4] {
			t.Fatalf("column %d does not alias the slab", j)
		}
	}
	p.A[2][5] = 0
	if s := newSolver(p, lo, up); s.slab != nil {
		t.Fatal("a matrix with a zero coefficient got a dense slab")
	}
}

package lp

import (
	"encoding/binary"
	"math"
	"testing"

	"carbon/internal/rng"
)

// FuzzPriceKernels compares every kernel with priceReference on
// arbitrary shapes and bit patterns. Non-finite inputs become zero: the
// solver rejects them before any pricing.
func FuzzPriceKernels(f *testing.F) {
	f.Add(uint8(30), uint16(500), uint64(1), []byte{})
	f.Add(uint8(1), uint16(1), uint64(2), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(5), uint16(19), uint64(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, m8 uint8, n16 uint16, seed uint64, raw []byte) {
		m, n := int(m8%40)+1, int(n16%600)+1
		r := rng.New(seed)
		next := func() float64 {
			if len(raw) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return 0
				}
				return v
			}
			return r.NormFloat64() * math.Ldexp(1, r.IntRange(-30, 30))
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = next()
		}
		cost := make([]float64, n)
		for j := range cost {
			cost[j] = next()
		}
		a := make([]float64, n*m)
		for k := range a {
			a[k] = next()
		}
		checkKernels(t, cost, y, a)
	})
}

// solveSequence runs cold solves, a warm chain and SolveFrom starts on
// dense problems of several shapes and returns every solution.
func solveSequence(t *testing.T) []*Solution {
	t.Helper()
	var out []*Solution
	for _, shape := range [][2]int{{500, 30}, {101, 5}, {250, 10}, {7, 3}} {
		r := rng.New(uint64(shape[0] + shape[1]))
		p := denseCoveringLP(r, shape[0], shape[1])
		out = append(out, mustSolve(t, p))
		ws := newWarm(t, p)
		var bases []*Basis
		for k := 0; k < 6; k++ {
			sol, err := ws.SolveWithCosts(randomCosts(r, len(p.C)))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sol)
			bases = append(bases, ws.Basis())
		}
		for _, b := range bases {
			out = append(out, solveFrom(t, newWarm(t, p), randomCosts(r, len(p.C)), b))
		}
	}
	return out
}

// TestPortableKernelSolvesIdentically: whole solves with the portable
// kernel forced give the AVX2 kernel's bits, pivots and iterations.
func TestPortableKernelSolvesIdentically(t *testing.T) {
	if avx2Kernel == nil {
		t.Skip("the AVX2 kernel does not run on this host")
	}
	var asm, portable []*Solution
	withKernel(avx2Kernel, func() { asm = solveSequence(t) })
	withKernel(pricePortable, func() { portable = solveSequence(t) })
	for k := range asm {
		a, p := asm[k], portable[k]
		if !sameBits(a, p) || a.Pivots != p.Pivots || a.Iterations != p.Iterations {
			t.Fatalf("solve %d: portable kernel differs (pivots %d vs %d, iterations %d vs %d)",
				k, p.Pivots, a.Pivots, p.Iterations, a.Iterations)
		}
	}
}

// TestReducedCostIsFinalPricing: the reduced costs a solve returns are
// the column-at-a-time pricing at its returned duals, bit for bit.
func TestReducedCostIsFinalPricing(t *testing.T) {
	r := rng.New(17)
	p := denseCoveringLP(r, 203, 11)
	n, m := len(p.C), len(p.B)
	a := make([]float64, n*m)
	for i, row := range p.A {
		for j, v := range row {
			a[j*m+i] = v
		}
	}
	ws := newWarm(t, p)
	for k := 0; k < 8; k++ {
		c := randomCosts(r, n)
		sol, err := ws.SolveWithCosts(c)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve %d: %v", k, err)
		}
		want := make([]float64, n)
		priceReference(want, c, sol.Dual, a)
		for j := range want {
			if math.Float64bits(sol.ReducedCost[j]) != math.Float64bits(want[j]) {
				t.Fatalf("solve %d col %d: reduced cost %x, pricing at the duals %x",
					k, j, math.Float64bits(sol.ReducedCost[j]), math.Float64bits(want[j]))
			}
		}
	}
}

// BenchmarkPrice500x30 is one structural pricing of the paper's 500×30
// shape, per kernel.
func BenchmarkPrice500x30(b *testing.B) {
	r := rng.New(5)
	n, m := 500, 30
	a := make([]float64, n*m)
	for k := range a {
		a[k] = float64(r.IntRange(1, 1000))
	}
	slab := interleave(a, n, m, 0)
	cost, y, d := make([]float64, n), make([]float64, m), make([]float64, n)
	for j := range cost {
		cost[j] = r.Range(1, 100)
	}
	for i := range y {
		y[i] = r.Range(0, 1)
	}
	for name, k := range kernels() {
		b.Run(name, func(b *testing.B) {
			withKernel(k, func() {
				for i := 0; i < b.N; i++ {
					price(d, cost, y, slab)
				}
			})
		})
	}
}

// BenchmarkSolveFromRotating500x30 is bcpop's BenchmarkRelaxWarmRotating
// at the lp level, per kernel: 16 cost vectors in turn, each solved from
// the final basis of the next one's solve.
func BenchmarkSolveFromRotating500x30(b *testing.B) {
	r := rng.New(9)
	p := denseCoveringLP(r, 500, 30)
	costs := make([][]float64, 16)
	bases := make([]*Basis, len(costs))
	ws := newWarm(b, p)
	for k := range costs {
		costs[k] = randomCosts(r, len(p.C))
		solveFrom(b, ws, costs[k], nil)
		bases[k] = ws.Basis()
	}
	for name, k := range kernels() {
		b.Run(name, func(b *testing.B) {
			withKernel(k, func() {
				pivots := 0
				for i := 0; i < b.N; i++ {
					sol := solveFrom(b, ws, costs[i%16], bases[(i+1)%16])
					pivots += sol.Pivots
				}
				b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			})
		})
	}
}

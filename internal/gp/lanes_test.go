package gp

import (
	"fmt"
	"math"
	"testing"

	"carbon/internal/rng"
)

// evalPath is one way of computing lanes: the Go loops or the lane
// kernels, with modLanes' fused multiply-add path on or off.
type evalPath struct {
	kernels, fma bool
}

func (p evalPath) String() string {
	return fmt.Sprintf("kernels=%v fma=%v", p.kernels, p.fma)
}

// evalPaths lists the paths this host runs: the Go loops and, where
// the CPU has them, the lane kernels, each with the fused multiply-add
// path on and off.
func evalPaths() []evalPath {
	ps := []evalPath{{false, true}, {false, false}}
	if hasLaneKernels {
		ps = append(ps, evalPath{true, true}, evalPath{true, false})
	}
	return ps
}

// onPath runs f with p's settings, restoring the package's after.
func onPath(p evalPath, f func()) {
	defer func(k, m bool) { laneKernels, modFMA = k, m }(laneKernels, modFMA)
	laneKernels, modFMA = p.kernels, p.fma
	f()
}

// goLoops is the tests' oracle: the Go loops, fused multiply-add path on.
var goLoops = evalPath{false, true}

// laneNaNs are NaNs with distinct payloads and signs, one of them
// signaling, so a kernel that took a NaN from the wrong operand, or
// quieted it differently, shows in the bits.
var laneNaNs = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8000000000123),
	math.Float64frombits(0xfff8000000000456),
	math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0xfff4000000000789),
}

// lanePair draws one (x, y) operand pair of a kind chosen at random:
// the operands where the Go loops' special cases and the mod kernel's
// path tests meet.
func lanePair(r *rng.Rand) (x, y float64) {
	sign := func(v float64) float64 {
		if r.Bool(0.5) {
			return -v
		}
		return v
	}
	below, above := math.Nextafter(protEps, 0), math.Nextafter(protEps, 1)
	switch r.Intn(10) {
	case 0: // specials against anything
		x = modSpecials[r.Intn(len(modSpecials))]
		y = modSpecials[r.Intn(len(modSpecials))]
	case 1: // NaN payloads
		x = laneNaNs[r.Intn(len(laneNaNs))]
		if r.Bool(0.5) {
			y = laneNaNs[r.Intn(len(laneNaNs))]
		} else {
			y = sign(r.Range(0, 10))
		}
		if r.Bool(0.5) {
			x, y = y, x
		}
	case 2: // raw bits: wide exponent gaps, subnormals, NaN, ±Inf
		x, y = math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64())
	case 3: // biased exponent gaps 0–60, around the path's end at 51
		ey := uint64(r.IntRange(1, 2046-60))
		if r.Bool(0.5) {
			ey = uint64(r.IntRange(1000, 1060))
		}
		gap := uint64(r.IntRange(0, 60))
		if r.Bool(0.5) {
			gap = uint64(r.IntRange(48, 55))
		}
		x = fromParts(r.Bool(0.5), ey+gap, r.Uint64())
		y = fromParts(r.Bool(0.5), ey, r.Uint64())
	case 4: // a hair either side of an exact multiple
		y = sign(r.Range(0.5, 1) * math.Ldexp(1, r.IntRange(-40, 40)))
		x = math.Trunc(math.Ldexp(r.Range(1, 2), r.IntRange(0, 52))) * y
		switch r.Intn(3) {
		case 0:
			x = math.Nextafter(x, 0)
		case 1:
			x = math.Nextafter(x, math.Inf(1))
		}
	case 5: // divisors at and beside protEps
		y = sign([]float64{protEps, below, above, 0, math.Copysign(0, -1)}[r.Intn(5)])
		x = sign(r.Range(0, 1) * math.Ldexp(1, r.IntRange(-60, 60)))
	case 6: // subnormals
		x = math.Float64frombits(r.Uint64() & (1<<52 - 1))
		y = sign(r.Range(0.5, 4) * math.Ldexp(1, r.IntRange(-1022, 1023)))
		if r.Bool(0.3) {
			x, y = y, x
		}
	case 7: // |x| just below, at and above |y|
		y = sign(r.Range(0.5, 1) * math.Ldexp(1, r.IntRange(-20, 20)))
		x = sign([]float64{math.Nextafter(y, 0), y, math.Nextafter(y, math.Inf(1))}[r.Intn(3)])
	default: // what a scoring sweep feeds: magnitudes a few binades apart
		y = sign(r.Range(0.5, 1) * math.Ldexp(1, r.IntRange(-8, 8)))
		x = r.Range(-1, 1) * math.Ldexp(y, r.IntRange(0, 24))
	}
	return x, y
}

// lanePairs draws n operand pairs.
func lanePairs(r *rng.Rand, n int) (a, b []float64) {
	a, b = make([]float64, n), make([]float64, n)
	for l := range a {
		a[l], b[l] = lanePair(r)
	}
	return a, b
}

// sameBits fails unless got and want hold the same bits, lane by lane.
func sameBits(t *testing.T, what string, got, want []float64, a, b []float64) {
	t.Helper()
	for l := range want {
		if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
			t.Fatalf("%s, lane %d of %d on (%v %x, %v %x): %v (%x), Go loop %v (%x)",
				what, l, len(want), a[l], math.Float64bits(a[l]), b[l], math.Float64bits(b[l]),
				got[l], math.Float64bits(got[l]), want[l], math.Float64bits(want[l]))
		}
	}
}

// binaryOn runs binary(op) on path p into d.
func binaryOn(p evalPath, op opcode, d, a, b []float64) {
	onPath(p, func() { binary(op, nil, 0, d, a, b) })
}

var kernelOps = []struct {
	name string
	op   opcode
}{{"add", opAdd}, {"sub", opSub}, {"mul", opMul}, {"div", opDivP}, {"mod", opModP}}

// TestLaneKernelsMatchGoLoops holds every binary kernel to the Go loop
// bit for bit, NaN payloads included, at every length from 0 to 130
// (whole groups and every tail), into a fresh slice, in place over a
// and over b, and with a, b and d one slice.
func TestLaneKernelsMatchGoLoops(t *testing.T) {
	if !hasLaneKernels {
		t.Skip("this host runs the Go loops only")
	}
	r := rng.New(29)
	for _, k := range kernelOps {
		for n := 0; n <= 130; n++ {
			for rep := 0; rep < 3; rep++ {
				a, b := lanePairs(r, n)
				want := make([]float64, n)
				binaryOn(goLoops, k.op, want, a, b)
				self := append([]float64(nil), a...)
				binaryOn(goLoops, k.op, self, self, self)
				for _, p := range evalPaths() {
					if !p.kernels {
						continue
					}
					what := fmt.Sprintf("%s on %v", k.name, p)
					got := make([]float64, n)
					binaryOn(p, k.op, got, a, b)
					sameBits(t, what, got, want, a, b)
					overA := append([]float64(nil), a...)
					binaryOn(p, k.op, overA, overA, b)
					sameBits(t, what+" over a", overA, want, a, b)
					overB := append([]float64(nil), b...)
					binaryOn(p, k.op, overB, a, overB)
					sameBits(t, what+" over b", overB, want, a, b)
					both := append([]float64(nil), a...)
					binaryOn(p, k.op, both, both, both)
					sameBits(t, what+" on (a, a) over a", both, self, a, a)
				}
			}
		}
	}
}

// TestModKernelMixedGroups builds every group of four from lanes of
// three kinds — on the fused multiply-add path, protected, and neither
// (left to modLanes) — in all 81 arrangements, so the kernel stops and
// re-enters at every position, and holds the result to the Go loop.
func TestModKernelMixedGroups(t *testing.T) {
	if !hasLaneKernels {
		t.Skip("this host runs the Go loops only")
	}
	r := rng.New(37)
	lane := func(kind int) (x, y float64) {
		switch kind {
		case 0:
			y = r.Range(0.5, 1) * math.Ldexp(1, r.IntRange(-8, 8))
			return r.Range(-1, 1) * math.Ldexp(y, r.IntRange(0, 40)), y
		case 1:
			return r.Range(-9, 9), r.Range(-1, 1) * protEps
		}
		switch r.Intn(4) {
		case 0:
			return math.Inf(1), 3
		case 1:
			return 5, laneNaNs[r.Intn(len(laneNaNs))]
		case 2:
			return 0x1p60, 1.5 // gap 60
		}
		return -0x1p-1030, math.Float64frombits(r.Uint64() & (1<<52 - 1))
	}
	for trial := 0; trial < 20; trial++ {
		var a, b []float64
		for g := 0; g < 81; g++ {
			for l, k := 0, g; l < 4; l, k = l+1, k/3 {
				x, y := lane(k % 3)
				a, b = append(a, x), append(b, y)
			}
		}
		// A tail of up to three lanes after the groups.
		for range trial % 4 {
			x, y := lane(r.Intn(3))
			a, b = append(a, x), append(b, y)
		}
		want := make([]float64, len(a))
		binaryOn(goLoops, opModP, want, a, b)
		for _, p := range evalPaths() {
			got := append([]float64(nil), a...)
			binaryOn(p, opModP, got, got, b)
			sameBits(t, fmt.Sprintf("mod on %v", p), got, want, a, b)
		}
	}
}

// TestRootAccumulateKernelMatchesGoLoop holds the root accumulate's
// kernel to the Go loop: o += v with NaN lanes of v adding 0, on rows
// that already hold NaN, ±0 and ±Inf, at every length from 0 to 130.
func TestRootAccumulateKernelMatchesGoLoop(t *testing.T) {
	if !hasLaneKernels {
		t.Skip("this host runs the Go loops only")
	}
	r := rng.New(43)
	for n := 0; n <= 130; n++ {
		for rep := 0; rep < 4; rep++ {
			o, v := lanePairs(r, n)
			want := append([]float64(nil), o...)
			onPath(goLoops, func() { addRoot(want, v) })
			got := append([]float64(nil), o...)
			onPath(evalPath{true, true}, func() { addRoot(got, v) })
			sameBits(t, "root accumulate", got, want, o, v)
		}
	}
}

// BenchmarkLanes times each Table I lane operation and the root
// accumulate over 128 lanes (the scorer's block width) on every path,
// in ns per lane, on operands like those a scoring sweep feeds them.
func BenchmarkLanes(b *testing.B) {
	r := rng.New(5)
	const n = 128
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		ys[i] = r.Range(0.5, 1) * math.Ldexp(1, r.IntRange(-8, 8))
		xs[i] = r.Range(-1, 1) * math.Ldexp(ys[i], r.IntRange(0, 24))
	}
	d := make([]float64, n)
	paths := []struct {
		name string
		p    evalPath
	}{{"go", goLoops}, {"asm", evalPath{true, true}}}
	for _, k := range kernelOps {
		for _, pp := range paths {
			b.Run(k.name+"/"+pp.name, func(b *testing.B) {
				if pp.p.kernels && !hasLaneKernels {
					b.Skip("this host runs the Go loops only")
				}
				onPath(pp.p, func() {
					for i := 0; i < b.N; i++ {
						binary(k.op, nil, 0, d, xs, ys)
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/lane")
			})
		}
	}
	for _, pp := range paths {
		b.Run("root/"+pp.name, func(b *testing.B) {
			if pp.p.kernels && !hasLaneKernels {
				b.Skip("this host runs the Go loops only")
			}
			clear(d)
			onPath(pp.p, func() {
				for i := 0; i < b.N; i++ {
					addRoot(d, xs)
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/lane")
		})
	}
}

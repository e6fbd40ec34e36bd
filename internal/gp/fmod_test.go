package gp

import (
	"math"
	"testing"

	"carbon/internal/rng"
)

// sameMod reports whether fmod's result matches the math.Mod oracle:
// identical bits, or both NaN (NaN payloads are not part of the
// contract, and only a root NaN is ever observed — as 0).
func sameMod(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// modSpecials are the operands where math.Mod's special cases and
// fmod's unpacking branches meet: signed zeros, infinities, NaN, the
// subnormal range and its boundary, the largest finite values and
// exact multiples.
var modSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, 2, -2, 3, 0.1, -0.1, 1.5, 7.25, -7.25, 1e-12, protEps,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3 * math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
	-0x1p-1030, math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
	0x1p52, 0x1p53 + 2, 1e300, -1e-300,
}

func TestFmodMatchesMathModOnSpecials(t *testing.T) {
	for _, x := range modSpecials {
		for _, y := range modSpecials {
			if got, want := fmod(x, y), math.Mod(x, y); !sameMod(got, want) {
				t.Errorf("fmod(%v, %v) = %v (%x), math.Mod = %v (%x)",
					x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// Random bit patterns cover every exponent gap up to 2046 (the widest
// finite pair) and every sign combination; random significands under a
// few fixed exponent gaps exercise the shift-and-divide loop at each
// residue of the modShift step.
func TestFmodMatchesMathModOnRandomBits(t *testing.T) {
	r := rng.New(17)
	check := func(x, y float64) {
		t.Helper()
		if got, want := fmod(x, y), math.Mod(x, y); !sameMod(got, want) {
			t.Fatalf("fmod(%v, %v) = %v (%x), math.Mod = %v (%x)",
				x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i := 0; i < 20000; i++ {
		check(math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64()))
	}
	for gap := 0; gap <= 24; gap++ {
		for i := 0; i < 500; i++ {
			y := r.Range(0.5, 1) * math.Ldexp(1, r.IntRange(-1070, 1000))
			x := r.Range(-1, 1) * math.Ldexp(y, gap)
			check(x, y)
			check(x, math.Float64frombits(r.Uint64()&(1<<52-1))) // subnormal y
		}
	}
}

// protMod is the protected modulo's oracle: 1 below protEps, else
// math.Mod.
func protMod(x, y float64) float64 {
	if math.Abs(y) < protEps {
		return 1
	}
	return math.Mod(x, y)
}

// checkModLanes runs modLanes on xs and ys three ways — into a fresh
// slice, in place over xs's copy and in place over ys's copy — and
// checks every lane against protMod, and Mod.F2 lane by lane.
func checkModLanes(t *testing.T, xs, ys []float64) {
	t.Helper()
	fresh := make([]float64, len(xs))
	modLanes(fresh, xs, ys)
	overA := append([]float64(nil), xs...)
	modLanes(overA, overA, ys)
	overB := append([]float64(nil), ys...)
	modLanes(overB, xs, overB)
	for l, x := range xs {
		y := ys[l]
		want := protMod(x, y)
		for _, got := range []float64{fresh[l], overA[l], overB[l], Mod.F2(x, y)} {
			if !sameMod(got, want) {
				t.Fatalf("mod lane (%v, %v) = %v (%x), protected math.Mod = %v (%x)",
					x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// fromParts builds the float64 with the given sign, biased exponent
// and 52-bit fraction.
func fromParts(neg bool, exp, frac uint64) float64 {
	b := exp<<52 | frac&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b)
}

// TestModLanesMatchesProtectedMathMod pins the lane kernel, its fused
// multiply-add path and its fmod fallback alike, to the protected
// math.Mod on the operands where the path's exactness argument is
// tightest: every biased exponent gap from 0 to 60 (the path ends at
// 51), dividends a hair either side of an exact multiple k·y with k up
// to 2^53, the specials, subnormal dividends and divisors, and
// divisors at and around protEps.
func TestModLanesMatchesProtectedMathMod(t *testing.T) {
	r := rng.New(23)
	var xs, ys []float64
	add := func(x, y float64) { xs, ys = append(xs, x), append(ys, y) }
	for _, x := range modSpecials {
		for _, y := range modSpecials {
			add(x, y)
		}
	}
	for gap := uint64(0); gap <= 60; gap++ {
		for i := 0; i < 400; i++ {
			ey := uint64(r.IntRange(1, 2046-60))
			if i%4 == 0 {
				ey = uint64(r.IntRange(1000, 1060)) // the scoring range
			}
			frac := r.Uint64()
			if i%8 == 1 {
				frac = 1<<52 - 1 // |x| at the top of its binade
			}
			add(fromParts(r.Uint64()&1 == 0, ey+gap, frac), fromParts(r.Uint64()&1 == 0, ey, r.Uint64()))
			add(fromParts(false, ey+gap, r.Uint64()), fromParts(true, ey, 0)) // y a power of two
		}
	}
	for i := 0; i < 4000; i++ {
		y := r.Range(0.5, 1) * math.Ldexp(1, r.IntRange(-40, 40))
		k := math.Trunc(math.Ldexp(r.Range(1, 2), r.IntRange(0, 52)))
		x := k * y
		add(x, y)
		add(math.Nextafter(x, 0), y)
		add(math.Nextafter(x, math.Inf(1)), -y)
		add(-math.Nextafter(x, 0), y)
		add(math.Nextafter(y, 0), y) // |x| just below |y|
		add(math.Nextafter(y, math.Inf(1)), y)
	}
	for i := 0; i < 2000; i++ {
		sub := math.Float64frombits(r.Uint64() & (1<<52 - 1))
		norm := r.Range(-4, 4) * math.Ldexp(1, r.IntRange(-1022, 1023))
		add(sub, norm)
		add(-sub, norm)
		add(norm, sub)
	}
	for _, y := range []float64{protEps, -protEps, math.Nextafter(protEps, 0), math.Nextafter(protEps, 1),
		-math.Nextafter(protEps, 0), -math.Nextafter(protEps, 1)} {
		for _, x := range modSpecials {
			add(x, y)
		}
		add(0x1p40, y)
		add(-7*protEps+1e-30, y)
	}
	checkModLanes(t, xs, ys)
}

// FuzzMod pins fmod to math.Mod, and the lane kernel (over its fused
// multiply-add path and the fmod fallback) to the protected math.Mod,
// bit for bit on arbitrary operands.
func FuzzMod(f *testing.F) {
	for _, x := range modSpecials {
		for _, y := range []float64{0, math.Inf(-1), math.NaN(), 1.5, -0x1p-1030, math.SmallestNonzeroFloat64, protEps} {
			f.Add(x, y)
		}
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		if got, want := fmod(x, y), math.Mod(x, y); !sameMod(got, want) {
			t.Fatalf("fmod(%v, %v) = %v (%x), math.Mod = %v (%x)",
				x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		checkModLanes(t, []float64{x, y, -x}, []float64{y, x, y})
	})
}

// BenchmarkFmod times, per operand pair, fmod alone and the lane
// kernel over a block of lanes, on pairs like those a scoring sweep
// feeds them: magnitudes a few binades apart, both signs, and the odd
// subnormal remainder.
func BenchmarkFmod(b *testing.B) {
	r := rng.New(3)
	const n = 1024
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		ys[i] = r.Range(0.5, 1) * math.Ldexp(1, r.IntRange(-8, 8))
		xs[i] = r.Range(-1, 1) * math.Ldexp(ys[i], r.IntRange(0, 24))
	}
	ys[n-1], xs[n-1] = 0x1p-1060, 0x1p-1030+0x1p-1070
	b.Run("fmod", func(b *testing.B) {
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += fmod(xs[i%n], ys[i%n])
		}
		if math.IsNaN(sink) {
			b.Fatal("fmod returned NaN on finite operands")
		}
	})
	b.Run("lanes", func(b *testing.B) {
		d := make([]float64, n)
		for i := 0; i < b.N; i += n {
			modLanes(d, xs, ys)
		}
		if math.IsNaN(d[0]) {
			b.Fatal("modLanes returned NaN on finite operands")
		}
	})
}

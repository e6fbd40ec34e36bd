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

// FuzzMod pins fmod to math.Mod bit for bit on arbitrary operands.
func FuzzMod(f *testing.F) {
	for _, x := range modSpecials {
		for _, y := range []float64{0, math.Inf(-1), math.NaN(), 1.5, -0x1p-1030, math.SmallestNonzeroFloat64} {
			f.Add(x, y)
		}
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		if got, want := fmod(x, y), math.Mod(x, y); !sameMod(got, want) {
			t.Fatalf("fmod(%v, %v) = %v (%x), math.Mod = %v (%x)",
				x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

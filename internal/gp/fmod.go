package gp

import (
	"math"
	"math/bits"
)

// fmod returns the IEEE 754 floating-point remainder x - n·y, where
// n = trunc(x/y), with the sign of x — exactly the value and bits of
// math.Mod, including its special cases:
//
//	fmod(x, 0) = fmod(±Inf, y) = fmod(NaN, y) = fmod(x, NaN) = NaN
//	fmod(x, ±Inf) = x for finite x
//	fmod(x, y) = x when |x| < |y| (so ±0 keeps its sign)
//
// The remainder of two floats is always representable, so fmod is exact
// and its result is unique; any exact algorithm returns math.Mod's
// bits. math.Mod peels one exponent bit per loop iteration with
// Frexp/Ldexp. This one works on the integer significands instead:
// with |x| = mx·2^ex and |y| = my·2^ey (ex ≥ ey), the remainder is
// (mx·2^(ex-ey) mod my)·2^ey, and mx·2^(ex-ey) mod my is reduced
// modShift exponent steps per hardware divide.
func fmod(x, y float64) float64 {
	if y == 0 || math.IsInf(x, 0) || x != x || y != y {
		return math.NaN()
	}
	const signMask = 1 << 63
	ax, ay := math.Float64bits(x)&^signMask, math.Float64bits(y)&^signMask
	if ax < ay { // |x| < |y|, or y = ±Inf
		return x
	}
	mx, ex := unpack(ax)
	my, ey := unpack(ay)
	// mx, my < 2^53 and every partial remainder is below my, so
	// shifting one left by modShift ≤ 11 bits stays inside 64 bits.
	const modShift = 11
	r := mx % my
	for d := ex - ey; d > 0; {
		s := min(d, modShift)
		r = (r << s) % my
		d -= s
	}
	// The remainder r·2^ey is exact and representable, so its bits are
	// built directly: normalize r to a 53-bit significand, rebias the
	// exponent, and shift right into the subnormal range when the
	// biased exponent is not positive. No bit is lost either way.
	sign := math.Float64bits(x) & signMask
	if r == 0 {
		return math.Float64frombits(sign) // ±0 with the sign of x
	}
	const fracBits = 52
	shift := bits.LeadingZeros64(r) - (63 - fracBits)
	m, e := r<<shift, ey-shift+1075 // value m·2^(e-1075), m in [2^52, 2^53)
	if e > 0 {
		return math.Float64frombits(sign | uint64(e)<<fracBits | m&(1<<fracBits-1))
	}
	return math.Float64frombits(sign | m>>(1-e))
}

// unpack splits the bits of a finite, non-zero, non-negative float64
// into an integer significand with its leading bit at position 52 and
// the exponent e such that the value is m·2^e. Subnormals are
// normalized, so their exponent falls below the normal range.
func unpack(b uint64) (m uint64, e int) {
	const fracBits = 52
	m = b & (1<<fracBits - 1)
	if exp := int(b >> fracBits); exp != 0 {
		return m | 1<<fracBits, exp - 1075
	}
	shift := bits.LeadingZeros64(m) - (63 - fracBits)
	return m << shift, -1074 - shift
}

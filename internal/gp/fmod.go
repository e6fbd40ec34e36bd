package gp

import (
	"math"
	"math/bits"
)

// modLanes computes d = mod(a, b) lane by lane with the protected
// modulo's semantics: a lane whose divisor is smaller in magnitude than
// protEps gets 1, every other lane the exact remainder of fmod. d may
// alias a or b: each lane's operands are read before the lane is
// written. It is the one definition of the mod operator: the forest
// runner calls it once per node, Mod.F2 once per lane.
//
// Most lanes take a fused multiply-add instead of fmod's integer loop:
// finite x and normal y whose biased exponents satisfy ex − ey ≤ 51.
// Then the quotient |x|/|y| is below 2^52, so its true truncation Q
// and Q+1 are representable, and since division rounds monotonically
// t = trunc(|x|/|y|) is Q or Q+1. Both candidate results are
// representable: rem = |x| − Q·|y| lies in [0, |y|) and rem − |y| in
// [−|y|, 0), and each is a multiple of ulp(|y|) (when |x| < |y|, rem is
// |x| itself, and t = 1 only when |x|/|y| rounds up to 1, where
// |x| − |y| is exact by Sterbenz's lemma). So the one rounding of
// FMA(−t, |y|, |x|) is exact, and so is the correcting add of |y| when
// t = Q+1 left it negative. The remainder is non-negative and takes the
// sign of x, as in math.Mod. NaN, ±Inf, a zero or subnormal y and wider
// exponent gaps keep fmod. math.FMA is correctly rounded on every
// platform (in software where the hardware has no fused multiply-add),
// so the lane bits do not depend on the host. On an amd64 host without
// FMA, where that software routine is slower than fmod, modFMA is false
// and every lane takes fmod. The path sits in the loop itself because a
// helper holding it is too large for Go to inline. The forest runner's
// mod kernel (lanes_amd64.s) computes the same path four lanes at a
// time and hands each group it cannot finish to modLanes.
func modLanes(d, a, b []float64) {
	const signMask = 1 << 63
	d, b = d[:len(a)], b[:len(a)]
	fast := modFMA
	for l, av := range a {
		bv := b[l]
		if math.Abs(bv) < protEps {
			d[l] = 1
			continue
		}
		xb := math.Float64bits(av)
		ax, ay := xb&^signMask, math.Float64bits(bv)&^signMask
		ex, ey := ax>>52, ay>>52
		if fast && ex < 0x7ff && ey-1 < 0x7fe && ex <= ey+51 {
			fx, fy := math.Float64frombits(ax), math.Float64frombits(ay)
			r := math.FMA(-math.Trunc(fx/fy), fy, fx)
			if r < 0 {
				r += fy
			}
			d[l] = math.Float64frombits(math.Float64bits(r) | xb&signMask)
		} else {
			d[l] = fmod(av, bv)
		}
	}
}

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

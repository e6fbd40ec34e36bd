// Package rng provides a small, fast, deterministic and splittable
// pseudo-random number generator for reproducible parallel experiments.
//
// The generator is xoshiro256** seeded through splitmix64, the
// combination recommended by Blackman & Vigna. Every stochastic
// component in this repository (instance generation, GA/GP operators,
// CARBON/COBRA runs) draws from an *explicit* *rng.Rand so that a run is
// fully determined by its seed, independent of goroutine scheduling:
// parallel work is given independent child generators via Split, never a
// shared one.
package rng

import "math"

// Rand is a deterministic pseudo-random generator. It is NOT safe for
// concurrent use; use Split to derive independent generators for
// concurrent workers.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next splitmix64 output.
// It is used both to seed xoshiro state and to derive child seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Any seed (including 0) is
// valid: splitmix64 expansion guarantees a non-zero xoshiro state.
func New(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split returns a new generator whose stream is statistically
// independent of r's. The child is seeded by hashing fresh output of r
// through splitmix64, so repeated Splits yield distinct children.
func (r *Rand) Split() *Rand {
	x := r.Uint64()
	c := &Rand{}
	for i := range c.s {
		c.s[i] = splitmix64(&x)
	}
	return c
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits → uniform dyadic rationals in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// IntRange returns a uniform int in [lo, hi] inclusive. Panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// State returns the generator's internal state for checkpointing.
func (r *Rand) State() [4]uint64 { return r.s }

// Restore overwrites the generator's state with a previously captured
// State, resuming the exact stream. An all-zero state is rejected (it is
// the one invalid xoshiro state and can never be produced by State).
func (r *Rand) Restore(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errZeroState
	}
	r.s = s
	return nil
}

var errZeroState = errorString("rng: all-zero state is invalid")

// errorString is a tiny allocation-free error type.
type errorString string

func (e errorString) Error() string { return string(e) }

// SampleDistinct returns k distinct uniform indices from [0, n).
// Panics if k > n. Uses Floyd's algorithm: O(k) draws, no O(n) scratch.
func (r *Rand) SampleDistinct(k, n int) []int {
	if k > n {
		panic("rng: SampleDistinct with k > n")
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

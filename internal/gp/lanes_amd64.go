package gp

import "carbon/internal/cpufeat"

// hasLaneKernels reports whether this host runs the kernels in
// lanes_amd64.s: they use AVX2 integer compares and broadcasts, and the
// mod kernel a fused multiply-add.
var hasLaneKernels = cpufeat.AVX2 && cpufeat.FMA

// modFMA gates modLanes' fused multiply-add path. Without the
// instruction math.FMA runs in software, which is slower than fmod's
// integer loop, so every lane takes fmod (the bits are the same).
var modFMA = cpufeat.FMA

// kernelBinary runs op's kernel over the whole groups of four lanes of
// d = op(a, b), where d, a and b have one length, and returns how many
// lanes it did: len(a) &^ 3, or 0 when op has no kernel. A mod group
// with a lane the kernel cannot do exactly goes to modLanes.
func kernelBinary(op opcode, d, a, b []float64) int {
	n := len(a) &^ 3
	d, a, b = d[:n], a[:n], b[:n]
	switch op {
	case opAdd:
		addAVX(d, a, b)
	case opSub:
		subAVX(d, a, b)
	case opMul:
		mulAVX(d, a, b)
	case opDivP:
		divAVX(d, a, b)
	case opModP:
		for {
			k := modAVX(d, a, b)
			if k == len(a) {
				break
			}
			modLanes(d[k:k+4], a[k:k+4], b[k:k+4])
			d, a, b = d[k+4:], a[k+4:], b[k+4:]
		}
	default:
		return 0
	}
	return n
}

// kernelAccumulate adds the whole groups of four lanes of v into o, a
// NaN lane adding 0, and returns how many lanes it did.
func kernelAccumulate(o, v []float64) int {
	n := len(v) &^ 3
	accAVX(o[:n], v[:n])
	return n
}

// The kernels in lanes_amd64.s. Each reads len(a) (len(v)) lanes, a
// multiple of 4, and computes every lane with the single correctly
// rounded operations of the Go loop it replaces, so each lane gets that
// loop's bits, NaN payloads included.

//go:noescape
func addAVX(d, a, b []float64)

//go:noescape
func subAVX(d, a, b []float64)

//go:noescape
func mulAVX(d, a, b []float64)

//go:noescape
func divAVX(d, a, b []float64)

// modAVX stops before the first group holding a lane that is neither
// protected nor on modLanes' fused multiply-add path, leaving that
// group unwritten, and returns the lanes it did.
//
//go:noescape
func modAVX(d, a, b []float64) int

//go:noescape
func accAVX(o, v []float64)

//go:build !amd64

package gp

// hasLaneKernels is false off amd64: the Go loops compute every lane.
const hasLaneKernels = false

// modFMA keeps modLanes' fused multiply-add path on: math.FMA is one
// instruction on arm64, ppc64le, s390x and riscv64.
var modFMA = true

func kernelBinary(op opcode, d, a, b []float64) int { return 0 }

func kernelAccumulate(o, v []float64) int { return 0 }

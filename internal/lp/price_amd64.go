package lp

import "carbon/internal/cpufeat"

// avx2Kernel is priceAVX2 when the CPU has AVX2 and the OS saves the
// YMM registers across context switches, else nil.
var avx2Kernel = func() kernelFunc {
	if cpufeat.AVX2 {
		return priceAVX2
	}
	return nil
}()

// priceAVX2 is the kernelFunc in price_amd64.s: four groups (16 columns)
// per pass over y, then one group per pass. Per row it broadcasts y[i],
// multiplies (VMULPD) and subtracts (VSUBPD) with no fused multiply-add,
// so each lane rounds exactly as pricePortable does.
//
//go:noescape
func priceAVX2(d, cost, y, a []float64)

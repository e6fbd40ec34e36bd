package lp

// avx2Kernel is priceAVX2 when the CPU has AVX2 and the OS saves the
// YMM registers across context switches, else nil.
var avx2Kernel = func() kernelFunc {
	if hasAVX2() {
		return priceAVX2
	}
	return nil
}()

// hasAVX2 reports CPUID.7.0:EBX.AVX2 together with CPUID.1:ECX.OSXSAVE
// and AVX, and XCR0 enabling both the XMM and the YMM state.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(0); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv(index uint32) (eax, edx uint32)

// priceAVX2 is the kernelFunc in price_amd64.s: four groups (16 columns)
// per pass over y, then one group per pass. Per row it broadcasts y[i],
// multiplies (VMULPD) and subtracts (VSUBPD) with no fused multiply-add,
// so each lane rounds exactly as pricePortable does.
//
//go:noescape
func priceAVX2(d, cost, y, a []float64)

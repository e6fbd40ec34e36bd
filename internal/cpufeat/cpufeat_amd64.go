package cpufeat

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return
	}
	if xcr0, _ := xgetbv(0); xcr0&6 != 6 {
		return
	}
	FMA = ecx1&fma != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		AVX2 = ebx7&(1<<5) != 0
	}
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv(index uint32) (eax, edx uint32)

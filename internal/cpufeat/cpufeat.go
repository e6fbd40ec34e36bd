// Package cpufeat reports the CPU features the assembly kernels of
// internal/lp and internal/gp need, read once at start-up. Both
// packages keep a portable Go path that gives the same bits, so a
// feature reported false only costs speed.
//
// The probe reads CPUID and XGETBV itself and does not consult
// GODEBUG: GODEBUG=cpu.fma=off switches math.FMA to its software
// routine but leaves these flags as the hardware reports them.
package cpufeat

// AVX2 reports CPUID.7.0:EBX.AVX2 together with CPUID.1:ECX.OSXSAVE and
// AVX, and XCR0 enabling both the XMM and the YMM state: the CPU has
// AVX2 and the OS saves the YMM registers across context switches.
// Always false off amd64.
var AVX2 bool

// FMA reports CPUID.1:ECX.FMA with the same OS support for the YMM
// state as AVX2. Always false off amd64.
var FMA bool

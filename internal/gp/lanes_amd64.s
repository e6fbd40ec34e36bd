#include "textflag.h"

// Forest lane kernels (DESIGN.md §5j), four float64 lanes per YMM
// register. Every lane is computed by the same correctly rounded IEEE
// operations, on the same operands in the same order, as the Go loops
// in compile.go and fmod.go, so each lane gets their bits. The kernels
// use VEX-encoded instructions only: a legacy-SSE instruction among
// them costs a state transition on every pass. Constants are built with
// VMOVQ and VPBROADCASTQ, and every kernel ends with VZEROUPPER.
//
// d may be a or b itself: a group's operands are loaded before the
// group is stored.

#define ABSMASK $0x7fffffffffffffff
#define PROTEPS $0x3d719799812dea11 // protEps, 1e-12
#define ONE $0x3ff0000000000000

// BROADCAST sets every lane of Y to the 64-bit immediate c.
#define BROADCAST(c, X, Y) \
	MOVQ         c, R8; \
	VMOVQ        R8, X; \
	VPBROADCASTQ X, Y

// func addAVX(d, a, b []float64)
TEXT ·addAVX(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func subAVX(d, a, b []float64)
TEXT ·subAVX(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func mulAVX(d, a, b []float64)
TEXT ·mulAVX(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func divAVX(d, a, b []float64)
//
// The protected division: 1 where |b| < protEps, else a/b. The compare
// is ordered, so a NaN divisor takes a/b, as math.Abs(NaN) < protEps is
// false in Go.
TEXT ·divAVX(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	BROADCAST(ABSMASK, X8, Y8)
	BROADCAST(PROTEPS, X9, Y9)
	BROADCAST(ONE, X10, Y10)
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   (DX)(AX*8), Y1
	VANDPD    Y8, Y1, Y2
	VCMPPD    $0x11, Y9, Y2, Y2 // |b| < protEps (LT_OQ)
	VDIVPD    Y1, Y0, Y0
	VBLENDVPD Y2, Y10, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func modAVX(d, a, b []float64) int
//
// The protected modulo on modLanes' fused multiply-add path: for finite
// x and normal y with biased exponents ex ≤ ey+51, the remainder is
// FMA(−trunc(|x|/|y|), |y|, |x|), plus |y| when that is negative, with
// the sign of x ORed in; 1 where |y| < protEps. Each group is tested
// first, and the kernel returns before storing a group with any lane
// that is neither protected nor on the path.
TEXT ·modAVX(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	BROADCAST(ABSMASK, X8, Y8)
	BROADCAST(PROTEPS, X9, Y9)
	BROADCAST(ONE, X10, Y10)
	BROADCAST($0x7ff, X11, Y11)
	BROADCAST($52, X12, Y12)
	VPXOR Y7, Y7, Y7
	XORQ  AX, AX
	JMP   test

loop:
	VMOVUPD  (SI)(AX*8), Y0
	VMOVUPD  (DX)(AX*8), Y1
	VANDPD   Y8, Y0, Y2        // |x|
	VANDPD   Y8, Y1, Y3        // |y|
	VCMPPD   $0x11, Y9, Y3, Y4 // protected: |y| < protEps (LT_OQ)
	VPSRLQ   $52, Y2, Y5       // ex
	VPSRLQ   $52, Y3, Y6       // ey
	VPCMPGTQ Y5, Y11, Y13      // ex < 0x7ff: x finite
	VPCMPGTQ Y6, Y11, Y14      // ey < 0x7ff
	VPAND    Y14, Y13, Y13
	VPCMPGTQ Y7, Y6, Y14       // ey > 0: with the above, y normal
	VPAND    Y14, Y13, Y13
	VPADDQ   Y12, Y6, Y6
	VPCMPGTQ Y5, Y6, Y14       // ey+52 > ex: ex ≤ ey+51
	VPAND    Y14, Y13, Y13
	VPOR     Y4, Y13, Y13
	VMOVMSKPD Y13, BX
	CMPQ     BX, $15
	JNE      done

	VDIVPD       Y3, Y2, Y5
	VROUNDPD     $3, Y5, Y5    // trunc
	VFNMADD231PD Y3, Y5, Y2    // r = |x| − t·|y|, rounded once
	VCMPPD       $0x11, Y7, Y2, Y6
	VANDPD       Y3, Y6, Y6
	VADDPD       Y6, Y2, Y2    // r + |y| where r < 0, r + 0 elsewhere
	VANDNPD      Y0, Y8, Y6    // sign of x
	VORPD        Y6, Y2, Y2
	VBLENDVPD    Y4, Y10, Y2, Y2
	VMOVUPD      Y2, (DI)(AX*8)
	ADDQ         $4, AX

test:
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET

// func accAVX(o, v []float64)
//
// The root accumulate: o += v, with a NaN lane of v adding +0.
TEXT ·accAVX(SB), NOSPLIT, $0-48
	MOVQ o_base+0(FP), DI
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), CX
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $3, Y0, Y0, Y1 // NaN lanes (UNORD_Q)
	VANDNPD Y0, Y1, Y0
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

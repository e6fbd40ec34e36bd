#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv(index uint32) (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-16
	MOVL index+0(FP), CX
	XGETBV
	MOVL AX, eax+8(FP)
	MOVL DX, edx+12(FP)
	RET

// func priceAVX2(d, cost, y, a []float64)
//
// len(d) is a multiple of 4 and a holds len(d)/4 groups of len(y) rows
// of four values. Lane k of accumulator Yg prices column 4g+k: it starts
// at cost and subtracts y[i]*a row by row, i ascending, the product
// rounded by VMULPD before VSUBPD.
TEXT ·priceAVX2(SB), NOSPLIT, $0-96
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ cost_base+24(FP), SI
	MOVQ y_base+48(FP), BX
	MOVQ y_len+56(FP), DX
	MOVQ a_base+72(FP), R8
	MOVQ DX, R9
	SHLQ $5, R9 // bytes per group: m rows of 4 float64
	CMPQ CX, $16
	JLT  one

four:
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	MOVQ    R8, R10
	LEAQ    (R10)(R9*1), R11
	LEAQ    (R11)(R9*1), R12
	LEAQ    (R12)(R9*1), R13
	XORQ    AX, AX
	TESTQ   DX, DX
	JEQ     fourdone

fourrow:
	VBROADCASTSD (BX)(AX*8), Y4
	VMULPD       (R10), Y4, Y5
	VMULPD       (R11), Y4, Y6
	VMULPD       (R12), Y4, Y7
	VMULPD       (R13), Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         $32, R10
	ADDQ         $32, R11
	ADDQ         $32, R12
	ADDQ         $32, R13
	INCQ         AX
	CMPQ         AX, DX
	JLT          fourrow

fourdone:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	LEAQ    (R8)(R9*4), R8
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     four

one:
	CMPQ CX, $4
	JLT  done
	VMOVUPD (SI), Y0
	MOVQ    R8, R10
	XORQ    AX, AX
	TESTQ   DX, DX
	JEQ     onedone

onerow:
	VBROADCASTSD (BX)(AX*8), Y4
	VMULPD       (R10), Y4, Y5
	VSUBPD       Y5, Y0, Y0
	ADDQ         $32, R10
	INCQ         AX
	CMPQ         AX, DX
	JLT          onerow

onedone:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    R9, R8
	SUBQ    $4, CX
	JMP     one

done:
	VZEROUPPER
	RET

//go:build !purego

#include "textflag.h"

// func xorSSE2(dst, src *byte, n int)
// n > 0 and a multiple of 64. Unaligned loads throughout (MOVOU):
// callers hand us arbitrary slice interiors.
TEXT ·xorSSE2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

sse2loop:
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU (DI), X4
	MOVOU 16(DI), X5
	MOVOU 32(DI), X6
	MOVOU 48(DI), X7
	PXOR  X4, X0
	PXOR  X5, X1
	PXOR  X6, X2
	PXOR  X7, X3
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ  $64, SI
	ADDQ  $64, DI
	SUBQ  $64, CX
	JNE   sse2loop
	RET

// func xorAVX2(dst, src *byte, n int)
// n > 0 and a multiple of 128. VZEROUPPER before returning keeps the
// SSE code that follows out of the AVX transition penalty.
TEXT ·xorAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

avx2loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VPXOR   64(DI), Y2, Y2
	VPXOR   96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $128, CX
	JNE     avx2loop
	VZEROUPPER
	RET

// func galMulAVX2(lo, hi *[16]byte, dst, src *byte, n int, xor bool)
// n > 0 and a multiple of 32. dst[i] (^)= lo[src[i]&15] ^ hi[src[i]>>4]:
// each 16-entry table is broadcast to both lanes and VPSHUFB looks up
// 32 nibbles at once.
TEXT ·galMulAVX2(SB), NOSPLIT, $0-41
	MOVQ lo+0(FP), AX
	MOVQ hi+8(FP), BX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ n+32(FP), CX
	MOVB xor+40(FP), DX

	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 (BX), Y1
	MOVQ           $0x0f0f0f0f0f0f0f0f, AX
	MOVQ           AX, X2
	VPBROADCASTQ   X2, Y2
	TESTB          DX, DX
	JEQ            gfset

gfxor:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNE     gfxor
	VZEROUPPER
	RET

gfset:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNE     gfset
	VZEROUPPER
	RET

// func x86HasAVX2() bool
// CPUID.1:ECX.OSXSAVE, then XGETBV XCR0[2:1] (OS saves XMM+YMM), then
// CPUID.(7,0):EBX.AVX2.
TEXT ·x86HasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  noavx2
	MOVB $1, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET

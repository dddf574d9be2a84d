//go:build !race

#include "textflag.h"

// The vector body of matrix.Axpy: c[j] += v*b[j] with Y0 = v in all four
// lanes. Multiply, round, add — no fused instruction may ever appear here,
// or results stop matching the scalar Go loop (scripts/check.sh greps).
// Operand order mirrors that loop as compiled (b*v, then product+c): when
// two NaNs meet, x86 keeps the first source, so the same payload survives.

// BLOCK16 does 16 elements at SI (b) and DI (c) and advances both.
#define BLOCK16 \
	VMOVUPD (SI), Y1      \
	VMOVUPD 32(SI), Y2    \
	VMOVUPD 64(SI), Y3    \
	VMOVUPD 96(SI), Y4    \
	VMULPD  Y0, Y1, Y1    \
	VMULPD  Y0, Y2, Y2    \
	VMULPD  Y0, Y3, Y3    \
	VMULPD  Y0, Y4, Y4    \
	VADDPD  (DI), Y1, Y1  \
	VADDPD  32(DI), Y2, Y2 \
	VADDPD  64(DI), Y3, Y3 \
	VADDPD  96(DI), Y4, Y4 \
	VMOVUPD Y1, (DI)      \
	VMOVUPD Y2, 32(DI)    \
	VMOVUPD Y3, 64(DI)    \
	VMOVUPD Y4, 96(DI)    \
	ADDQ    $128, SI      \
	ADDQ    $128, DI

// func axpyAVX2(c, b []float64, v float64)
// Any len(c); len(b) >= len(c).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	MOVQ         b_base+24(FP), SI
	VBROADCASTSD v+48(FP), Y0
	SUBQ         $16, CX
	JB           rem
	PCALIGN      $32

loop16:
	BLOCK16
	SUBQ $16, CX
	JAE  loop16

rem:
	ADDQ $12, CX // CX = remaining - 4
	JNC  tail    // remaining < 4

loop4:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JAE     loop4

tail:
	ADDQ $4, CX // CX = remaining, 0..3
	JZ   done

loop1:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func axpyWholeAVX2(c, b []float64, v float64)
// len(c) a positive multiple of 8: no 4-wide loop, no scalar tail.
TEXT ·axpyWholeAVX2(SB), NOSPLIT, $0-56
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	MOVQ         b_base+24(FP), SI
	VBROADCASTSD v+48(FP), Y0
	SUBQ         $16, CX
	JB           last8
	PCALIGN      $32

whole16:
	BLOCK16
	SUBQ $16, CX
	JAE  whole16

last8:
	CMPQ    CX, $-8
	JNE     wholeDone
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)

wholeDone:
	VZEROUPPER
	RET

// func hasAVX2() bool
// AVX2 (CPUID.7:EBX[5]) on a CPU whose OS saves XMM and YMM state
// (CPUID.1:ECX OSXSAVE and AVX, then XCR0[2:1] == 11b).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JB     no
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	BTL    $5, BX
	JCC    no
	MOVB   $1, ret+0(FP)

no:
	RET

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

// PAIR loads pair BX of the row entry: AX = byte offset of B row cols[BX]
// from SI, bounds-checked unsigned against R9 = B.Rows (a negative index
// sign-extends to a huge one), and vals[BX] into every lane of Y8.
#define PAIR \
	MOVLQSX      (R10)(BX*4), AX \
	CMPQ         AX, R9          \
	JAE          rowBad          \
	IMULQ        R8, AX          \
	VBROADCASTSD (R11)(BX*8), Y8

// ACC16 adds vals[BX] * B[col][off : off+16] into four accumulators, in
// BLOCK16's operand order: b*v, then product + c.
#define ACC16(off, a0, a1, a2, a3) \
	VMOVUPD off+0(SI)(AX*1), Y9   \
	VMOVUPD off+32(SI)(AX*1), Y10 \
	VMOVUPD off+64(SI)(AX*1), Y11 \
	VMOVUPD off+96(SI)(AX*1), Y12 \
	VMULPD  Y8, Y9, Y9            \
	VMULPD  Y8, Y10, Y10          \
	VMULPD  Y8, Y11, Y11          \
	VMULPD  Y8, Y12, Y12          \
	VADDPD  a0, Y9, a0            \
	VADDPD  a1, Y10, a1           \
	VADDPD  a2, Y11, a2           \
	VADDPD  a3, Y12, a3

// func axpyRowAVX2(c, b []float64, stride, rows int, cols []int32, vals []float64) int
// The row entry: c[t] += sum over p of vals[p] * b[cols[p]*stride + t], p
// ascending per element, with a tile of c held in registers across the
// pairs — 32 columns in Y0-Y7, then 16, 4 and 1 for what is left — loaded
// once and stored once. Needs len(cols) > 0, len(vals) >= len(cols) and
// (rows-1)*stride + len(c) <= len(b); returns -1, or the index of the first
// pair whose column is outside [0, rows) with that tile of c unwritten.
TEXT ·axpyRowAVX2(SB), NOSPLIT, $0-120
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ stride+48(FP), R8
	SHLQ $3, R8
	MOVQ rows+56(FP), R9
	MOVQ cols_base+64(FP), R10
	MOVQ cols_len+72(FP), R12
	MOVQ vals_base+88(FP), R11
	SUBQ $32, CX
	JB   rowRem16

rowTile32:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ    BX, BX
	PCALIGN $32

rowPair32:
	PAIR
	ACC16(0, Y0, Y1, Y2, Y3)
	ACC16(128, Y4, Y5, Y6, Y7)
	INCQ BX
	CMPQ BX, R12
	JB   rowPair32
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, CX
	JAE     rowTile32

rowRem16:
	ADDQ    $16, CX // CX = remaining - 16
	JNC     rowRem4 // remaining < 16
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    BX, BX
	PCALIGN $32

rowPair16:
	PAIR
	ACC16(0, Y0, Y1, Y2, Y3)
	INCQ BX
	CMPQ BX, R12
	JB   rowPair16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX

rowRem4:
	ADDQ $12, CX // CX = remaining - 4
	JNC  rowTail // remaining < 4

rowTile4:
	VMOVUPD (DI), Y0
	XORQ    BX, BX

rowPair4:
	PAIR
	VMOVUPD (SI)(AX*1), Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  Y0, Y9, Y0
	INCQ    BX
	CMPQ    BX, R12
	JB      rowPair4
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JAE     rowTile4

rowTail:
	ADDQ $4, CX // CX = remaining, 0..3
	JZ   rowDone

rowTile1:
	VMOVSD (DI), X0
	XORQ   BX, BX

rowPair1:
	PAIR
	VMOVSD (SI)(AX*1), X9
	VMULSD X8, X9, X9
	VADDSD X0, X9, X0
	INCQ   BX
	CMPQ   BX, R12
	JB     rowPair1
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JNZ    rowTile1

rowDone:
	MOVQ $-1, BX

rowBad:
	MOVQ BX, ret+112(FP)
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

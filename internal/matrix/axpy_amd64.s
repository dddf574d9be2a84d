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

// The row entry's macros. Each precedes the first TEXT, so that go vet's
// asmdecl, which reads the file line by line, does not take them for lines
// of a function.

// ACC16 adds the pair's value (in Y8) * B[col][off : off+16] into four
// accumulators, in BLOCK16's operand order: b*v, then product + c. AX is the
// byte offset of B row col from SI.
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

// ACC32 is ACC16 on ZMM registers: the value (in Z16) * B[col][off :
// off+32] into four accumulators, through four scratch registers. b is
// loaded first so that it is the first source of VMULPD, as in BLOCK16; no
// rounding override, no fused instruction.
#define ACC32(off, a0, a1, a2, a3, t0, t1, t2, t3) \
	VMOVUPD off+0(SI)(AX*1), t0   \
	VMOVUPD off+64(SI)(AX*1), t1  \
	VMOVUPD off+128(SI)(AX*1), t2 \
	VMOVUPD off+192(SI)(AX*1), t3 \
	VMULPD  Z16, t0, t0           \
	VMULPD  Z16, t1, t1           \
	VMULPD  Z16, t2, t2           \
	VMULPD  Z16, t3, t3           \
	VADDPD  a0, t0, a0            \
	VADDPD  a1, t1, a1            \
	VADDPD  a2, t2, a2            \
	VADDPD  a3, t3, a3

// The pair fetches. Each is four macros that ROWTILES calls in every tile:
// FIRST points the cursor at the first pair; SLOT enters the cursor's slot
// (block lanes only); PAIR(v, skip) sets AX to the byte offset from SI of
// the pair's B row, bounds-checked unsigned against R9 = B.Rows (a negative
// column sign-extends to a huge one, and jumps to rowBad), and broadcasts
// the pair's value into every lane of v; NEXT(pair, slot) advances the
// cursor and jumps back while pairs remain.

// Contiguous pairs: cols and vals at R10 and R11, R12 of them, BX the index.
#define RUN_FIRST \
	XORQ BX, BX

#define RUN_SLOT

#define RUN_PAIR(v, skip) \
	MOVLQSX      (R10)(BX*4), AX \
	CMPQ         AX, R9          \
	JAE          rowBad          \
	IMULQ        R8, AX          \
	VBROADCASTSD (R11)(BX*8), v

#define RUN_NEXT(pair, slot) \
	INCQ BX       \
	CMPQ BX, R12  \
	JB   pair

// Strided pairs: the contiguous fetch stepping R13 pairs at a time, R12 the
// index past the last one.
#define STRIDED_NEXT(pair, slot) \
	ADDQ R13, BX  \
	CMPQ BX, R12  \
	JB   pair

// A block lane: BX is the slot, below R12; R10 the slots' block columns and
// R11 = bc; R13 the address just past the slot's values, R14 the bytes from
// one slot's values to the next's, and DX = t - bc for value t, counting up
// to 0, so value t is at (R13)(DX*8) in column R15 + DX. A ±0 value is fill:
// one test of its bits shifted left by one, so a NaN is never skipped.
#define LANE_FIRST \
	MOVQ vals_base+88(FP), R13 \
	LEAQ (R13)(R11*8), R13     \
	XORQ BX, BX

#define LANE_SLOT \
	MOVLQSX (R10)(BX*4), R15 \
	IMULQ   R11, R15         \
	ADDQ    R11, R15         \
	MOVQ    R11, DX          \
	NEGQ    DX

#define LANE_PAIR(v, skip) \
	MOVQ         (R13)(DX*8), AX \
	SHLQ         $1, AX          \
	JZ           skip            \
	LEAQ         (R15)(DX*1), AX \
	CMPQ         AX, R9          \
	JAE          rowBad          \
	IMULQ        R8, AX          \
	VBROADCASTSD (R13)(DX*8), v

#define LANE_NEXT(pair, slot) \
	INCQ DX       \
	JNZ  pair     \
	ADDQ R14, R13 \
	INCQ BX       \
	CMPQ BX, R12  \
	JB   slot

// ROWTILES is the row entry's tile ladder, once for every fetch: c[t] =
// the sum over the fetch's pairs of value * b[col*stride + t], pairs in
// fetch order per element, with a tile of c held in registers across the
// pairs. c is never read: each tile's accumulators start at +0 (a register
// XORed with itself), each product is added to them as to a cleared c, and
// the tile is stored once. On entry DI = c, CX = len(c) > 0,
// SI = b at column j0 of row 0, R8 = the stride in bytes, R9 = B.Rows and
// AX = 1 for the AVX-512 tiles. With them the head tiles are 128 columns in
// Z0-Z15 — one sweep of each pair's B row at k = 128 — then 32 in Z0-Z3;
// without them 32 columns in Y0-Y7. Either way what is left runs the YMM
// tiles of 16 and 4 and the scalar one. It ends at rowDone; a bad column
// leaves its tile of c unwritten.
#define ROWTILES(FIRST, SLOT, PAIR, NEXT) \
	SUBQ  $32, CX                                  \
	JB    rowRem16                                 \
	TESTB AX, AX                                   \
	JEQ   rowTile32                                \
	SUBQ  $96, CX                                  \
	JB    rowZRem32                                \
rowZTile128:                                     \
	VPXORQ  Z0, Z0, Z0                             \
	VPXORQ  Z1, Z1, Z1                             \
	VPXORQ  Z2, Z2, Z2                             \
	VPXORQ  Z3, Z3, Z3                             \
	VPXORQ  Z4, Z4, Z4                             \
	VPXORQ  Z5, Z5, Z5                             \
	VPXORQ  Z6, Z6, Z6                             \
	VPXORQ  Z7, Z7, Z7                             \
	VPXORQ  Z8, Z8, Z8                             \
	VPXORQ  Z9, Z9, Z9                             \
	VPXORQ  Z10, Z10, Z10                          \
	VPXORQ  Z11, Z11, Z11                          \
	VPXORQ  Z12, Z12, Z12                          \
	VPXORQ  Z13, Z13, Z13                          \
	VPXORQ  Z14, Z14, Z14                          \
	VPXORQ  Z15, Z15, Z15                          \
	FIRST                                          \
rowZSlot128:                                     \
	SLOT                                           \
	PCALIGN $32                                    \
rowZPair128:                                     \
	PAIR(Z16, rowZNext128)                         \
	ACC32(0, Z0, Z1, Z2, Z3, Z17, Z18, Z19, Z20)    \
	ACC32(256, Z4, Z5, Z6, Z7, Z21, Z22, Z23, Z24)  \
	ACC32(512, Z8, Z9, Z10, Z11, Z17, Z18, Z19, Z20) \
	ACC32(768, Z12, Z13, Z14, Z15, Z21, Z22, Z23, Z24) \
rowZNext128:                                     \
	NEXT(rowZPair128, rowZSlot128)                 \
	VMOVUPD Z0, (DI)                               \
	VMOVUPD Z1, 64(DI)                             \
	VMOVUPD Z2, 128(DI)                            \
	VMOVUPD Z3, 192(DI)                            \
	VMOVUPD Z4, 256(DI)                            \
	VMOVUPD Z5, 320(DI)                            \
	VMOVUPD Z6, 384(DI)                            \
	VMOVUPD Z7, 448(DI)                            \
	VMOVUPD Z8, 512(DI)                            \
	VMOVUPD Z9, 576(DI)                            \
	VMOVUPD Z10, 640(DI)                           \
	VMOVUPD Z11, 704(DI)                           \
	VMOVUPD Z12, 768(DI)                           \
	VMOVUPD Z13, 832(DI)                           \
	VMOVUPD Z14, 896(DI)                           \
	VMOVUPD Z15, 960(DI)                           \
	ADDQ    $1024, DI                              \
	ADDQ    $1024, SI                              \
	SUBQ    $128, CX                               \
	JAE     rowZTile128                            \
rowZRem32:                                       \
	ADDQ $96, CX                                   \
	JNC  rowRem16                                  \
rowZTile32:                                      \
	VPXORQ  Z0, Z0, Z0                             \
	VPXORQ  Z1, Z1, Z1                             \
	VPXORQ  Z2, Z2, Z2                             \
	VPXORQ  Z3, Z3, Z3                             \
	FIRST                                          \
rowZSlot32:                                      \
	SLOT                                           \
	PCALIGN $32                                    \
rowZPair32:                                      \
	PAIR(Z16, rowZNext32)                          \
	ACC32(0, Z0, Z1, Z2, Z3, Z17, Z18, Z19, Z20)    \
rowZNext32:                                      \
	NEXT(rowZPair32, rowZSlot32)                   \
	VMOVUPD Z0, (DI)                               \
	VMOVUPD Z1, 64(DI)                             \
	VMOVUPD Z2, 128(DI)                            \
	VMOVUPD Z3, 192(DI)                            \
	ADDQ    $256, DI                               \
	ADDQ    $256, SI                               \
	SUBQ    $32, CX                                \
	JAE     rowZTile32                             \
	JMP     rowRem16                               \
rowTile32:                                       \
	VXORPD  Y0, Y0, Y0                             \
	VXORPD  Y1, Y1, Y1                             \
	VXORPD  Y2, Y2, Y2                             \
	VXORPD  Y3, Y3, Y3                             \
	VXORPD  Y4, Y4, Y4                             \
	VXORPD  Y5, Y5, Y5                             \
	VXORPD  Y6, Y6, Y6                             \
	VXORPD  Y7, Y7, Y7                             \
	FIRST                                          \
rowSlot32:                                       \
	SLOT                                           \
	PCALIGN $32                                    \
rowPair32:                                       \
	PAIR(Y8, rowNext32)                            \
	ACC16(0, Y0, Y1, Y2, Y3)                       \
	ACC16(128, Y4, Y5, Y6, Y7)                     \
rowNext32:                                       \
	NEXT(rowPair32, rowSlot32)                     \
	VMOVUPD Y0, (DI)                               \
	VMOVUPD Y1, 32(DI)                             \
	VMOVUPD Y2, 64(DI)                             \
	VMOVUPD Y3, 96(DI)                             \
	VMOVUPD Y4, 128(DI)                            \
	VMOVUPD Y5, 160(DI)                            \
	VMOVUPD Y6, 192(DI)                            \
	VMOVUPD Y7, 224(DI)                            \
	ADDQ    $256, DI                               \
	ADDQ    $256, SI                               \
	SUBQ    $32, CX                                \
	JAE     rowTile32                              \
rowRem16:                                        \
	ADDQ    $16, CX                                \
	JNC     rowRem4                                \
	VXORPD  Y0, Y0, Y0                             \
	VXORPD  Y1, Y1, Y1                             \
	VXORPD  Y2, Y2, Y2                             \
	VXORPD  Y3, Y3, Y3                             \
	FIRST                                          \
rowSlot16:                                       \
	SLOT                                           \
	PCALIGN $32                                    \
rowPair16:                                       \
	PAIR(Y8, rowNext16)                            \
	ACC16(0, Y0, Y1, Y2, Y3)                       \
rowNext16:                                       \
	NEXT(rowPair16, rowSlot16)                     \
	VMOVUPD Y0, (DI)                               \
	VMOVUPD Y1, 32(DI)                             \
	VMOVUPD Y2, 64(DI)                             \
	VMOVUPD Y3, 96(DI)                             \
	ADDQ    $128, DI                               \
	ADDQ    $128, SI                               \
	SUBQ    $16, CX                                \
rowRem4:                                         \
	ADDQ $12, CX                                   \
	JNC  rowTail                                   \
rowTile4:                                        \
	VXORPD  Y0, Y0, Y0                             \
	FIRST                                          \
rowSlot4:                                        \
	SLOT                                           \
rowPair4:                                        \
	PAIR(Y8, rowNext4)                             \
	VMOVUPD (SI)(AX*1), Y9                         \
	VMULPD  Y8, Y9, Y9                             \
	VADDPD  Y0, Y9, Y0                             \
rowNext4:                                        \
	NEXT(rowPair4, rowSlot4)                       \
	VMOVUPD Y0, (DI)                               \
	ADDQ    $32, DI                                \
	ADDQ    $32, SI                                \
	SUBQ    $4, CX                                 \
	JAE     rowTile4                               \
rowTail:                                         \
	ADDQ $4, CX                                    \
	JZ   rowDone                                   \
rowTile1:                                        \
	VXORPD X0, X0, X0                              \
	FIRST                                          \
rowSlot1:                                        \
	SLOT                                           \
rowPair1:                                        \
	PAIR(Y8, rowNext1)                             \
	VMOVSD (SI)(AX*1), X9                          \
	VMULSD X8, X9, X9                              \
	VADDSD X0, X9, X0                              \
rowNext1:                                        \
	NEXT(rowPair1, rowSlot1)                       \
	VMOVSD X0, (DI)                                \
	ADDQ   $8, DI                                  \
	ADDQ   $8, SI                                  \
	DECQ   CX                                      \
	JNZ    rowTile1                                \
rowDone:

// ROWARGS loads what ROWTILES and every fetch share from the arguments the
// three entries declare alike: c, b, stride, rows and the base of cols.
#define ROWARGS \
	MOVQ c_base+0(FP), DI      \
	MOVQ c_len+8(FP), CX       \
	MOVQ b_base+24(FP), SI     \
	MOVQ stride+48(FP), R8     \
	SHLQ $3, R8                \
	MOVQ rows+56(FP), R9       \
	MOVQ cols_base+64(FP), R10

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


// func axpyRowVec(c, b []float64, stride, rows int, cols []int32, vals []float64, zmm bool) int
// The row entry over a contiguous run: c[t] = sum over p of vals[p] *
// b[cols[p]*stride + t], p ascending per element. Needs len(cols) > 0,
// len(vals) >= len(cols) and (rows-1)*stride + len(c) <= len(b); returns -1,
// or the index of the first pair whose column is outside [0, rows) with that
// tile of c unwritten.
TEXT ·axpyRowVec(SB), NOSPLIT, $0-128
	ROWARGS
	MOVQ    cols_len+72(FP), R12
	MOVQ    vals_base+88(FP), R11
	MOVBLZX zmm+112(FP), AX
	ROWTILES(RUN_FIRST, RUN_SLOT, RUN_PAIR, RUN_NEXT)
	MOVQ    $-1, BX

rowBad:
	MOVQ BX, ret+120(FP)
	VZEROUPPER
	RET

// func axpyRowStridedVec(c, b []float64, stride, rows int, cols []int32, vals []float64, step int, zmm bool) int
// axpyRowVec over the pairs at cols[p*step] and vals[p*step], p*step <
// len(cols); returns the bad pair's index into cols.
TEXT ·axpyRowStridedVec(SB), NOSPLIT, $0-136
	ROWARGS
	MOVQ    cols_len+72(FP), R12
	MOVQ    vals_base+88(FP), R11
	MOVQ    step+112(FP), R13
	MOVBLZX zmm+120(FP), AX
	ROWTILES(RUN_FIRST, RUN_SLOT, RUN_PAIR, STRIDED_NEXT)
	MOVQ    $-1, BX

rowBad:
	MOVQ BX, ret+128(FP)
	VZEROUPPER
	RET

// func axpyRowBlockVec(c, b []float64, stride, rows int, cols []int32, vals []float64, bc, vstep int, zmm bool) int
// axpyRowVec over a block lane: slot s of the len(cols) slots holds the bc
// values vals[s*vstep : s*vstep+bc], in columns cols[s]*bc + t, and a ±0
// value is skipped. Needs bc >= 1 and len(vals) >= (len(cols)-1)*vstep + bc;
// returns s*bc + t for the first nonzero value whose column is outside
// [0, rows).
TEXT ·axpyRowBlockVec(SB), NOSPLIT, $0-144
	ROWARGS
	MOVQ    cols_len+72(FP), R12
	MOVQ    bc+112(FP), R11
	MOVQ    vstep+120(FP), R14
	SHLQ    $3, R14
	MOVBLZX zmm+128(FP), AX
	ROWTILES(LANE_FIRST, LANE_SLOT, LANE_PAIR, LANE_NEXT)
	MOVQ    $-1, BX
	JMP     laneRet

rowBad:
	IMULQ R11, BX
	ADDQ  R11, BX
	ADDQ  DX, BX // s*bc + t, as DX = t - bc

laneRet:
	MOVQ BX, ret+136(FP)
	VZEROUPPER
	RET

// func cpuLevel() level
// The one probe: avx2 when the CPU has AVX2 (CPUID.7:EBX[5]) and the OS
// saves XMM and YMM state (CPUID.1:ECX OSXSAVE and AVX, then XCR0[2:1] ==
// 11b); avx512 when it also has AVX-512F (CPUID.7:EBX[16]) and the OS saves
// the opmask and all 512 bits of all 32 ZMM registers (XCR0[7:5] == 111b);
// else scalar.
TEXT ·cpuLevel(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JB     done
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    done
	XORL   CX, CX
	XGETBV
	MOVL   AX, SI // XCR0's low half; CPUID below overwrites AX to DX
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	BTL    $5, BX
	JCC    done
	MOVB   $1, ret+0(FP)
	BTL    $16, BX
	JCC    done
	ANDL   $0xe6, SI
	CMPL   SI, $0xe6
	JNE    done
	MOVB   $2, ret+0(FP)

done:
	RET

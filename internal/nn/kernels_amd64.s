//go:build amd64

#include "textflag.h"

// Microkernels for the Linear layer, the Tanh layer and Adam. The SSE2 ones
// (amd64 baseline — no feature detection needed) come first: the
// backward's two-wide axpy and the gradient reduction, then linearRow1Asm,
// the one forward sum order of the package. The AVX ones after them are
// four-wide re-expressions of the same per-element arithmetic, selected by
// cpuHasAVX at init: for the backward axpyRowsAVX and axpyRows4AVX, which
// shares each row's loads among four destinations; for the forward
// linearColsAVX, running linearRow1Asm's sums over a column-major batch,
// and linearRow1AVX, the same sums of one row with the outputs in the
// lanes, for training and serving alike; and at the end of the file the
// element-wise kernels, each the Go loop it replaces (fastTanh, tanhBackGo,
// adamGo) in four lanes. linearRow1Asm and every AVX kernel carry a
// PCALIGN $64, at the entry or at the loop heads, which also starts the
// function on a 64-byte boundary, and every AVX loop head has one, so the
// code linked before them does not move where their loops fall.

// func axpy4Asm(dst, a0, a1, a2, a3 *float64, g0, g1, g2, g3 float64, m int)
//
// For i in [0,m): dst[i] += g0*a0[i] + g1*a1[i] + g2*a2[i] + g3*a3[i].
TEXT ·axpy4Asm(SB), NOSPLIT, $0-80
	MOVQ  dst+0(FP), DI
	MOVQ  a0+8(FP), SI
	MOVQ  a1+16(FP), BX
	MOVQ  a2+24(FP), CX
	MOVQ  a3+32(FP), R13
	MOVSD g0+40(FP), X8
	MOVSD g1+48(FP), X9
	MOVSD g2+56(FP), X10
	MOVSD g3+64(FP), X11
	MOVQ  m+72(FP), R8

	// Broadcast the four scalars to both lanes.
	UNPCKLPD X8, X8
	UNPCKLPD X9, X9
	UNPCKLPD X10, X10
	UNPCKLPD X11, X11
	XORQ     R15, R15        // i = 0

apair:
	MOVQ R8, AX
	SUBQ R15, AX
	CMPQ AX, $2
	JL   atail
	MOVUPS (DI)(R15*8), X0
	MOVUPS (SI)(R15*8), X1
	MULPD  X8, X1
	ADDPD  X1, X0
	MOVUPS (BX)(R15*8), X2
	MULPD  X9, X2
	ADDPD  X2, X0
	MOVUPS (CX)(R15*8), X3
	MULPD  X10, X3
	ADDPD  X3, X0
	MOVUPS (R13)(R15*8), X4
	MULPD  X11, X4
	ADDPD  X4, X0
	MOVUPS X0, (DI)(R15*8)
	ADDQ   $2, R15
	JMP    apair

atail:
	CMPQ R15, R8
	JGE  adone
	MOVSD (DI)(R15*8), X0
	MOVSD (SI)(R15*8), X1
	MULSD X8, X1
	ADDSD X1, X0
	MOVSD (BX)(R15*8), X2
	MULSD X9, X2
	ADDSD X2, X0
	MOVSD (CX)(R15*8), X3
	MULSD X10, X3
	ADDSD X3, X0
	MOVSD (R13)(R15*8), X4
	MULSD X11, X4
	ADDSD X4, X0
	MOVSD X0, (DI)(R15*8)
	INCQ  R15
	JMP   atail

adone:
	RET

// func addToAsm(dst, src *float64, n int)
//
// For i in [0,n): dst[i] += src[i]. Eight doubles per main-loop pass (four
// independent packed add chains), then a packed pair and a scalar tail.
TEXT ·addToAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R8
	XORQ R15, R15            // i = 0

r8:
	MOVQ R8, AX
	SUBQ R15, AX
	CMPQ AX, $8
	JL   r2
	MOVUPS (DI)(R15*8), X0
	MOVUPS (SI)(R15*8), X4
	ADDPD  X4, X0
	MOVUPS X0, (DI)(R15*8)
	MOVUPS 16(DI)(R15*8), X1
	MOVUPS 16(SI)(R15*8), X5
	ADDPD  X5, X1
	MOVUPS X1, 16(DI)(R15*8)
	MOVUPS 32(DI)(R15*8), X2
	MOVUPS 32(SI)(R15*8), X6
	ADDPD  X6, X2
	MOVUPS X2, 32(DI)(R15*8)
	MOVUPS 48(DI)(R15*8), X3
	MOVUPS 48(SI)(R15*8), X7
	ADDPD  X7, X3
	MOVUPS X3, 48(DI)(R15*8)
	ADDQ   $8, R15
	JMP    r8

r2:
	MOVQ R8, AX
	SUBQ R15, AX
	CMPQ AX, $2
	JL   r1
	MOVUPS (DI)(R15*8), X0
	MOVUPS (SI)(R15*8), X4
	ADDPD  X4, X0
	MOVUPS X0, (DI)(R15*8)
	ADDQ   $2, R15
	JMP    r2

r1:
	CMPQ R15, R8
	JGE  rdone
	MOVSD (DI)(R15*8), X0
	MOVSD (SI)(R15*8), X4
	ADDSD X4, X0
	MOVSD X0, (DI)(R15*8)
	INCQ  R15

rdone:
	RET

// func cpuHasAVX() bool
//
// CPUID(1).ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0 must
// have the SSE and AVX state bits (1 and 2) set: the OS saves the YMM
// registers across context switches. XGETBV is only executed once OSXSAVE
// says it exists.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   noavx
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   noavx
	MOVB  $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func linearRow1Asm(w, b, x, y *float64, in, out int)
//
// The n = 1 forward of a whole layer: y[o] = (sum_i x[i]*w[o*in+i]) + b[o],
// each sum accumulated from zero in index order, the bias added last — the
// order of every forward in the package, at any batch size. That is one
// latency-bound chain per output, so four outputs are computed at once and
// four independent chains share each load of x[i]. It is the whole n = 1
// forward on CPUs without AVX; with AVX it runs the out mod 16 outputs that
// linearRow1AVX leaves.
TEXT ·linearRow1Asm(SB), NOSPLIT, $0-48
	PCALIGN $64
	MOVQ w+0(FP), DI
	MOVQ b+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), R10
	MOVQ in+32(FP), R9
	MOVQ out+40(FP), R8
	MOVQ R9, R11
	SHLQ $3, R11             // row stride in bytes
	XORQ R12, R12            // o = 0

l1row4:
	MOVQ R8, AX
	SUBQ R12, AX
	CMPQ AX, $4
	JL   l1row1
	LEAQ  (DI)(R11*1), BX    // rows o+1, o+2, o+3
	LEAQ  (BX)(R11*1), CX
	LEAQ  (CX)(R11*1), R13
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORQ  R15, R15           // i = 0

l1i4:
	CMPQ   R15, R9
	JGE    l1store4
	MOVSD  (SI)(R15*8), X0
	MOVAPS X0, X1
	MULSD  (DI)(R15*8), X1
	ADDSD  X1, X4
	MOVAPS X0, X2
	MULSD  (BX)(R15*8), X2
	ADDSD  X2, X5
	MOVAPS X0, X3
	MULSD  (CX)(R15*8), X3
	ADDSD  X3, X6
	MULSD  (R13)(R15*8), X0
	ADDSD  X0, X7
	INCQ   R15
	JMP    l1i4

l1store4:
	ADDSD (DX)(R12*8), X4
	ADDSD 8(DX)(R12*8), X5
	ADDSD 16(DX)(R12*8), X6
	ADDSD 24(DX)(R12*8), X7
	MOVSD X4, (R10)(R12*8)
	MOVSD X5, 8(R10)(R12*8)
	MOVSD X6, 16(R10)(R12*8)
	MOVSD X7, 24(R10)(R12*8)
	LEAQ  (R13)(R11*1), DI
	ADDQ  $4, R12
	JMP   l1row4

l1row1:
	CMPQ  R12, R8
	JGE   l1done
	XORPS X4, X4
	XORQ  R15, R15

l1i1:
	CMPQ  R15, R9
	JGE   l1store1
	MOVSD (SI)(R15*8), X1
	MULSD (DI)(R15*8), X1
	ADDSD X1, X4
	INCQ  R15
	JMP   l1i1

l1store1:
	ADDSD (DX)(R12*8), X4
	MOVSD X4, (R10)(R12*8)
	ADDQ  R11, DI
	INCQ  R12
	JMP   l1row1

l1done:
	RET

// The AVX kernels below keep, for every output element, the exact sequence of
// separately rounded multiplies and adds of the SSE2 kernel (or Go loop) they
// replace — no FMA, same operand order, which is also what picks the payload
// when both operands of an instruction are NaN — so their results are those
// kernels' bit for bit; they only put more independent elements in flight.
// Scalar and 128-bit steps stay VEX-encoded (legacy SSE instructions with
// dirty upper YMM halves stall on several cores) and every kernel ends with
// VZEROUPPER.

// Lane masks for a last vector of 4 (all lanes), 1, 2 or 3 elements.
DATA avxTailMask<>+0(SB)/8, $-1
DATA avxTailMask<>+8(SB)/8, $-1
DATA avxTailMask<>+16(SB)/8, $-1
DATA avxTailMask<>+24(SB)/8, $-1
DATA avxTailMask<>+32(SB)/8, $-1
DATA avxTailMask<>+40(SB)/8, $0
DATA avxTailMask<>+48(SB)/8, $0
DATA avxTailMask<>+56(SB)/8, $0
DATA avxTailMask<>+64(SB)/8, $-1
DATA avxTailMask<>+72(SB)/8, $-1
DATA avxTailMask<>+80(SB)/8, $0
DATA avxTailMask<>+88(SB)/8, $0
DATA avxTailMask<>+96(SB)/8, $-1
DATA avxTailMask<>+104(SB)/8, $-1
DATA avxTailMask<>+112(SB)/8, $-1
DATA avxTailMask<>+120(SB)/8, $0
GLOBL avxTailMask<>(SB), RODATA|NOPTR, $128

// One row's contribution to accumulator acc: acc += a[off:off+4] * g, the row
// values first in the multiply and the running sum first in the add. ACCM is
// the same under the tail mask in Y9 (masked-off lanes load as zero and are
// never stored).
#define ACC(off, acc, tmp) \
	VMOVUPD off(R11), tmp; \
	VMULPD  Y8, tmp, tmp;  \
	VADDPD  tmp, acc, acc

#define ACCM(off, acc, tmp) \
	VMASKMOVPD off(R11), Y9, tmp; \
	VMULPD     Y8, tmp, tmp;      \
	VADDPD     tmp, acc, acc

// Loop tail shared by every tile width: next row, next scalar.
#define NEXTROW(label) \
	ADDQ R9, R11;  \
	ADDQ R10, R12; \
	DECQ CX;       \
	JNZ  label

// func axpyRowsAVX(dst *float64, m int, a *float64, aStride int, sc *float64, scStride int, rows int)
//
// For row in [0,rows), in order: dst[i] += a[row*aStride+i] * sc[row*scStride]
// for every i in [0,m) (strides in elements; m, rows >= 1). dst is walked in
// tiles of 16 elements that stay in four registers for the whole pass over
// the rows, so each row costs loads and arithmetic only; the last tile has
// one to four registers, its last one under the tail mask.
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-56
	PCALIGN $64
	MOVQ dst+0(FP), DI
	MOVQ m+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aStride+24(FP), R9
	MOVQ sc+32(FP), DX
	MOVQ scStride+40(FP), R10
	MOVQ rows+48(FP), R13
	SHLQ $3, R9
	SHLQ $3, R10

	// Y9 = mask of the last vector: (m mod 4) lanes, all four when 0.
	MOVQ    R8, AX
	ANDQ    $3, AX
	SHLQ    $5, AX
	LEAQ    avxTailMask<>(SB), BX
	VMOVUPD (BX)(AX*1), Y9

	// R14 = vectors left, the masked last one included.
	LEAQ 3(R8), R14
	SHRQ $2, R14

artile:
	CMPQ R14, $4
	JLE  arlast

	// A full tile: 16 elements, none of them the last vector.
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    R13, CX
	PCALIGN $64

arrow4:
	VBROADCASTSD (R12), Y8
	ACC(0, Y0, Y12)
	ACC(32, Y1, Y13)
	ACC(64, Y2, Y14)
	ACC(96, Y3, Y15)
	NEXTROW(arrow4)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $4, R14
	JMP     artile

arlast:
	MOVQ SI, R11
	MOVQ DX, R12
	MOVQ R13, CX
	CMPQ R14, $4
	JEQ  arlast4
	CMPQ R14, $3
	JEQ  arlast3
	CMPQ R14, $2
	JEQ  arlast2

	// One vector, masked.
	VMASKMOVPD (DI), Y9, Y0
	PCALIGN $64

arrowm1:
	VBROADCASTSD (R12), Y8
	ACCM(0, Y0, Y12)
	NEXTROW(arrowm1)
	VMASKMOVPD Y0, Y9, (DI)
	VZEROUPPER
	RET

arlast2:
	VMOVUPD    (DI), Y0
	VMASKMOVPD 32(DI), Y9, Y1
	PCALIGN $64

arrowm2:
	VBROADCASTSD (R12), Y8
	ACC(0, Y0, Y12)
	ACCM(32, Y1, Y13)
	NEXTROW(arrowm2)
	VMOVUPD    Y0, (DI)
	VMASKMOVPD Y1, Y9, 32(DI)
	VZEROUPPER
	RET

arlast3:
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMASKMOVPD 64(DI), Y9, Y2
	PCALIGN $64

arrowm3:
	VBROADCASTSD (R12), Y8
	ACC(0, Y0, Y12)
	ACC(32, Y1, Y13)
	ACCM(64, Y2, Y14)
	NEXTROW(arrowm3)
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMASKMOVPD Y2, Y9, 64(DI)
	VZEROUPPER
	RET

arlast4:
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMOVUPD    64(DI), Y2
	VMASKMOVPD 96(DI), Y9, Y3
	PCALIGN $64

arrowm4:
	VBROADCASTSD (R12), Y8
	ACC(0, Y0, Y12)
	ACC(32, Y1, Y13)
	ACC(64, Y2, Y14)
	ACCM(96, Y3, Y15)
	NEXTROW(arrowm4)
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMASKMOVPD Y3, Y9, 96(DI)
	VZEROUPPER
	RET

// One row's contribution to a destination's accumulator in axpyRows4AVX:
// acc += av * s, the row values first in the multiply and the running sum
// first in the add, as in ACC.
#define MAC(av, s, acc, tmp) \
	VMULPD s, av, tmp;   \
	VADDPD tmp, acc, acc

// The four destinations' scalars of the row at R15, broadcast into Y10–Y13.
#define SCAL4 \
	VBROADCASTSD (R15), Y10;        \
	VBROADCASTSD (R15)(R12*1), Y11; \
	VBROADCASTSD (R15)(R12*2), Y12; \
	VBROADCASTSD (R15)(R13*1), Y13

// Loop tail of axpyRows4AVX's row loops: next row, next scalars.
#define NEXTROW4(label) \
	ADDQ R10, AX;  \
	ADDQ R11, R15; \
	DECQ CX;       \
	JNZ  label

// func axpyRows4AVX(dst *float64, dStride, m int, a *float64, aStride int, sc *float64, scStride, scLane, rows int)
//
// axpyRowsAVX on four destinations that share the rows: for k in [0,4) and
// row in [0,rows), in order, dst[k*dStride+i] += a[row*aStride+i] *
// sc[row*scStride+k*scLane] for every i in [0,m) (strides in elements; m,
// rows >= 1). Every element takes axpyRowsAVX's sequence, so four calls of
// that kernel give the same bits; here each load of a serves four
// destinations. A pass holds eight elements of each destination in eight
// accumulators for the whole walk over the rows; a one-vector pass and a
// last vector under the tail mask take the m mod 8 rest.
//
// Registers: DI dst at element i, R8 dStride*8, R9 3*dStride*8, SI a at
// element i, R10 aStride*8, DX sc, R11 scStride*8, R12 scLane*8, R13
// 3*scLane*8, R14 rows, BX elements left; in the row loops AX the row of a,
// R15 its scalars, CX rows left.
TEXT ·axpyRows4AVX(SB), NOSPLIT, $0-72
	PCALIGN $64
	MOVQ dst+0(FP), DI
	MOVQ dStride+8(FP), R8
	MOVQ m+16(FP), BX
	MOVQ a+24(FP), SI
	MOVQ aStride+32(FP), R10
	MOVQ sc+40(FP), DX
	MOVQ scStride+48(FP), R11
	MOVQ scLane+56(FP), R12
	MOVQ rows+64(FP), R14
	SHLQ $3, R8
	SHLQ $3, R10
	SHLQ $3, R11
	SHLQ $3, R12
	LEAQ (R8)(R8*2), R9
	LEAQ (R12)(R12*2), R13

a4two:
	CMPQ    BX, $8
	JL      a4one
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(R9*1), Y6
	VMOVUPD 32(DI)(R9*1), Y7
	MOVQ    SI, AX
	MOVQ    DX, R15
	MOVQ    R14, CX
	PCALIGN $64

a4row2:
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	SCAL4
	MAC(Y8, Y10, Y0, Y14)
	MAC(Y9, Y10, Y1, Y15)
	MAC(Y8, Y11, Y2, Y14)
	MAC(Y9, Y11, Y3, Y15)
	MAC(Y8, Y12, Y4, Y14)
	MAC(Y9, Y12, Y5, Y15)
	MAC(Y8, Y13, Y6, Y14)
	MAC(Y9, Y13, Y7, Y15)
	NEXTROW4(a4row2)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R9*1)
	VMOVUPD Y7, 32(DI)(R9*1)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $8, BX
	JMP     a4two

a4one:
	// Four to seven elements left: one full vector.
	CMPQ    BX, $4
	JL      a4mask
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD (DI)(R9*1), Y6
	MOVQ    SI, AX
	MOVQ    DX, R15
	MOVQ    R14, CX
	PCALIGN $64

a4row1:
	VMOVUPD (AX), Y8
	SCAL4
	MAC(Y8, Y10, Y0, Y14)
	MAC(Y8, Y11, Y2, Y14)
	MAC(Y8, Y12, Y4, Y14)
	MAC(Y8, Y13, Y6, Y14)
	NEXTROW4(a4row1)
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y6, (DI)(R9*1)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, BX

a4mask:
	// One to three elements left, or none: the last vector under Y9, the
	// mask of its BX lanes (masked-off lanes load as zero and are never
	// stored).
	TESTQ      BX, BX
	JZ         a4done
	SHLQ       $5, BX
	LEAQ       avxTailMask<>(SB), AX
	VMOVUPD    (AX)(BX*1), Y9
	VMASKMOVPD (DI), Y9, Y0
	VMASKMOVPD (DI)(R8*1), Y9, Y2
	VMASKMOVPD (DI)(R8*2), Y9, Y4
	VMASKMOVPD (DI)(R9*1), Y9, Y6
	MOVQ       SI, AX
	MOVQ       DX, R15
	MOVQ       R14, CX
	PCALIGN    $64

a4rowm:
	VMASKMOVPD (AX), Y9, Y8
	SCAL4
	MAC(Y8, Y10, Y0, Y14)
	MAC(Y8, Y11, Y2, Y14)
	MAC(Y8, Y12, Y4, Y14)
	MAC(Y8, Y13, Y6, Y14)
	NEXTROW4(a4rowm)
	VMASKMOVPD Y0, Y9, (DI)
	VMASKMOVPD Y2, Y9, (DI)(R8*1)
	VMASKMOVPD Y4, Y9, (DI)(R8*2)
	VMASKMOVPD Y6, Y9, (DI)(R9*1)

a4done:
	VZEROUPPER
	RET

// One output's share of a column-kernel step: w[o][i], broadcast from that
// output's weight row wrow at byte offset R15, times the activations of rows
// r…r+3 (Y0) and r+4…r+7 (Y1), added to the output's accumulators a0 and
// a1; COL4 is the same for four rows. The activation is the multiply's first
// operand and the running sum the add's, as in linearRow1Asm.
#define COL8(wrow, a0, a1) \
	VBROADCASTSD (wrow)(R15*1), Y2; \
	VMULPD       Y2, Y0, Y3;        \
	VADDPD       Y3, a0, a0;        \
	VMULPD       Y2, Y1, Y12;       \
	VADDPD       Y12, a1, a1

#define COL4(wrow, a0) \
	VBROADCASTSD (wrow)(R15*1), Y2; \
	VMULPD       Y2, Y0, Y3;        \
	VADDPD       Y3, a0, a0

// Bias of output k (byte offset off into b) added last to its accumulators.
#define BIAS8(off, a0, a1) \
	VBROADCASTSD off(DX), Y2; \
	VADDPD       Y2, a0, a0;  \
	VADDPD       Y2, a1, a1

#define BIAS4(off, a0) \
	VBROADCASTSD off(DX), Y2; \
	VADDPD       Y2, a0, a0

// func linearColsAVX(w, b, xt, yt *float64, in, out, ld int)
//
// A whole Linear layer over a column-major batch: for every output o and
// batch row r in [0,ld), yt[o*ld+r] = (sum_i xt[i*ld+r]*w[o*in+i]) + b[o],
// each sum accumulated from zero in index order — linearRow1Asm's sequence
// for every (row, output), so a row's bits are the n = 1 forward's. ld is a
// multiple of four and in >= 1. Each pass holds four outputs of eight rows
// in eight accumulators, so every weight broadcast serves eight rows and
// every activation load four outputs; a last block of four rows and the last
// out mod 4 outputs, one at a time, take the same steps on fewer registers.
//
// Registers: DI, CX, R13, R14 the weight rows of outputs o…o+3, DX &b[o],
// SI xt, R10 &yt[o*ld], R8 outputs left, R9 the row block's byte offset r*8,
// BX the activation cursor, R15 the byte offset i*8, R11 in*8, R12 ld*8.
TEXT ·linearColsAVX(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), DI
	MOVQ b+8(FP), DX
	MOVQ xt+16(FP), SI
	MOVQ yt+24(FP), R10
	MOVQ in+32(FP), R11
	MOVQ out+40(FP), R8
	MOVQ ld+48(FP), R12
	SHLQ $3, R11
	SHLQ $3, R12

lcout4:
	CMPQ R8, $4
	JL   lcout1
	LEAQ (DI)(R11*1), CX
	LEAQ (CX)(R11*1), R13
	LEAQ (R13)(R11*1), R14
	XORQ R9, R9

lcrow8:
	MOVQ   R12, AX
	SUBQ   R9, AX
	CMPQ   AX, $64
	JL     lcrow4
	LEAQ   (SI)(R9*1), BX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ   R15, R15
	PCALIGN $64

lci48:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	COL8(DI, Y4, Y5)
	COL8(CX, Y6, Y7)
	COL8(R13, Y8, Y9)
	COL8(R14, Y10, Y11)
	ADDQ    R12, BX
	ADDQ    $8, R15
	CMPQ    R15, R11
	JL      lci48

	BIAS8(0, Y4, Y5)
	BIAS8(8, Y6, Y7)
	BIAS8(16, Y8, Y9)
	BIAS8(24, Y10, Y11)
	LEAQ    (R10)(R9*1), AX
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R12*1)
	VMOVUPD Y7, 32(AX)(R12*1)
	VMOVUPD Y8, (AX)(R12*2)
	VMOVUPD Y9, 32(AX)(R12*2)
	LEAQ    (AX)(R12*2), AX
	VMOVUPD Y10, (AX)(R12*1)
	VMOVUPD Y11, 32(AX)(R12*1)
	ADDQ    $64, R9
	JMP     lcrow8

lcrow4:
	// Four rows left, or none.
	CMPQ   R9, R12
	JGE    lcnext4
	LEAQ   (SI)(R9*1), BX
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	VXORPD Y8, Y8, Y8
	VXORPD Y10, Y10, Y10
	XORQ   R15, R15
	PCALIGN $64

lci44:
	VMOVUPD (BX), Y0
	COL4(DI, Y4)
	COL4(CX, Y6)
	COL4(R13, Y8)
	COL4(R14, Y10)
	ADDQ    R12, BX
	ADDQ    $8, R15
	CMPQ    R15, R11
	JL      lci44

	BIAS4(0, Y4)
	BIAS4(8, Y6)
	BIAS4(16, Y8)
	BIAS4(24, Y10)
	LEAQ    (R10)(R9*1), AX
	VMOVUPD Y4, (AX)
	VMOVUPD Y6, (AX)(R12*1)
	VMOVUPD Y8, (AX)(R12*2)
	LEAQ    (AX)(R12*2), AX
	VMOVUPD Y10, (AX)(R12*1)

lcnext4:
	LEAQ (R14)(R11*1), DI
	ADDQ $32, DX
	LEAQ (R10)(R12*4), R10
	SUBQ $4, R8
	JMP  lcout4

lcout1:
	TESTQ R8, R8
	JZ    lcdone
	XORQ  R9, R9

lc1row8:
	MOVQ   R12, AX
	SUBQ   R9, AX
	CMPQ   AX, $64
	JL     lc1row4
	LEAQ   (SI)(R9*1), BX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ   R15, R15
	PCALIGN $64

lci18:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	COL8(DI, Y4, Y5)
	ADDQ    R12, BX
	ADDQ    $8, R15
	CMPQ    R15, R11
	JL      lci18

	BIAS8(0, Y4, Y5)
	VMOVUPD Y4, (R10)(R9*1)
	VMOVUPD Y5, 32(R10)(R9*1)
	ADDQ    $64, R9
	JMP     lc1row8

lc1row4:
	CMPQ   R9, R12
	JGE    lcnext1
	LEAQ   (SI)(R9*1), BX
	VXORPD Y4, Y4, Y4
	XORQ   R15, R15
	PCALIGN $64

lci14:
	VMOVUPD (BX), Y0
	COL4(DI, Y4)
	ADDQ    R12, BX
	ADDQ    $8, R15
	CMPQ    R15, R11
	JL      lci14

	BIAS4(0, Y4)
	VMOVUPD Y4, (R10)(R9*1)

lcnext1:
	ADDQ R11, DI
	ADDQ $8, DX
	ADDQ R12, R10
	DECQ R8
	JMP  lcout1

lcdone:
	VZEROUPPER
	RET

// One input pair of four outputs in linearRow1AVX: the weights w[o…o+3][i]
// and w[o…o+3][i+1] of the rows at m0…m3 (m0 and m2 into ya's halves, m1 and
// m3 into yb's, then one unpack each for column i and column i+1), each
// times x[i] (Y4) or x[i+1] (Y5) and added to acc, column i first. x is the
// multiply's first operand and the running sum the add's, as in
// linearRow1Asm.
#define PAIR4(m0, m1, m2, m3, xa, ya, xb, yb, acc) \
	VMOVUPD     m0, xa;          \
	VINSERTF128 $1, m2, ya, ya;  \
	VMOVUPD     m1, xb;          \
	VINSERTF128 $1, m3, yb, yb;  \
	VUNPCKLPD   yb, ya, Y14;     \
	VUNPCKHPD   yb, ya, Y15;     \
	VMULPD      Y14, Y4, Y14;    \
	VADDPD      Y14, acc, acc;   \
	VMULPD      Y15, Y5, Y15;    \
	VADDPD      Y15, acc, acc

// The last input of an odd count for four outputs: w[o…o+3][i] gathered
// pairwise into xa and xb, joined into ya, times x[i] (Y4), added to acc.
#define ODD4(m0, m1, m2, m3, xa, ya, xb, acc) \
	VMOVSD      m0, xa;         \
	VMOVHPD     m1, xa, xa;     \
	VMOVSD      m2, xb;         \
	VMOVHPD     m3, xb, xb;     \
	VINSERTF128 $1, xb, ya, ya; \
	VMULPD      ya, Y4, ya;     \
	VADDPD      ya, acc, acc

// func linearRow1AVX(w, b, x, y *float64, in, out int)
//
// linearRow1Asm for out a multiple of sixteen, with outputs in the YMM
// lanes: y[o] = (sum_i x[i]*w[o*in+i]) + b[o], each sum from zero in index
// order, the bias added last, every step linearRow1Asm's, so the bits are
// too. A pass holds sixteen outputs in four accumulators. The weights need
// no transposed copy: per input pair, each row gives a 16-byte load, two
// rows share a register, and unpacks turn four rows into the columns i and
// i+1; an odd last input is gathered element by element. Each broadcast of
// x serves a whole pass.
//
// Registers: SI x, DI the weight row of output o, DX &b[o], R10 &y[o], R8
// outputs left, R11 in*8 (the row stride), R12, R13 and R14 three, five and
// seven rows, R15 input pairs; in the input loops AX the weights of output
// o at input i, BX those of output o+8, R9 &x[i], CX pairs left.
TEXT ·linearRow1AVX(SB), NOSPLIT, $0-48
	PCALIGN $64
	MOVQ w+0(FP), DI
	MOVQ b+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), R10
	MOVQ in+32(FP), R11
	MOVQ out+40(FP), R8
	MOVQ R11, R15
	SHRQ $1, R15
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R12
	LEAQ (R11)(R11*4), R13
	LEAQ (R12)(R11*4), R14

lr16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DI, AX
	LEAQ   (DI)(R11*8), BX
	MOVQ   SI, R9
	MOVQ   R15, CX
	TESTQ  CX, CX
	JZ     lr16odd
	PCALIGN $64

lr16i:
	VBROADCASTSD (R9), Y4
	VBROADCASTSD 8(R9), Y5
	PAIR4((AX), (AX)(R11*1), (AX)(R11*2), (AX)(R12*1), X6, Y6, X7, Y7, Y0)
	PAIR4((AX)(R11*4), (AX)(R13*1), (AX)(R12*2), (AX)(R14*1), X8, Y8, X9, Y9, Y1)
	PAIR4((BX), (BX)(R11*1), (BX)(R11*2), (BX)(R12*1), X10, Y10, X11, Y11, Y2)
	PAIR4((BX)(R11*4), (BX)(R13*1), (BX)(R12*2), (BX)(R14*1), X12, Y12, X13, Y13, Y3)
	ADDQ         $16, AX
	ADDQ         $16, BX
	ADDQ         $16, R9
	DECQ         CX
	JNZ          lr16i

lr16odd:
	TESTQ        $8, R11
	JZ           lr16store
	VBROADCASTSD (R9), Y4
	ODD4((AX), (AX)(R11*1), (AX)(R11*2), (AX)(R12*1), X6, Y6, X7, Y0)
	ODD4((AX)(R11*4), (AX)(R13*1), (AX)(R12*2), (AX)(R14*1), X8, Y8, X9, Y1)
	ODD4((BX), (BX)(R11*1), (BX)(R11*2), (BX)(R12*1), X10, Y10, X11, Y2)
	ODD4((BX)(R11*4), (BX)(R13*1), (BX)(R12*2), (BX)(R14*1), X12, Y12, X13, Y3)

lr16store:
	VADDPD  (DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VADDPD  64(DX), Y2, Y2
	VADDPD  96(DX), Y3, Y3
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	ADDQ    $128, DX
	ADDQ    $128, R10
	LEAQ    (DI)(R11*8), DI
	LEAQ    (DI)(R11*8), DI
	SUBQ    $16, R8
	JNZ     lr16
	VZEROUPPER
	RET

// func transpose4AVX(dst *float64, dLine, dBlock int, src *float64, sLine, sBlock, blocks int)
//
// The column path's transposes, four by four: block b loads the four
// vectors src[k*sLine+b*sBlock : +4], k = 0…3, and stores element j of
// vector k at dst[j*dLine+b*dBlock+k]. Strides count elements. It only
// moves data, so every element keeps its bits.
//
// Registers: SI and DI the block's source and destination, R10 and R8
// sLine*8 and dLine*8, R12 and R13 three times those, R11 and R9 sBlock*8
// and dBlock*8, CX blocks left.
TEXT ·transpose4AVX(SB), NOSPLIT, $0-56
	MOVQ  dst+0(FP), DI
	MOVQ  dLine+8(FP), R8
	MOVQ  dBlock+16(FP), R9
	MOVQ  src+24(FP), SI
	MOVQ  sLine+32(FP), R10
	MOVQ  sBlock+40(FP), R11
	MOVQ  blocks+48(FP), CX
	SHLQ  $3, R8
	SHLQ  $3, R9
	SHLQ  $3, R10
	SHLQ  $3, R11
	LEAQ  (R10)(R10*2), R12
	LEAQ  (R8)(R8*2), R13
	TESTQ CX, CX
	JZ    tpdone
	PCALIGN $64

tploop:
	VMOVUPD    (SI), Y0                // a0 a1 a2 a3
	VMOVUPD    (SI)(R10*1), Y1         // b
	VMOVUPD    (SI)(R10*2), Y2         // c
	VMOVUPD    (SI)(R12*1), Y3         // d
	VUNPCKLPD  Y1, Y0, Y4              // a0 b0 a2 b2
	VUNPCKHPD  Y1, Y0, Y5              // a1 b1 a3 b3
	VUNPCKLPD  Y3, Y2, Y6              // c0 d0 c2 d2
	VUNPCKHPD  Y3, Y2, Y7              // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0       // a0 b0 c0 d0
	VPERM2F128 $0x20, Y7, Y5, Y1       // a1 b1 c1 d1
	VPERM2F128 $0x31, Y6, Y4, Y2       // a2 b2 c2 d2
	VPERM2F128 $0x31, Y7, Y5, Y3       // a3 b3 c3 d3
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, (DI)(R8*1)
	VMOVUPD    Y2, (DI)(R8*2)
	VMOVUPD    Y3, (DI)(R13*1)
	ADDQ       R11, SI
	ADDQ       R9, DI
	DECQ       CX
	JNZ        tploop
	VZEROUPPER

tpdone:
	RET

// The element-wise kernels: fastTanh, the tanh backward and Adam's update,
// each the Go loop's exact per-element sequence in four lanes. No lane reads
// another, so nothing here depends on how a slice is split into vectors; the
// Go helpers run the n mod 4 tail through the Go loop itself.

// fastTanh's constants (tanhMax, tanhN/(2·tanhMax), tanhN, the two
// saturation values) and the last table interval tanhN-1 as an int32.
DATA tanhConst<>+0(SB)/8, $16.0
DATA tanhConst<>+8(SB)/8, $128.0
DATA tanhConst<>+16(SB)/8, $4096.0
DATA tanhConst<>+24(SB)/8, $-1.0
DATA tanhConst<>+32(SB)/8, $1.0
DATA tanhConst<>+40(SB)/4, $4095
GLOBL tanhConst<>(SB), RODATA|NOPTR, $44

// func tanhAVX(dst, src *float64, n int)
//
// dst[i] = fastTanh(src[i]) for i in [0,n), n a multiple of 4; dst may be
// src. Per lane: t = (x + tanhMax)·scale, j = int(t) by truncation, clamped
// to [0, tanhN-1] before it indexes the table (lanes outside (0, tanhN) are
// replaced below, so their j only has to be a safe index), u = t - j, then
// the interval's four coefficients — two 16-byte loads per lane, put in
// coefficient-major order by four unpacks, no gather — and Horner in
// fastTanh's order with separate roundings. Last, the three exits as
// blends: -1 where !(t > 0), 1 where t >= tanhN, and x itself, payload and
// all, where x is NaN.
//
// Registers: Y15 tanhMax, Y14 scale, Y13 zero, Y12 tanhN, Y11 -1, Y10 1,
// X9 tanhN-1 in each int32; R8 the table; AX, BX, DX, R9 lanes 0–3's byte
// offsets into it.
TEXT ·tanhAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ ·tanhCoef(SB), R8
	TESTQ CX, CX
	JZ    tdone
	VBROADCASTSD tanhConst<>+0(SB), Y15
	VBROADCASTSD tanhConst<>+8(SB), Y14
	VXORPD       Y13, Y13, Y13
	VBROADCASTSD tanhConst<>+16(SB), Y12
	VBROADCASTSD tanhConst<>+24(SB), Y11
	VBROADCASTSD tanhConst<>+32(SB), Y10
	VBROADCASTSS tanhConst<>+40(SB), X9
	PCALIGN $64

tloop:
	VMOVUPD     (SI), Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y14, Y1, Y1 // t
	VCVTTPD2DQY Y1, X2
	VPMAXSD     X13, X2, X2
	VPMINSD     X9, X2, X2  // j, clamped
	VCVTDQ2PD   X2, Y3
	VSUBPD      Y3, Y1, Y3  // u
	VPSLLD      $5, X2, X2  // j*32: the interval's byte offset
	VMOVD       X2, AX
	VPEXTRD     $1, X2, BX
	VPEXTRD     $2, X2, DX
	VPEXTRD     $3, X2, R9

	// Y4 = lanes 0 and 2's c[0], c[1]; Y5 the same of lanes 1 and 3; Y6
	// and Y7 their c[2], c[3]. An unpack of a pair gives one coefficient
	// of all four lanes in lane order.
	VMOVUPD     (R8)(AX*1), X4
	VINSERTF128 $1, (R8)(DX*1), Y4, Y4
	VMOVUPD     (R8)(BX*1), X5
	VINSERTF128 $1, (R8)(R9*1), Y5, Y5
	VMOVUPD     16(R8)(AX*1), X6
	VINSERTF128 $1, 16(R8)(DX*1), Y6, Y6
	VMOVUPD     16(R8)(BX*1), X7
	VINSERTF128 $1, 16(R8)(R9*1), Y7, Y7

	// c[0] + u*(c[1] + u*(c[2] + u*c[3])).
	VUNPCKHPD Y7, Y6, Y8
	VMULPD    Y8, Y3, Y8
	VUNPCKLPD Y7, Y6, Y6
	VADDPD    Y8, Y6, Y8
	VMULPD    Y8, Y3, Y8
	VUNPCKHPD Y5, Y4, Y7
	VADDPD    Y8, Y7, Y8
	VMULPD    Y8, Y3, Y8
	VUNPCKLPD Y5, Y4, Y4
	VADDPD    Y8, Y4, Y8

	VCMPPD    $0x0A, Y13, Y1, Y5 // !(t > 0): NGT, true on NaN
	VBLENDVPD Y5, Y11, Y8, Y8
	VCMPPD    $0x1D, Y12, Y1, Y5 // t >= tanhN
	VBLENDVPD Y5, Y10, Y8, Y8
	VCMPPD    $0x03, Y0, Y0, Y5  // x is NaN
	VBLENDVPD Y5, Y0, Y8, Y8
	VMOVUPD   Y8, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $4, CX
	JNZ       tloop
	VZEROUPPER

tdone:
	RET

// func tanhBackAVX(dst, grad, y *float64, n int)
//
// dst[i] = grad[i] * (1 - y[i]*y[i]) for i in [0,n), n a multiple of 4: the
// Tanh layer's backward from its cached outputs, operands in the Go order.
TEXT ·tanhBackAVX(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  grad+8(FP), SI
	MOVQ  y+16(FP), DX
	MOVQ  n+24(FP), CX
	TESTQ CX, CX
	JZ    tbdone
	VBROADCASTSD tanhConst<>+32(SB), Y15
	PCALIGN $64

tbloop:
	VMOVUPD (DX), Y0
	VMULPD  Y0, Y0, Y0
	VSUBPD  Y0, Y15, Y0
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     tbloop
	VZEROUPPER

tbdone:
	RET

// func adamAVX(p, grad, m, v *float64, n int, k *[8]float64)
//
// Adam's update of n elements, n a multiple of 4, with k = {β1, 1-β1, β2,
// 1-β2, 1/bc1, 1/bc2, lr, ε}, in Adam.Step's order:
//
//	mj = β1·m + (1-β1)·g
//	vj = β2·v + ((1-β2)·g)·g
//	p  = p - (lr·(mj·(1/bc1))) / (sqrt(vj·(1/bc2)) + ε)
//
// VSQRTPD and VDIVPD round correctly, like SQRTSD and DIVSD, so each lane
// keeps its bits. An element whose gradient is NaN or ±Inf keeps its m, v
// and p: the blend mask is g - g ordered, that is g - g == 0.
//
// Registers: Y0–Y7 the constants; Y8 g, Y9 m, Y10 v, Y11 p, Y12 the mask.
TEXT ·adamAVX(SB), NOSPLIT, $0-48
	MOVQ  p+0(FP), DI
	MOVQ  grad+8(FP), SI
	MOVQ  m+16(FP), BX
	MOVQ  v+24(FP), DX
	MOVQ  n+32(FP), CX
	MOVQ  k+40(FP), AX
	TESTQ CX, CX
	JZ    addone
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	PCALIGN $64

adloop:
	VMOVUPD   (SI), Y8
	VMOVUPD   (BX), Y9
	VMOVUPD   (DX), Y10
	VMOVUPD   (DI), Y11
	VSUBPD    Y8, Y8, Y12
	VCMPPD    $0x07, Y12, Y12, Y12 // g finite
	VMULPD    Y9, Y0, Y13
	VMULPD    Y8, Y1, Y14
	VADDPD    Y14, Y13, Y13        // mj
	VMULPD    Y8, Y3, Y14
	VMULPD    Y8, Y14, Y14
	VMULPD    Y10, Y2, Y15
	VADDPD    Y14, Y15, Y14        // vj
	VBLENDVPD Y12, Y13, Y9, Y9
	VMOVUPD   Y9, (BX)
	VBLENDVPD Y12, Y14, Y10, Y10
	VMOVUPD   Y10, (DX)
	VMULPD    Y5, Y14, Y14
	VSQRTPD   Y14, Y14
	VADDPD    Y7, Y14, Y14
	VMULPD    Y4, Y13, Y13
	VMULPD    Y13, Y6, Y13
	VDIVPD    Y14, Y13, Y13
	VSUBPD    Y13, Y11, Y13
	VBLENDVPD Y12, Y13, Y11, Y11
	VMOVUPD   Y11, (DI)
	ADDQ      $32, SI
	ADDQ      $32, BX
	ADDQ      $32, DX
	ADDQ      $32, DI
	SUBQ      $4, CX
	JNZ       adloop
	VZEROUPPER

addone:
	RET

#include "textflag.h"

// The group kernels compute stored rows [lo, hi) of a SELL-C-σ layout,
// both multiples of 8 and inside the chunks the Go wrapper checked, in
// groups of eight lanes of one chunk. Where 32 rows of the chunk and
// the range are left, four groups run in lockstep as a quad, so a step
// reads 32 consecutive elements of the chunk; otherwise one group runs
// alone. Register use:
//
//	AX  first row of the group    SI  &val[0]     DI  &col[0]
//	BX  rows left in the chunk    R8  &x[0]       R12 &rowLen[0]
//	CX  chunk height c            R13 &y[0]       R11 &perm[0] or 0
//	DX  chunk index sl            R14 the group's element of step 0
//	R9  the group's element of step j             R10 temporary
//	Y1, Y16-Y18  row lengths      Y2   j in every lane
//	Y3, Y19, Y23, Y24  columns    Y13  all ones (-1)
//	Y14 chunk length              Y15  xlim
//	K1-K4  lanes with j < row length, one mask per group
//	K7  all ones when adding to y, else zero
//
// A step j loads the eight column indices of a group, checks the
// active ones as unsigned values against xlim, gathers x under the
// group's mask, multiplies by the values and adds the products into
// the active lanes only: no padding is ever added and no lane runs past
// its row. Mul and add stay separate (no FMA) and keep the scalar Go
// order, sum + val·x and then sum + y, so every lane rounds exactly as
// the CRS loop does. A row longer than its chunk, a column index or a
// permuted row out of range stops the kernel before its group or quad
// stores anything; it returns that group's first row, from which the
// Go loop takes over. Only VEX and EVEX instructions run before the
// closing VZEROUPPER, so no SSE/AVX transition is paid.

// CHUNK loads chunk DX: R14 = sliceStart[DX], Y14 = sliceLen[DX] in
// every lane.
#define CHUNK \
	MOVQ sliceStart+64(FP), R10; \
	MOVQ (R10)(DX*8), R14; \
	MOVQ sliceLen+72(FP), R10; \
	VPBROADCASTD (R10)(DX*4), Y14

// SETUP loads the arguments, positions the first group at row lo of
// chunk sl and fills the constant registers.
#define SETUP \
	MOVQ val+0(FP), SI; \
	MOVQ col+8(FP), DI; \
	MOVQ x+16(FP), R8; \
	VPBROADCASTD xlim+24(FP), Y15; \
	MOVQ y+32(FP), R13; \
	MOVQ perm+40(FP), R11; \
	MOVQ rowLen+56(FP), R12; \
	MOVQ c+80(FP), CX; \
	MOVQ sl+88(FP), DX; \
	MOVQ lo+96(FP), AX; \
	MOVBLZX add+112(FP), R10; \
	NEGL R10; \
	KMOVW R10, K7; \
	CHUNK; \
	MOVQ DX, R10; \
	IMULQ CX, R10; \
	MOVQ AX, BX; \
	SUBQ R10, BX; \
	ADDQ BX, R14; \
	NEGQ BX; \
	ADDQ CX, BX; \
	VPCMPEQD Y13, Y13, Y13

// DISPATCH jumps to label quad when 32 rows of both the chunk and the
// range are left, and falls through to the single group otherwise.
#define DISPATCH(quad) \
	CMPQ BX, $32; \
	JLT 5(PC); \
	MOVQ hi+104(FP), R10; \
	SUBQ AX, R10; \
	CMPQ R10, $32; \
	JGE quad

// LENS loads the row lengths of the group at row offset g into lens and
// sets K6 where one exceeds the chunk length.
#define LENS(g, lens) \
	VMOVDQU32 (g*4)(R12)(AX*4), lens; \
	VPCMPUD $6, Y14, lens, K6

// START clears the step and points R9 at the group's element 0.
#define START \
	VPXORD Y2, Y2, Y2; \
	MOVQ R14, R9

// ACTIVE sets mask k to the lanes of lens with j < row length.
#define ACTIVE(lens, k) \
	VPCMPD $6, Y2, lens, k

// COLS loads the column indices of the group at row offset g into cols
// and sets bad where an active lane's (mask k) index is out of range.
#define COLS(g, cols, k, bad) \
	VMOVDQU32 (g*4)(DI)(R9*4), cols; \
	VPCMPUD $5, Y15, cols, k, bad

// STEPPED moves every lane on to step j+1.
#define STEPPED \
	ADDQ CX, R9; \
	VPSUBD Y13, Y2, Y2

// PCHECK sets bad where one of the eight permuted rows of the group at
// row offset g, perm[AX+g:AX+g+8], is not below len(y).
#define PCHECK(g, bad) \
	VPBROADCASTQ ylen+48(FP), Z12; \
	VMOVDQU64 (g*8)(R11)(AX*8), Z6; \
	VPCMPUQ $5, Z12, Z6, bad

// NEXT advances by n rows, moving to the next chunk when this one is
// done, and jumps to label loop while rows remain.
#define NEXT(n, loop) \
	ADDQ $n, AX; \
	ADDQ $n, R14; \
	SUBQ $n, BX; \
	CMPQ AX, hi+104(FP); \
	JGE  out; \
	TESTQ BX, BX; \
	JNZ  loop; \
	INCQ DX; \
	MOVQ CX, BX; \
	CHUNK; \
	JMP  loop

// LANE64 stores lane k of the group at row offset g, spilled at
// 0(SP), to y[perm[AX+g+k]], adding the old value under K7.
#define LANE64(g, k) \
	MOVQ ((g+k)*8)(R11)(AX*8), R10; \
	VMOVSD (k*8)(SP), X9; \
	VADDSD (R13)(R10*8), X9, K7, X9; \
	VMOVSD X9, (R13)(R10*8)

#define PSTORE64(g, sums) \
	VMOVUPD sums, (SP); \
	LANE64(g, 0); LANE64(g, 1); LANE64(g, 2); LANE64(g, 3); \
	LANE64(g, 4); LANE64(g, 5); LANE64(g, 6); LANE64(g, 7)

// YSTORE64 stores the group at row offset g to y[AX+g:], adding the
// old values under K7.
#define YSTORE64(g, sums) \
	VADDPD (g*8)(R13)(AX*8), sums, K7, sums; \
	VMOVUPD sums, (g*8)(R13)(AX*8)

// GATHER64 adds step j of one group into sums: x gathered at cols
// under a copy of mask k, times the values at row offset g.
#define GATHER64(g, cols, k, sums) \
	KMOVW k, K5; \
	VPXORD Z4, Z4, Z4; \
	VGATHERDPD (R8)(cols*8), K5, Z4; \
	VMOVUPD (g*8)(SI)(R9*8), Z5; \
	VMULPD Z4, Z5, Z5; \
	VADDPD Z5, sums, k, sums

#define LANE32(g, k) \
	MOVQ ((g+k)*8)(R11)(AX*8), R10; \
	VMOVSS (k*4)(SP), X9; \
	VADDSS (R13)(R10*4), X9, K7, X9; \
	VMOVSS X9, (R13)(R10*4)

#define PSTORE32(g, sums) \
	VMOVUPS sums, (SP); \
	LANE32(g, 0); LANE32(g, 1); LANE32(g, 2); LANE32(g, 3); \
	LANE32(g, 4); LANE32(g, 5); LANE32(g, 6); LANE32(g, 7)

#define YSTORE32(g, sums) \
	VADDPS (g*4)(R13)(AX*4), sums, K7, sums; \
	VMOVUPS sums, (g*4)(R13)(AX*4)

#define GATHER32(g, cols, k, sums) \
	KMOVW k, K5; \
	VPXORD Y4, Y4, Y4; \
	VGATHERDPS (R8)(cols*4), K5, Y4; \
	VMOVUPS (g*4)(SI)(R9*4), Y5; \
	VMULPS Y4, Y5, Y5; \
	VADDPS Y5, sums, k, sums

// func groups8F64(val *float64, col *int32, x *float64, xlim int, y *float64, perm *int, ylen int, rowLen *int32, sliceStart *int64, sliceLen *int32, c, sl, lo, hi int, add bool) int
TEXT ·groups8F64(SB), NOSPLIT, $64-128
	SETUP

group64:
	DISPATCH(quad64)
	LENS(0, Y1)
	KORTESTW K6, K6
	JNZ      bail
	VPXORD   Z0, Z0, Z0
	START

step64:
	ACTIVE(Y1, K1)
	KORTESTW K1, K1
	JZ       store64
	COLS(0, Y3, K1, K6)
	KORTESTW K6, K6
	JNZ      bail
	GATHER64(0, Y3, K1, Z0)
	STEPPED
	JMP      step64

store64:
	TESTQ    R11, R11
	JNZ      pstore64
	YSTORE64(0, Z0)
	NEXT(8, group64)

pstore64:
	PCHECK(0, K6)
	KORTESTW K6, K6
	JNZ      bail
	PSTORE64(0, Z0)
	NEXT(8, group64)

quad64:
	LENS(0, Y1)
	KMOVW    K6, K1
	LENS(8, Y16)
	KORW     K6, K1, K1
	LENS(16, Y17)
	KORW     K6, K1, K1
	LENS(24, Y18)
	KORTESTW K6, K1
	JNZ      bail
	VPXORD   Z0, Z0, Z0
	VPXORD   Z20, Z20, Z20
	VPXORD   Z21, Z21, Z21
	VPXORD   Z22, Z22, Z22
	START

qstep64:
	ACTIVE(Y1, K1)
	ACTIVE(Y16, K2)
	ACTIVE(Y17, K3)
	ACTIVE(Y18, K4)
	KORW     K1, K2, K5
	KORW     K3, K4, K6
	KORTESTW K5, K6
	JZ       qstore64
	COLS(0, Y3, K1, K5)
	COLS(8, Y19, K2, K6)
	KORW     K5, K6, K5
	COLS(16, Y23, K3, K6)
	KORW     K5, K6, K5
	COLS(24, Y24, K4, K6)
	KORTESTW K5, K6
	JNZ      bail
	GATHER64(0, Y3, K1, Z0)
	GATHER64(8, Y19, K2, Z20)
	GATHER64(16, Y23, K3, Z21)
	GATHER64(24, Y24, K4, Z22)
	STEPPED
	JMP      qstep64

qstore64:
	TESTQ    R11, R11
	JNZ      qpstore64
	YSTORE64(0, Z0)
	YSTORE64(8, Z20)
	YSTORE64(16, Z21)
	YSTORE64(24, Z22)
	NEXT(32, group64)

qpstore64:
	PCHECK(0, K1)
	PCHECK(8, K2)
	KORW     K1, K2, K1
	PCHECK(16, K2)
	KORW     K1, K2, K1
	PCHECK(24, K2)
	KORTESTW K1, K2
	JNZ      bail
	PSTORE64(0, Z0)
	PSTORE64(8, Z20)
	PSTORE64(16, Z21)
	PSTORE64(24, Z22)
	NEXT(32, group64)

out:
bail:
	MOVQ AX, ret+120(FP)
	VZEROUPPER
	RET

// func groups8F32(val *float32, col *int32, x *float32, xlim int, y *float32, perm *int, ylen int, rowLen *int32, sliceStart *int64, sliceLen *int32, c, sl, lo, hi int, add bool) int
TEXT ·groups8F32(SB), NOSPLIT, $64-128
	SETUP

group32:
	DISPATCH(quad32)
	LENS(0, Y1)
	KORTESTW K6, K6
	JNZ      bail
	VPXORD   Y0, Y0, Y0
	START

step32:
	ACTIVE(Y1, K1)
	KORTESTW K1, K1
	JZ       store32
	COLS(0, Y3, K1, K6)
	KORTESTW K6, K6
	JNZ      bail
	GATHER32(0, Y3, K1, Y0)
	STEPPED
	JMP      step32

store32:
	TESTQ    R11, R11
	JNZ      pstore32
	YSTORE32(0, Y0)
	NEXT(8, group32)

pstore32:
	PCHECK(0, K6)
	KORTESTW K6, K6
	JNZ      bail
	PSTORE32(0, Y0)
	NEXT(8, group32)

quad32:
	LENS(0, Y1)
	KMOVW    K6, K1
	LENS(8, Y16)
	KORW     K6, K1, K1
	LENS(16, Y17)
	KORW     K6, K1, K1
	LENS(24, Y18)
	KORTESTW K6, K1
	JNZ      bail
	VPXORD   Y0, Y0, Y0
	VPXORD   Y20, Y20, Y20
	VPXORD   Y21, Y21, Y21
	VPXORD   Y22, Y22, Y22
	START

qstep32:
	ACTIVE(Y1, K1)
	ACTIVE(Y16, K2)
	ACTIVE(Y17, K3)
	ACTIVE(Y18, K4)
	KORW     K1, K2, K5
	KORW     K3, K4, K6
	KORTESTW K5, K6
	JZ       qstore32
	COLS(0, Y3, K1, K5)
	COLS(8, Y19, K2, K6)
	KORW     K5, K6, K5
	COLS(16, Y23, K3, K6)
	KORW     K5, K6, K5
	COLS(24, Y24, K4, K6)
	KORTESTW K5, K6
	JNZ      bail
	GATHER32(0, Y3, K1, Y0)
	GATHER32(8, Y19, K2, Y20)
	GATHER32(16, Y23, K3, Y21)
	GATHER32(24, Y24, K4, Y22)
	STEPPED
	JMP      qstep32

qstore32:
	TESTQ    R11, R11
	JNZ      qpstore32
	YSTORE32(0, Y0)
	YSTORE32(8, Y20)
	YSTORE32(16, Y21)
	YSTORE32(24, Y22)
	NEXT(32, group32)

qpstore32:
	PCHECK(0, K1)
	PCHECK(8, K2)
	KORW     K1, K2, K1
	PCHECK(16, K2)
	KORW     K1, K2, K1
	PCHECK(24, K2)
	KORTESTW K1, K2
	JNZ      bail
	PSTORE32(0, Y0)
	PSTORE32(8, Y20)
	PSTORE32(16, Y21)
	PSTORE32(24, Y22)
	NEXT(32, group32)

out:
bail:
	MOVQ AX, ret+120(FP)
	VZEROUPPER
	RET

// func cpuHasAVX512() (fvl, dq bool)
//
// AVX-512F with AVX-512VL (fvl) and with AVX-512DQ (dq) in CPUID leaf
// 7, each only when the OS saves the opmask and ZMM state (XCR0 bits
// 1, 2, 5, 6, 7) through XSAVE.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-2
	MOVB $0, fvl+0(FP)
	MOVB $0, dq+1(FP)
	XORL CX, CX
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX // OSXSAVE
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX // AVX512F
	JCC  no
	BTL  $17, BX // AVX512DQ
	SETCS dq+1(FP)
	BTL  $31, BX // AVX512VL
	SETCS fvl+0(FP)

no:
	RET

#include "textflag.h"

// CG's vector passes, four float64 lanes at a time in 256-bit VEX
// registers. Each lane computes the scalar Go expression of its
// element with the same roundings: mul and add stay separate (no FMA),
// and −α arrives negated by Go, as the scalar loop's na is, so α = +0
// multiplies ap by −0 on both paths. update4 forms the four squares of
// the new r in one VMULPD and adds them to the running rᵀr one lane at
// a time, in index order, so the sum is the scalar chain. No 512-bit
// register is used: with one in flight the scalar add chain runs
// slower, and the chain is the pass's floor. Only VEX instructions run
// before the closing VZEROUPPER, so no SSE/AVX transition is paid.
// Register use:
//
//	DI  &x[i]   SI  &r[i]   DX  &p[i]   BX  &ap[i]   CX  groups left
//	Y14 α or β in every lane            Y15 −α in every lane
//	X0  the running rᵀr                 Y1-Y4 temporaries

// func update4(x, r, p, ap *float64, groups int, alpha, na float64) float64
TEXT ·update4(SB), NOSPLIT, $0-64
	MOVQ         x+0(FP), DI
	MOVQ         r+8(FP), SI
	MOVQ         p+16(FP), DX
	MOVQ         ap+24(FP), BX
	MOVQ         groups+32(FP), CX
	VBROADCASTSD alpha+40(FP), Y14
	VBROADCASTSD na+48(FP), Y15
	VXORPD       X0, X0, X0
	TESTQ        CX, CX
	JLE          udone

uloop:
	VMULPD       (DX), Y14, Y1 // α·p
	VADDPD       (DI), Y1, Y1  // x + α·p
	VMOVUPD      Y1, (DI)
	VMULPD       (BX), Y15, Y2 // −α·ap
	VADDPD       (SI), Y2, Y2  // r + −α·ap
	VMOVUPD      Y2, (SI)
	VMULPD       Y2, Y2, Y3    // the four squares of the new r
	VADDSD       X3, X0, X0    // lane 0
	VPERMILPD    $1, X3, X4
	VADDSD       X4, X0, X0    // lane 1
	VEXTRACTF128 $1, Y3, X3
	VADDSD       X3, X0, X0    // lane 2
	VPERMILPD    $1, X3, X4
	VADDSD       X4, X0, X0    // lane 3
	ADDQ         $32, DI
	ADDQ         $32, SI
	ADDQ         $32, DX
	ADDQ         $32, BX
	DECQ         CX
	JNZ          uloop

udone:
	VMOVSD X0, ret+56(FP)
	VZEROUPPER
	RET

// func direction4(p, r *float64, groups int, beta float64)
TEXT ·direction4(SB), NOSPLIT, $0-32
	MOVQ         p+0(FP), DI
	MOVQ         r+8(FP), SI
	MOVQ         groups+16(FP), CX
	VBROADCASTSD beta+24(FP), Y14
	TESTQ        CX, CX
	JLE          ddone

dloop:
	VMULPD  (DI), Y14, Y1 // β·p
	VADDPD  (SI), Y1, Y1  // r + β·p
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     dloop

ddone:
	VZEROUPPER
	RET

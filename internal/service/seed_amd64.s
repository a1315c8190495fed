#include "textflag.h"

// seedFill8 runs seedAt eight lanes at a time. A lane holds the
// element's original index i and computes the scalar Go steps in
// order: z = i·γ + (seed+γ), which is seed + (i+1)·γ modulo 2⁶⁴, the
// three xorshift-multiply rounds (VPMULLQ keeps the low 64 bits, as Go
// does), z>>11 converted to float64 (exact below 2⁵³, as the scalar
// int64 conversion is), times 2⁻⁵³ (exact, as the scalar division by
// 2⁵³ is) and plus 0.5 (one rounding, the scalar one). So every lane
// holds the scalar bits. Register use:
//
//	DI  &x[j]           SI  &perm[j], or 0 for the identity
//	CX  groups left     Z1  the lanes' indices (identity loop)
//	Z0  the lanes' z    Z2  temporary
//	Z20 γ   Z21 seed+γ   Z22, Z23 the mixing multipliers
//	Z24 2⁻⁵³   Z25 0.5   Z26 8 in every lane

// SPLITMIX turns the indices in Z0 into the fill values.
#define SPLITMIX \
	VPMULLQ Z20, Z0, Z0; \
	VPADDQ  Z21, Z0, Z0; \
	VPSRLQ  $30, Z0, Z2; \
	VPXORQ  Z2, Z0, Z0; \
	VPMULLQ Z22, Z0, Z0; \
	VPSRLQ  $27, Z0, Z2; \
	VPXORQ  Z2, Z0, Z0; \
	VPMULLQ Z23, Z0, Z0; \
	VPSRLQ  $31, Z0, Z2; \
	VPXORQ  Z2, Z0, Z0; \
	VPSRLQ  $11, Z0, Z0; \
	VCVTQQ2PD Z0, Z0; \
	VMULPD  Z24, Z0, Z0; \
	VADDPD  Z25, Z0, Z0

DATA seedLanes<>+0(SB)/8, $0
DATA seedLanes<>+8(SB)/8, $1
DATA seedLanes<>+16(SB)/8, $2
DATA seedLanes<>+24(SB)/8, $3
DATA seedLanes<>+32(SB)/8, $4
DATA seedLanes<>+40(SB)/8, $5
DATA seedLanes<>+48(SB)/8, $6
DATA seedLanes<>+56(SB)/8, $7
GLOBL seedLanes<>(SB), RODATA|NOPTR, $64

// func seedFill8(x *float64, groups int, perm *int, seed uint64)
TEXT ·seedFill8(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ groups+8(FP), CX
	MOVQ perm+16(FP), SI
	MOVQ seed+24(FP), AX
	MOVQ $0x9e3779b97f4a7c15, DX
	VPBROADCASTQ DX, Z20
	ADDQ DX, AX
	VPBROADCASTQ AX, Z21
	MOVQ $0xbf58476d1ce4e5b9, DX
	VPBROADCASTQ DX, Z22
	MOVQ $0x94d049bb133111eb, DX
	VPBROADCASTQ DX, Z23
	MOVQ $0x3ca0000000000000, DX // 2⁻⁵³
	VPBROADCASTQ DX, Z24
	MOVQ $0x3fe0000000000000, DX // 0.5
	VPBROADCASTQ DX, Z25
	TESTQ CX, CX
	JLE   done
	TESTQ SI, SI
	JZ    identity

permuted:
	VMOVDQU64 (SI), Z0
	SPLITMIX
	VMOVUPD Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  permuted
	JMP  done

identity:
	VMOVDQU64 seedLanes<>(SB), Z1
	MOVQ $8, DX
	VPBROADCASTQ DX, Z26

identityLoop:
	VMOVDQA64 Z1, Z0
	SPLITMIX
	VMOVUPD Z0, (DI)
	VPADDQ Z26, Z1, Z1
	ADDQ $64, DI
	DECQ CX
	JNZ  identityLoop

done:
	VZEROUPPER
	RET

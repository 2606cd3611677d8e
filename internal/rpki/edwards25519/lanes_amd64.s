//go:build amd64 && !purego

#include "textflag.h"

// The eight-lane point kernel. A lane state (laneState in lanes_amd64.go)
// holds eight field elements per coordinate, limb-major: 64 bytes are
// one radix-2⁵¹ limb of each of the eight lanes, 320 bytes one element.
// R8 points at the state; the macros name its elements by offset.
//
// A product uses VPMADD52LUQ/HUQ, which multiply the low 52 bits of each
// operand and split the 104-bit product at bit 52: with limbs in radix
// 2⁵¹, the high half of column i+j weighs twice as much in column
// i+j+1, and columns 5 to 9 fold into 0 to 4 times 19. Every limb that
// feeds a product is below 2⁵², so the instructions see all its bits:
// each product and each sum or difference a product reads is carried.

#define X 0
#define Y 320
#define Z 640
#define T 960
#define QYP 1280
#define QYM 1600
#define QT2D 1920
#define T0 2240
#define T1 2560
#define T2 2880
#define T3 3200
#define T4 3520
#define T5 3840
#define T6 4160
#define T7 4480

// CONSTS sets Z31 = 2⁵¹−1, Z30 = 19 and Z29, Z28 = the limbs of 2p
// (limb 0, limbs 1–4), as upstream's Subtract adds them.
#define CONSTS \
	MOVQ         $0x7ffffffffffff, AX; \
	VPBROADCASTQ AX, Z31; \
	MOVQ         $19, AX; \
	VPBROADCASTQ AX, Z30; \
	MOVQ         $0xfffffffffffda, AX; \
	VPBROADCASTQ AX, Z29; \
	MOVQ         $0xffffffffffffe, AX; \
	VPBROADCASTQ AX, Z28

// LOAD and STORE move the element at offset o to or from Z0–Z4.
#define LOAD(o) \
	VMOVDQU64 o+0(R8), Z0; \
	VMOVDQU64 o+64(R8), Z1; \
	VMOVDQU64 o+128(R8), Z2; \
	VMOVDQU64 o+192(R8), Z3; \
	VMOVDQU64 o+256(R8), Z4

#define STORE(o) \
	VMOVDQU64 Z0, o+0(R8); \
	VMOVDQU64 Z1, o+64(R8); \
	VMOVDQU64 Z2, o+128(R8); \
	VMOVDQU64 Z3, o+192(R8); \
	VMOVDQU64 Z4, o+256(R8)

// CARRY brings limbs r0–r4 from below 2⁶³ to below 2⁵¹ + 2¹⁷, as
// upstream's carryPropagate does, using c0–c4 as scratch.
#define CARRY(r0, r1, r2, r3, r4, c0, c1, c2, c3, c4) \
	VPSRLQ      $51, r0, c0; \
	VPSRLQ      $51, r1, c1; \
	VPSRLQ      $51, r2, c2; \
	VPSRLQ      $51, r3, c3; \
	VPSRLQ      $51, r4, c4; \
	VPANDQ      Z31, r0, r0; \
	VPANDQ      Z31, r1, r1; \
	VPANDQ      Z31, r2, r2; \
	VPANDQ      Z31, r3, r3; \
	VPANDQ      Z31, r4, r4; \
	VPADDQ      c0, r1, r1; \
	VPADDQ      c1, r2, r2; \
	VPADDQ      c2, r3, r3; \
	VPADDQ      c3, r4, r4; \
	VPMADD52LUQ Z30, c4, r0

// ADD sets c = a + b and SUB sets c = a − b, carried.
#define ADD(a, b, c) \
	LOAD(a); \
	VPADDQ b+0(R8), Z0, Z0; \
	VPADDQ b+64(R8), Z1, Z1; \
	VPADDQ b+128(R8), Z2, Z2; \
	VPADDQ b+192(R8), Z3, Z3; \
	VPADDQ b+256(R8), Z4, Z4; \
	CARRY(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9); \
	STORE(c)

#define SUB(a, b, c) \
	LOAD(a); \
	VPADDQ Z29, Z0, Z0; \
	VPADDQ Z28, Z1, Z1; \
	VPADDQ Z28, Z2, Z2; \
	VPADDQ Z28, Z3, Z3; \
	VPADDQ Z28, Z4, Z4; \
	VPSUBQ b+0(R8), Z0, Z0; \
	VPSUBQ b+64(R8), Z1, Z1; \
	VPSUBQ b+128(R8), Z2, Z2; \
	VPSUBQ b+192(R8), Z3, Z3; \
	VPSUBQ b+256(R8), Z4, Z4; \
	CARRY(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9); \
	STORE(c)

// FOLD19 sets r += 19·y, and doubles y, using s as scratch.
#define FOLD19(r, y, s) \
	VPSLLQ $4, y, s; \
	VPADDQ s, r, r; \
	VPADDQ y, r, r; \
	VPADDQ y, y, y; \
	VPADDQ y, r, r

// MUL sets c = a·b. Z5–Z13 gather the low halves of columns 0–8 and
// Z14–Z22 the high halves, each below 5·2⁵²; a column sum below 15·2⁵²
// plus 19 times one, below 2⁶¹, is what CARRY starts from.
#define MUL(a, b, c) \
	LOAD(a); \
	VPXORQ      Z5, Z5, Z5; \
	VPXORQ      Z6, Z6, Z6; \
	VPXORQ      Z7, Z7, Z7; \
	VPXORQ      Z8, Z8, Z8; \
	VPXORQ      Z9, Z9, Z9; \
	VPXORQ      Z10, Z10, Z10; \
	VPXORQ      Z11, Z11, Z11; \
	VPXORQ      Z12, Z12, Z12; \
	VPXORQ      Z13, Z13, Z13; \
	VPXORQ      Z14, Z14, Z14; \
	VPXORQ      Z15, Z15, Z15; \
	VPXORQ      Z16, Z16, Z16; \
	VPXORQ      Z17, Z17, Z17; \
	VPXORQ      Z18, Z18, Z18; \
	VPXORQ      Z19, Z19, Z19; \
	VPXORQ      Z20, Z20, Z20; \
	VPXORQ      Z21, Z21, Z21; \
	VPXORQ      Z22, Z22, Z22; \
	VPMADD52LUQ b+0(R8), Z0, Z5; \
	VPMADD52HUQ b+0(R8), Z0, Z14; \
	VPMADD52LUQ b+0(R8), Z1, Z6; \
	VPMADD52HUQ b+0(R8), Z1, Z15; \
	VPMADD52LUQ b+0(R8), Z2, Z7; \
	VPMADD52HUQ b+0(R8), Z2, Z16; \
	VPMADD52LUQ b+0(R8), Z3, Z8; \
	VPMADD52HUQ b+0(R8), Z3, Z17; \
	VPMADD52LUQ b+0(R8), Z4, Z9; \
	VPMADD52HUQ b+0(R8), Z4, Z18; \
	VPMADD52LUQ b+64(R8), Z0, Z6; \
	VPMADD52HUQ b+64(R8), Z0, Z15; \
	VPMADD52LUQ b+64(R8), Z1, Z7; \
	VPMADD52HUQ b+64(R8), Z1, Z16; \
	VPMADD52LUQ b+64(R8), Z2, Z8; \
	VPMADD52HUQ b+64(R8), Z2, Z17; \
	VPMADD52LUQ b+64(R8), Z3, Z9; \
	VPMADD52HUQ b+64(R8), Z3, Z18; \
	VPMADD52LUQ b+64(R8), Z4, Z10; \
	VPMADD52HUQ b+64(R8), Z4, Z19; \
	VPMADD52LUQ b+128(R8), Z0, Z7; \
	VPMADD52HUQ b+128(R8), Z0, Z16; \
	VPMADD52LUQ b+128(R8), Z1, Z8; \
	VPMADD52HUQ b+128(R8), Z1, Z17; \
	VPMADD52LUQ b+128(R8), Z2, Z9; \
	VPMADD52HUQ b+128(R8), Z2, Z18; \
	VPMADD52LUQ b+128(R8), Z3, Z10; \
	VPMADD52HUQ b+128(R8), Z3, Z19; \
	VPMADD52LUQ b+128(R8), Z4, Z11; \
	VPMADD52HUQ b+128(R8), Z4, Z20; \
	VPMADD52LUQ b+192(R8), Z0, Z8; \
	VPMADD52HUQ b+192(R8), Z0, Z17; \
	VPMADD52LUQ b+192(R8), Z1, Z9; \
	VPMADD52HUQ b+192(R8), Z1, Z18; \
	VPMADD52LUQ b+192(R8), Z2, Z10; \
	VPMADD52HUQ b+192(R8), Z2, Z19; \
	VPMADD52LUQ b+192(R8), Z3, Z11; \
	VPMADD52HUQ b+192(R8), Z3, Z20; \
	VPMADD52LUQ b+192(R8), Z4, Z12; \
	VPMADD52HUQ b+192(R8), Z4, Z21; \
	VPMADD52LUQ b+256(R8), Z0, Z9; \
	VPMADD52HUQ b+256(R8), Z0, Z18; \
	VPMADD52LUQ b+256(R8), Z1, Z10; \
	VPMADD52HUQ b+256(R8), Z1, Z19; \
	VPMADD52LUQ b+256(R8), Z2, Z11; \
	VPMADD52HUQ b+256(R8), Z2, Z20; \
	VPMADD52LUQ b+256(R8), Z3, Z12; \
	VPMADD52HUQ b+256(R8), Z3, Z21; \
	VPMADD52LUQ b+256(R8), Z4, Z13; \
	VPMADD52HUQ b+256(R8), Z4, Z22; \
	VPADDQ      Z14, Z14, Z14; \
	VPADDQ      Z15, Z15, Z15; \
	VPADDQ      Z16, Z16, Z16; \
	VPADDQ      Z17, Z17, Z17; \
	VPADDQ      Z18, Z18, Z18; \
	VPADDQ      Z19, Z19, Z19; \
	VPADDQ      Z20, Z20, Z20; \
	VPADDQ      Z21, Z21, Z21; \
	VPADDQ      Z22, Z22, Z22; \
	VPADDQ      Z14, Z6, Z6; \
	VPADDQ      Z15, Z7, Z7; \
	VPADDQ      Z16, Z8, Z8; \
	VPADDQ      Z17, Z9, Z9; \
	VPADDQ      Z18, Z10, Z10; \
	VPADDQ      Z19, Z11, Z11; \
	VPADDQ      Z20, Z12, Z12; \
	VPADDQ      Z21, Z13, Z13; \
	FOLD19(Z5, Z10, Z14); \
	FOLD19(Z6, Z11, Z15); \
	FOLD19(Z7, Z12, Z16); \
	FOLD19(Z8, Z13, Z17); \
	FOLD19(Z9, Z22, Z18); \
	CARRY(Z5, Z6, Z7, Z8, Z9, Z14, Z15, Z16, Z17, Z18); \
	VMOVDQU64   Z5, c+0(R8); \
	VMOVDQU64   Z6, c+64(R8); \
	VMOVDQU64   Z7, c+128(R8); \
	VMOVDQU64   Z8, c+192(R8); \
	VMOVDQU64   Z9, c+256(R8)

// GATHER loads limbs i of lanes' entries into z, the entry addresses in
// Z27 and AX zero.
#define GATHER(i, z) \
	KXNORW     K2, K2, K2; \
	VPGATHERQQ 8*i(AX)(Z27*1), K2, z

// func laneAdd(s *laneState, q *[8]*affineCached, neg uint64)
//
// laneAdd sets the sum (X, Y, Z, T) to sum + q[l] in each lane l, or to
// sum − q[l] where bit l of neg is set: AddAffine or SubAffine, then
// fromP1xP1. It first gathers the entries into QYP, QYM and QT2D, with
// YplusX and YminusX swapped in the negated lanes.
TEXT ·laneAdd(SB), NOSPLIT, $0-24
	MOVQ      s+0(FP), R8
	MOVQ      q+8(FP), BX
	MOVQ      neg+16(FP), AX
	KMOVW     AX, K1
	VMOVDQU64 (BX), Z27
	XORQ      AX, AX
	GATHER(0, Z0)
	GATHER(1, Z1)
	GATHER(2, Z2)
	GATHER(3, Z3)
	GATHER(4, Z4)
	GATHER(5, Z5)
	GATHER(6, Z6)
	GATHER(7, Z7)
	GATHER(8, Z8)
	GATHER(9, Z9)
	GATHER(10, Z10)
	GATHER(11, Z11)
	GATHER(12, Z12)
	GATHER(13, Z13)
	GATHER(14, Z14)
	VPBLENDMQ Z5, Z0, K1, Z15
	VPBLENDMQ Z6, Z1, K1, Z16
	VPBLENDMQ Z7, Z2, K1, Z17
	VPBLENDMQ Z8, Z3, K1, Z18
	VPBLENDMQ Z9, Z4, K1, Z19
	VPBLENDMQ Z0, Z5, K1, Z20
	VPBLENDMQ Z1, Z6, K1, Z21
	VPBLENDMQ Z2, Z7, K1, Z22
	VPBLENDMQ Z3, Z8, K1, Z23
	VPBLENDMQ Z4, Z9, K1, Z24
	VMOVDQU64 Z15, QYP+0(R8)
	VMOVDQU64 Z16, QYP+64(R8)
	VMOVDQU64 Z17, QYP+128(R8)
	VMOVDQU64 Z18, QYP+192(R8)
	VMOVDQU64 Z19, QYP+256(R8)
	VMOVDQU64 Z20, QYM+0(R8)
	VMOVDQU64 Z21, QYM+64(R8)
	VMOVDQU64 Z22, QYM+128(R8)
	VMOVDQU64 Z23, QYM+192(R8)
	VMOVDQU64 Z24, QYM+256(R8)
	VMOVDQU64 Z10, QT2D+0(R8)
	VMOVDQU64 Z11, QT2D+64(R8)
	VMOVDQU64 Z12, QT2D+128(R8)
	VMOVDQU64 Z13, QT2D+192(R8)
	VMOVDQU64 Z14, QT2D+256(R8)
	CONSTS
	ADD(Y, X, T0)
	SUB(Y, X, T1)
	MUL(T0, QYP, T2)
	MUL(T1, QYM, T3)
	MUL(T, QT2D, T4)
	SUB(T2, T3, T0)
	ADD(T2, T3, T1)

	// Z2 = 2Z; Z2 + TT2d in Z5–Z9, Z2 − TT2d in Z10–Z14. The new Z is
	// the sum where neg is clear and the difference where it is set,
	// the new T the other.
	LOAD(Z)
	VPADDQ Z0, Z0, Z0
	VPADDQ Z1, Z1, Z1
	VPADDQ Z2, Z2, Z2
	VPADDQ Z3, Z3, Z3
	VPADDQ Z4, Z4, Z4
	VPADDQ T4+0(R8), Z0, Z5
	VPADDQ T4+64(R8), Z1, Z6
	VPADDQ T4+128(R8), Z2, Z7
	VPADDQ T4+192(R8), Z3, Z8
	VPADDQ T4+256(R8), Z4, Z9
	VPADDQ Z29, Z0, Z10
	VPADDQ Z28, Z1, Z11
	VPADDQ Z28, Z2, Z12
	VPADDQ Z28, Z3, Z13
	VPADDQ Z28, Z4, Z14
	VPSUBQ T4+0(R8), Z10, Z10
	VPSUBQ T4+64(R8), Z11, Z11
	VPSUBQ T4+128(R8), Z12, Z12
	VPSUBQ T4+192(R8), Z13, Z13
	VPSUBQ T4+256(R8), Z14, Z14
	CARRY(Z5, Z6, Z7, Z8, Z9, Z15, Z16, Z17, Z18, Z19)
	CARRY(Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)
	VPBLENDMQ Z10, Z5, K1, Z0
	VPBLENDMQ Z11, Z6, K1, Z1
	VPBLENDMQ Z12, Z7, K1, Z2
	VPBLENDMQ Z13, Z8, K1, Z3
	VPBLENDMQ Z14, Z9, K1, Z4
	STORE(T2)
	VPBLENDMQ Z5, Z10, K1, Z0
	VPBLENDMQ Z6, Z11, K1, Z1
	VPBLENDMQ Z7, Z12, K1, Z2
	VPBLENDMQ Z8, Z13, K1, Z3
	VPBLENDMQ Z9, Z14, K1, Z4
	STORE(T3)

	MUL(T0, T3, X)
	MUL(T1, T2, Y)
	MUL(T2, T3, Z)
	MUL(T0, T1, T)
	VZEROUPPER
	RET

// func laneDouble(s *laneState)
//
// laneDouble sets the sum to twice itself in each lane: Double on its
// projP2 part, then fromP1xP1.
TEXT ·laneDouble(SB), NOSPLIT, $0-8
	MOVQ s+0(FP), R8
	CONSTS
	MUL(X, X, T0)
	MUL(Y, Y, T1)
	MUL(Z, Z, T2)
	ADD(X, Y, T3)
	MUL(T3, T3, T3)
	ADD(T1, T0, T4)
	SUB(T1, T0, T5)
	SUB(T3, T4, T6)

	// T7 = 2·ZZ − (YY − XX)
	LOAD(T2)
	VPADDQ Z0, Z0, Z0
	VPADDQ Z1, Z1, Z1
	VPADDQ Z2, Z2, Z2
	VPADDQ Z3, Z3, Z3
	VPADDQ Z4, Z4, Z4
	VPADDQ Z29, Z0, Z0
	VPADDQ Z28, Z1, Z1
	VPADDQ Z28, Z2, Z2
	VPADDQ Z28, Z3, Z3
	VPADDQ Z28, Z4, Z4
	VPSUBQ T5+0(R8), Z0, Z0
	VPSUBQ T5+64(R8), Z1, Z1
	VPSUBQ T5+128(R8), Z2, Z2
	VPSUBQ T5+192(R8), Z3, Z3
	VPSUBQ T5+256(R8), Z4, Z4
	CARRY(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9)
	STORE(T7)

	MUL(T6, T7, X)
	MUL(T4, T5, Y)
	MUL(T5, T7, Z)
	MUL(T6, T4, T)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (lo uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, lo+0(FP)
	RET

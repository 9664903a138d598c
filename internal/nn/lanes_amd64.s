#include "textflag.h"
#include "go_asm.h"

// The lane kernels: one 4×4 register tile for every matrix product and a
// four-lane replay of math.Exp. lanes.go states their contract; every
// instruction here is the packed form of the scalar one it stands for.

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

// func xgetbv() (lo, hi uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET

// The tile's inner step for one of the four rows: xa is the row's
// broadcast operand, x and m scratch registers, acc the row's four running
// sums, Y4 the step's lane operand, Y5 its lane mask (y != 0), Y10 zero and
// Y11 the scale; an S reads x·scale. SKIP keeps acc where the mask is clear
// with VBLENDVPD, so a skipped term leaves the old sum exactly as it was.
// The four step forms are the four the kernels use (lanes.go's flags).
#define PLAIN(xa, x, acc) VBROADCASTSD xa, x; VMULPD Y4, x, x; VADDPD x, acc, acc
#define PLAINS(xa, x, acc) VBROADCASTSD xa, x; VMULPD Y11, x, x; VMULPD Y4, x, x; VADDPD x, acc, acc
#define SKIPX(xa, x, m, acc) VBROADCASTSD xa, x; VCMPPD $4, Y10, x, m; VMULPD Y4, x, x; VADDPD x, acc, x; VBLENDVPD m, x, acc, acc
#define SKIPYS(xa, x, acc) VBROADCASTSD xa, x; VMULPD Y11, x, x; VMULPD Y4, x, x; VADDPD x, acc, x; VBLENDVPD Y5, x, acc, acc

// The end of a step: advance the two x pointers (rows 0–1 and 2–3) and
// the y pointer, count the step down.
#define NEXT ADDQ R10, R12; ADDQ R10, R14; ADDQ R11, R13; DECQ CX

// func tile4(out, x, y, bias *float64, rows, cols, steps, outRow, xRow, xStep, yStep int, scale float64, flags int)
//
// Registers: AX rows left, BX column, CX steps left, DX y, SI x of the row
// tile, DI out of the row tile, R8–R11 the four strides in bytes, R12/R14
// the x rows of a step (R12 and R12+xRow, R14 and R14+xRow), R13 y of a
// step; Y0–Y3 the sums of rows 0–3.
TEXT ·tile4(SB), NOSPLIT, $0-104
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ rows+32(FP), AX
	MOVQ outRow+56(FP), R8
	SHLQ $3, R8
	MOVQ xRow+64(FP), R9
	SHLQ $3, R9
	MOVQ xStep+72(FP), R10
	SHLQ $3, R10
	MOVQ yStep+80(FP), R11
	SHLQ $3, R11
	VBROADCASTSD scale+88(FP), Y11
	VXORPD Y10, Y10, Y10

rowTile:
	XORQ BX, BX

colGroup:
	// Start each row's sums from +0, or from out.
	LEAQ (DI)(BX*8), R12
	LEAQ (R12)(R8*2), R14
	MOVQ flags+96(FP), CX
	TESTQ $const_tileFromOut, CX
	JZ   fromZero
	VMOVUPD (R12), Y0
	VMOVUPD (R12)(R8*1), Y1
	VMOVUPD (R14), Y2
	VMOVUPD (R14)(R8*1), Y3
	JMP  steps

fromZero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

steps:
	MOVQ SI, R12
	LEAQ (SI)(R9*2), R14
	LEAQ (DX)(BX*8), R13
	TESTQ $const_tileSkipX, CX
	JNZ  skipX
	TESTQ $const_tileSkipY, CX
	JNZ  skipY
	TESTQ $const_tileScaleX, CX
	MOVQ steps+48(FP), CX
	JNZ  plainScaled

plain:
	VMOVUPD (R13), Y4
	PLAIN((R12), Y6, Y0)
	PLAIN((R12)(R9*1), Y7, Y1)
	PLAIN((R14), Y8, Y2)
	PLAIN((R14)(R9*1), Y9, Y3)
	NEXT
	JNZ  plain
	JMP  sums

plainScaled:
	VMOVUPD (R13), Y4
	PLAINS((R12), Y6, Y0)
	PLAINS((R12)(R9*1), Y7, Y1)
	PLAINS((R14), Y8, Y2)
	PLAINS((R14)(R9*1), Y9, Y3)
	NEXT
	JNZ  plainScaled
	JMP  sums

skipX:
	MOVQ steps+48(FP), CX

skipXLoop:
	VMOVUPD (R13), Y4
	SKIPX((R12), Y6, Y12, Y0)
	SKIPX((R12)(R9*1), Y7, Y13, Y1)
	SKIPX((R14), Y8, Y14, Y2)
	SKIPX((R14)(R9*1), Y9, Y15, Y3)
	NEXT
	JNZ  skipXLoop
	JMP  sums

skipY:
	MOVQ steps+48(FP), CX

skipYLoop:
	VMOVUPD (R13), Y4
	VCMPPD  $4, Y10, Y4, Y5
	SKIPYS((R12), Y6, Y0)
	SKIPYS((R12)(R9*1), Y7, Y1)
	SKIPYS((R14), Y8, Y2)
	SKIPYS((R14)(R9*1), Y9, Y3)
	NEXT
	JNZ  skipYLoop

sums:
	// sum + bias[c], then sum·scale, then store into out or add into it.
	MOVQ bias+24(FP), CX
	TESTQ CX, CX
	JZ   scaleSum
	VMOVUPD (CX)(BX*8), Y4
	VADDPD Y4, Y0, Y0
	VADDPD Y4, Y1, Y1
	VADDPD Y4, Y2, Y2
	VADDPD Y4, Y3, Y3

scaleSum:
	MOVQ flags+96(FP), CX
	TESTQ $const_tileScaleSum, CX
	JZ   write
	VMULPD Y11, Y0, Y0
	VMULPD Y11, Y1, Y1
	VMULPD Y11, Y2, Y2
	VMULPD Y11, Y3, Y3

write:
	LEAQ (DI)(BX*8), R12
	LEAQ (R12)(R8*2), R14
	TESTQ $const_tileAddInto, CX
	JZ   store
	VADDPD (R12), Y0, Y0
	VADDPD (R12)(R8*1), Y1, Y1
	VADDPD (R14), Y2, Y2
	VADDPD (R14)(R8*1), Y3, Y3

store:
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, (R12)(R8*1)
	VMOVUPD Y2, (R14)
	VMOVUPD Y3, (R14)(R8*1)

	ADDQ $4, BX
	CMPQ BX, cols+40(FP)
	JLT  colGroup

	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R9*4), SI
	SUBQ $4, AX
	JNZ  rowTile
	VZEROUPPER
	RET

// exp4's constants, each in four lanes: the avxfma branch's reduction and
// Taylor coefficients (math/exp_amd64.s, same literals), the exponent range
// whose results that branch scales as normal numbers, and the exponent bias.
#define LANES4(off, v) DATA exp4data<>+off(SB)/8, v; DATA exp4data<>+off+8(SB)/8, v; DATA exp4data<>+off+16(SB)/8, v; DATA exp4data<>+off+24(SB)/8, v

LANES4(0, $1.4426950408889634073599246810018920)
LANES4(32, $0.69314718055966295651160180568695068359375)
LANES4(64, $0.28235290563031577122588448175013436025525412068e-12)
LANES4(96, $0.0625)
LANES4(128, $2.4801587301587301587e-5)
LANES4(160, $1.9841269841269841270e-4)
LANES4(192, $1.3888888888888888889e-3)
LANES4(224, $8.3333333333333333333e-3)
LANES4(256, $4.1666666666666666667e-2)
LANES4(288, $1.6666666666666666667e-1)
LANES4(320, $0.5)
LANES4(352, $1.0)
LANES4(384, $2.0)
LANES4(416, $-1022.0)
LANES4(448, $1023.0)
LANES4(480, $1023)
GLOBL exp4data<>(SB), RODATA|NOPTR, $512

#define LOG2E exp4data<>+0(SB)
#define LN2U exp4data<>+32(SB)
#define LN2L exp4data<>+64(SB)
#define SIXTEENTH exp4data<>+96(SB)
#define C64 exp4data<>+128(SB)
#define C56 exp4data<>+160(SB)
#define C48 exp4data<>+192(SB)
#define C40 exp4data<>+224(SB)
#define C32 exp4data<>+256(SB)
#define C24 exp4data<>+288(SB)
#define HALF exp4data<>+320(SB)
#define ONE exp4data<>+352(SB)
#define TWO exp4data<>+384(SB)
#define MINEXP exp4data<>+416(SB)
#define MAXEXP exp4data<>+448(SB)
#define BIAS exp4data<>+480(SB)

// func exp4(dst, src []float64, shift float64) int
TEXT ·exp4(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VBROADCASTSD shift+48(FP), Y15
	XORQ AX, AX

group:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  done
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y15, Y0, Y0

	// e = round(x·log2e), kept as four int32 in X2 and as doubles in Y1;
	// a non-finite x converts to the integer indefinite, far below MINEXP.
	VMULPD     LOG2E, Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1
	VCMPPD     $1, MINEXP, Y1, Y3
	VCMPPD     $14, MAXEXP, Y1, Y4
	VORPD      Y4, Y3, Y3
	VMOVMSKPD  Y3, R8
	TESTQ      R8, R8
	JNZ        done

	// x − e·ln2 in two fused steps, /16, the Taylor series in fused
	// Horner form, then four squarings of 1+r back up: (r(r+2)) per step,
	// the last one fused with the +1.
	VFNMADD231PD LN2U, Y1, Y0
	VFNMADD231PD LN2L, Y1, Y0
	VMULPD       SIXTEENTH, Y0, Y0
	VMOVUPD      C64, Y1
	VFMADD213PD  C56, Y0, Y1
	VFMADD213PD  C48, Y0, Y1
	VFMADD213PD  C40, Y0, Y1
	VFMADD213PD  C32, Y0, Y1
	VFMADD213PD  C24, Y0, Y1
	VFMADD213PD  HALF, Y0, Y1
	VFMADD213PD  ONE, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VFMADD213PD  ONE, Y1, Y0

	// ·2^e, built from the exponent's bits.
	VPMOVSXDQ X2, Y2
	VPADDQ    BIAS, Y2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	MOVQ      DX, AX
	JMP       group

done:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET

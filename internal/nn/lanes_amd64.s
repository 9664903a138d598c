#include "textflag.h"
#include "go_asm.h"

// The lane kernels: one 4×4 register tile for every matrix product, a
// four-lane replay of math.Exp, and the row lanes (softmax, layer norm, the
// narrow products, tanh). lanes.go states their contract; every instruction
// here is the packed form of the scalar one it stands for, and every one is
// VEX-encoded: a legacy-SSE instruction after a YMM write stalls on a state
// transition.

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

// EXPE starts exp of Y0's lanes: e = round(x·log2e), as four int32 in X2
// and as doubles in Y1; a non-finite x converts to the integer indefinite,
// far below MINEXP.
#define EXPE \
	VMULPD     LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD  X2, Y1

// EXPREST finishes Y0 = exp(x) from EXPE's e: x − e·ln2 in two fused
// steps, /16, the Taylor series in fused Horner form, then four squarings
// of 1+r back up — (r(r+2)) per step, the last one fused with the +1 — and
// ·2^e, built from the exponent's bits.
#define EXPREST \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      C64, Y1; \
	VFMADD213PD  C56, Y0, Y1; \
	VFMADD213PD  C48, Y0, Y1; \
	VFMADD213PD  C40, Y0, Y1; \
	VFMADD213PD  C32, Y0, Y1; \
	VFMADD213PD  C24, Y0, Y1; \
	VFMADD213PD  HALF, Y0, Y1; \
	VFMADD213PD  ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VFMADD213PD  ONE, Y1, Y0; \
	VPMOVSXDQ    X2, Y2; \
	VPADDQ       BIAS, Y2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VMULPD       Y2, Y0, Y0

// func exp4(dst, src []float64, shift *[4]float64) int
TEXT ·exp4(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ shift+48(FP), AX
	VMOVUPD (AX), Y15
	XORQ AX, AX

group:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  expDone
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y15, Y0, Y0
	EXPE

	// Stop at a group with a lane whose e leaves the range [MINEXP,
	// MAXEXP] that math.Exp's avxfma branch scales as a normal number.
	VCMPPD    $1, MINEXP, Y1, Y3
	VCMPPD    $14, MAXEXP, Y1, Y4
	VORPD     Y4, Y3, Y3
	VMOVMSKPD Y3, R8
	TESTQ     R8, R8
	JNZ       expDone
	EXPREST
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     group

expDone:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET

// The row lanes. Four rows of a row-wise op are interleaved, element j of
// row r at p[4j+r], so that one register holds element j of all four and
// each lane runs its row's scalar loop: the same operations, in the same
// order, from the same start.

// func rowMax4(max *[4]float64, p []float64)
TEXT ·rowMax4(SB), NOSPLIT, $0-32
	MOVQ    max+0(FP), DI
	MOVQ    p_base+8(FP), SI
	MOVQ    p_len+16(FP), CX
	VMOVUPD (SI), Y0
	MOVQ    $4, AX

maxLoop:
	CMPQ      AX, CX
	JGE       maxDone
	// max = v where v > max (ordered: a NaN never replaces it).
	VMOVUPD   (SI)(AX*8), Y1
	VCMPPD    $0x1e, Y0, Y1, Y2
	VBLENDVPD Y2, Y1, Y0, Y0
	ADDQ      $4, AX
	JMP       maxLoop

maxDone:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func sumDivide4(p []float64)
TEXT ·sumDivide4(SB), NOSPLIT, $0-24
	MOVQ   p_base+0(FP), SI
	MOVQ   p_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

sumLoop:
	VADDPD (SI)(AX*8), Y0, Y0
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    sumLoop
	XORQ   AX, AX

divLoop:
	VMOVUPD (SI)(AX*8), Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     divLoop
	VZEROUPPER
	RET

// func softmaxBack4(d, o, g []float64)
TEXT ·softmaxBack4(SB), NOSPLIT, $0-72
	MOVQ   d_base+0(FP), DI
	MOVQ   o_base+24(FP), SI
	MOVQ   g_base+48(FP), DX
	MOVQ   g_len+56(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

dotLoop:
	VMOVUPD (DX)(AX*8), Y1
	VMULPD  (SI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     dotLoop
	XORQ    AX, AX

gradLoop:
	VMOVUPD (DX)(AX*8), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     gradLoop
	VZEROUPPER
	RET

// func layerNorm4(x, o []float64, gain, bias *float64, eps float64, invStd *[4]float64)
//
// Registers: Y0 mean, Y1 variance then 1/σ, Y3 the row length as a
// double, SI x (overwritten by x̂), DI o, R9 gain, R10 bias.
TEXT ·layerNorm4(SB), NOSPLIT, $0-80
	MOVQ     x_base+0(FP), SI
	MOVQ     x_len+8(FP), CX
	MOVQ     o_base+24(FP), DI
	MOVQ     gain+48(FP), R9
	MOVQ     bias+56(FP), R10
	MOVQ     CX, DX
	SHRQ     $2, DX
	VCVTSI2SDQ DX, X3, X3
	VBROADCASTSD X3, Y3

	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

meanLoop:
	VADDPD (SI)(AX*8), Y0, Y0
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    meanLoop
	VDIVPD Y3, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX

varLoop:
	VMOVUPD (SI)(AX*8), Y2
	VSUBPD  Y0, Y2, Y2
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y1, Y1
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     varLoop
	VDIVPD  Y3, Y1, Y1

	// 1/√(va+eps).
	VBROADCASTSD eps+64(FP), Y2
	VADDPD       Y2, Y1, Y1
	VSQRTPD      Y1, Y1
	VMOVUPD      ONE, Y2
	VDIVPD       Y1, Y2, Y1
	MOVQ         invStd+72(FP), DX
	VMOVUPD      Y1, (DX)
	XORQ         AX, AX

normLoop:
	VMOVUPD      (SI)(AX*8), Y2
	VSUBPD       Y0, Y2, Y2
	VMULPD       Y1, Y2, Y2
	VMOVUPD      Y2, (SI)(AX*8)
	VBROADCASTSD (R9), Y4
	VMULPD       Y2, Y4, Y4
	VBROADCASTSD (R10), Y5
	VADDPD       Y5, Y4, Y4
	VMOVUPD      Y4, (DI)(AX*8)
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $4, AX
	CMPQ         AX, CX
	JLT          normLoop
	VZEROUPPER
	RET

// func layerNormBack4(dx, g, h []float64, gain *float64, invStd *[4]float64)
//
// Registers: Y0 Σdh, Y1 Σdh·x̂, Y3 the row length as a double, Y6 1/σ,
// DI dx, SI x̂, DX g, R9 gain.
TEXT ·layerNormBack4(SB), NOSPLIT, $0-88
	MOVQ     dx_base+0(FP), DI
	MOVQ     g_base+24(FP), DX
	MOVQ     g_len+32(FP), CX
	MOVQ     h_base+48(FP), SI
	MOVQ     gain+72(FP), R9
	MOVQ     CX, R8
	SHRQ     $2, R8
	VCVTSI2SDQ R8, X3, X3
	VBROADCASTSD X3, Y3
	MOVQ     invStd+80(FP), R8
	VMOVUPD  (R8), Y6

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX

sumsLoop:
	// dh = g·gain[j], kept in dx; Σdh and Σdh·x̂ left to right.
	VBROADCASTSD (R9), Y4
	VMOVUPD      (DX)(AX*8), Y2
	VMULPD       Y4, Y2, Y2
	VMOVUPD      Y2, (DI)(AX*8)
	VADDPD       Y2, Y0, Y0
	VMULPD       (SI)(AX*8), Y2, Y2
	VADDPD       Y2, Y1, Y1
	ADDQ         $8, R9
	ADDQ         $4, AX
	CMPQ         AX, CX
	JLT          sumsLoop
	VDIVPD       Y3, Y0, Y4
	XORQ         AX, AX

dxLoop:
	// 1/σ · ((dh − Σdh/n) − (x̂·Σdh·x̂)/n), Σdh/n in Y4.
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y4, Y2, Y2
	VMOVUPD (SI)(AX*8), Y5
	VMULPD  Y1, Y5, Y5
	VDIVPD  Y3, Y5, Y5
	VSUBPD  Y5, Y2, Y2
	VMULPD  Y2, Y6, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     dxLoop
	VZEROUPPER
	RET

// func dot4(acc *[4]float64, x, y *float64, steps, xLane, xStep, yStep int)
//
// Registers: Y0 the four sums, SI x of a step (lane c at SI + c·xLane),
// DX y of a step, CX steps left, R8 xLane and R9 3·xLane, R10 xStep and
// R11 yStep, all in bytes; Y10 zero.
TEXT ·dot4(SB), NOSPLIT, $0-56
	MOVQ    acc+0(FP), DI
	VMOVUPD (DI), Y0
	MOVQ    x+8(FP), SI
	MOVQ    y+16(FP), DX
	MOVQ    steps+24(FP), CX
	MOVQ    xLane+32(FP), R8
	SHLQ    $3, R8
	LEAQ    (R8)(R8*2), R9
	MOVQ    xStep+40(FP), R10
	SHLQ    $3, R10
	MOVQ    yStep+48(FP), R11
	SHLQ    $3, R11
	VXORPD  Y10, Y10, Y10

dot4Loop:
	VMOVSD       (SI), X1
	VMOVHPD      (SI)(R8*1), X1, X1
	VMOVSD       (SI)(R8*2), X2
	VMOVHPD      (SI)(R9*1), X2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VCMPPD       $4, Y10, Y1, Y3
	VBROADCASTSD (DX), Y4
	VMULPD       Y4, Y1, Y1
	VADDPD       Y1, Y0, Y1
	VBLENDVPD    Y3, Y1, Y0, Y0
	ADDQ         R10, SI
	ADDQ         R11, DX
	DECQ         CX
	JNZ          dot4Loop
	VMOVUPD      Y0, (DI)
	VZEROUPPER
	RET

// tanh4's constants, in four lanes: math.tanh's regime bounds (0.5·MAXLOG
// and 0.625), its rational coefficients (math/tanh.go, same literals), and
// the sign bit and its complement.
#define TANH4(off, v) DATA tanh4data<>+off(SB)/8, v; DATA tanh4data<>+off+8(SB)/8, v; DATA tanh4data<>+off+16(SB)/8, v; DATA tanh4data<>+off+24(SB)/8, v

TANH4(0, $44.014845965556527147994)
TANH4(32, $0.625)
TANH4(64, $-9.64399179425052238628e-1)
TANH4(96, $-9.92877231001918586564e1)
TANH4(128, $-1.61468768441708447952e3)
TANH4(160, $1.12811678491632931402e2)
TANH4(192, $2.23548839060100448583e3)
TANH4(224, $4.84406305325125486048e3)
TANH4(256, $0x8000000000000000)
TANH4(288, $0x7fffffffffffffff)
GLOBL tanh4data<>(SB), RODATA|NOPTR, $320

#define TANHBIG tanh4data<>+0(SB)
#define TANHMID tanh4data<>+32(SB)
#define TANHP0 tanh4data<>+64(SB)
#define TANHP1 tanh4data<>+96(SB)
#define TANHP2 tanh4data<>+128(SB)
#define TANHQ0 tanh4data<>+160(SB)
#define TANHQ1 tanh4data<>+192(SB)
#define TANHQ2 tanh4data<>+224(SB)
#define SIGN tanh4data<>+256(SB)
#define ABS tanh4data<>+288(SB)

// func tanh4(dst, src []float64) int
//
// math.tanh (math/tanh.go, pure Go on amd64) four elements at a time: each
// lane computes the rational form and 1 − 2/(e^{2|x|}+1), each in the
// scalar order with no fused products, and keeps the one its regime
// returns: ±1 above 0.5·MAXLOG, the exponential form from 0.625 up, x
// itself at ±0, the rational form otherwise (NaN included). A lane off
// the exponential regime exponentiates 0 instead, so every exponent stays
// in exp4's range. It returns how many elements it wrote: len(src) &^ 3.
//
// Registers: Y8 x, Y9 |x|, Y10 x's sign, Y11 the exponential regime,
// Y12 the ±1 regime, Y13 x == 0, Y14 x², Y5–Y7 scratch.
TEXT ·tanh4(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  tanhDone

tanhGroup:
	VMOVUPD (SI)(AX*8), Y8
	VANDPD  ABS, Y8, Y9
	VANDPD  SIGN, Y8, Y10
	VCMPPD  $0x1e, TANHBIG, Y9, Y12
	VCMPPD  $0x1d, TANHMID, Y9, Y11
	VANDNPD Y11, Y12, Y11
	VXORPD  Y13, Y13, Y13
	VCMPPD  $0, Y13, Y8, Y13

	// s = exp(2|x|) on the exponential lanes, exp(0) on the rest;
	// 1 − 2/(s+1), negated where x < 0.
	VADDPD  Y9, Y9, Y0
	VANDPD  Y11, Y0, Y0
	EXPE
	EXPREST
	VADDPD  ONE, Y0, Y0
	VMOVUPD TWO, Y5
	VDIVPD  Y0, Y5, Y5
	VMOVUPD ONE, Y6
	VSUBPD  Y5, Y6, Y6
	VXORPD  Y10, Y6, Y6

	// x + x·s·((P0·s+P1)·s+P2) / (((s+Q0)·s+Q1)·s+Q2), s = x².
	VMULPD  Y8, Y8, Y14
	VMOVUPD TANHP0, Y5
	VMULPD  Y14, Y5, Y5
	VADDPD  TANHP1, Y5, Y5
	VMULPD  Y14, Y5, Y5
	VADDPD  TANHP2, Y5, Y5
	VADDPD  TANHQ0, Y14, Y7
	VMULPD  Y14, Y7, Y7
	VADDPD  TANHQ1, Y7, Y7
	VMULPD  Y14, Y7, Y7
	VADDPD  TANHQ2, Y7, Y7
	VMULPD  Y14, Y8, Y0
	VMULPD  Y5, Y0, Y0
	VDIVPD  Y7, Y0, Y0
	VADDPD  Y0, Y8, Y0

	VBLENDVPD Y11, Y6, Y0, Y0
	VORPD     ONE, Y10, Y5
	VBLENDVPD Y12, Y5, Y0, Y0
	VBLENDVPD Y13, Y8, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       tanhGroup

tanhDone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func tanhBack4(ga, g, y []float64) int
//
// ga[j] += g[j]·(1 − y[j]·y[j]), tanhBack's step, over the first len(g) &^ 3
// elements; it returns that count.
TEXT ·tanhBack4(SB), NOSPLIT, $0-80
	MOVQ    ga_base+0(FP), DI
	MOVQ    g_base+24(FP), SI
	MOVQ    g_len+32(FP), CX
	MOVQ    y_base+48(FP), DX
	ANDQ    $~3, CX
	VMOVUPD ONE, Y3
	XORQ    AX, AX
	CMPQ    AX, CX
	JGE     tanhBackDone

tanhBackLoop:
	VMOVUPD (DX)(AX*8), Y0
	VMULPD  Y0, Y0, Y0
	VSUBPD  Y0, Y3, Y0
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     tanhBackLoop

tanhBackDone:
	VZEROUPPER
	MOVQ AX, ret+72(FP)
	RET

// The row lanes' transposes between four rows (element j of row r at
// rows[r·stride + j]) and their interleaved groups (p[4j+r]). Blocks of four
// columns go through registers, a 4×4 transpose between four 32-byte loads
// and four 32-byte stores; the last one to three columns one group at a
// time. Every group is stored whole, so that a lane routine's load of it is
// forwarded from the store.
//
// Registers: DI p, SI row 0 at the current column, R8 the row stride and R9
// three of them in bytes, CX the columns left (len(p)/4 at the start).

// TRANSPOSE4 turns the four rows of four in Y0–Y3 into the four columns of
// four (and back); Y4–Y7 are scratch.
#define TRANSPOSE4 \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// LOADROWS and STOREROWS move four columns of the four rows; LOADGROUPS
// and STOREGROUPS four groups of p.
#define LOADROWS VMOVUPD (SI), Y0; VMOVUPD (SI)(R8*1), Y1; VMOVUPD (SI)(R8*2), Y2; VMOVUPD (SI)(R9*1), Y3
#define STOREROWS VMOVUPD Y0, (SI); VMOVUPD Y1, (SI)(R8*1); VMOVUPD Y2, (SI)(R8*2); VMOVUPD Y3, (SI)(R9*1)
#define LOADGROUPS VMOVUPD (DI), Y0; VMOVUPD 32(DI), Y1; VMOVUPD 64(DI), Y2; VMOVUPD 96(DI), Y3
#define STOREGROUPS VMOVUPD Y0, (DI); VMOVUPD Y1, 32(DI); VMOVUPD Y2, 64(DI); VMOVUPD Y3, 96(DI)

// GATHERCOL loads one column of the four rows into Y0 (X1 scratch);
// SCATTERCOL stores Y0 to one column (X1 scratch).
#define GATHERCOL \
	VMOVSD      (SI), X0; \
	VMOVHPD     (SI)(R8*1), X0, X0; \
	VMOVSD      (SI)(R8*2), X1; \
	VMOVHPD     (SI)(R9*1), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0
#define SCATTERCOL \
	VEXTRACTF128 $1, Y0, X1; \
	VMOVSD       X0, (SI); \
	VMOVHPD      X0, (SI)(R8*1); \
	VMOVSD       X1, (SI)(R8*2); \
	VMOVHPD      X1, (SI)(R9*1)

// func interleave4Rows(p []float64, rows *float64, stride int)
TEXT ·interleave4Rows(SB), NOSPLIT, $0-40
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	SHRQ $2, CX
	MOVQ rows+24(FP), SI
	MOVQ stride+32(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9

interleaveBlock:
	CMPQ CX, $4
	JLT  interleaveTail
	LOADROWS
	TRANSPOSE4
	STOREGROUPS
	ADDQ $32, SI
	ADDQ $128, DI
	SUBQ $4, CX
	JMP  interleaveBlock

interleaveTail:
	TESTQ CX, CX
	JZ    interleaveDone
	GATHERCOL
	VMOVUPD Y0, (DI)
	ADDQ  $8, SI
	ADDQ  $32, DI
	DECQ  CX
	JMP   interleaveTail

interleaveDone:
	VZEROUPPER
	RET

// func deinterleave4Rows(p []float64, rows *float64, stride int)
TEXT ·deinterleave4Rows(SB), NOSPLIT, $0-40
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	SHRQ $2, CX
	MOVQ rows+24(FP), SI
	MOVQ stride+32(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9

deinterleaveBlock:
	CMPQ CX, $4
	JLT  deinterleaveTail
	LOADGROUPS
	TRANSPOSE4
	STOREROWS
	ADDQ $32, SI
	ADDQ $128, DI
	SUBQ $4, CX
	JMP  deinterleaveBlock

deinterleaveTail:
	TESTQ   CX, CX
	JZ      deinterleaveDone
	VMOVUPD (DI), Y0
	SCATTERCOL
	ADDQ    $8, SI
	ADDQ    $32, DI
	DECQ    CX
	JMP     deinterleaveTail

deinterleaveDone:
	VZEROUPPER
	RET

// func addDeinterleave4Rows(p []float64, rows *float64, stride int)
//
// rows[r·stride + j] += p[4j+r]: each row element plus its lane's value,
// the row element first, as Go's += adds.
TEXT ·addDeinterleave4Rows(SB), NOSPLIT, $0-40
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	SHRQ $2, CX
	MOVQ rows+24(FP), SI
	MOVQ stride+32(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9

addBlock:
	CMPQ    CX, $4
	JLT     addTail
	LOADGROUPS
	TRANSPOSE4
	VMOVUPD (SI), Y4
	VADDPD  Y0, Y4, Y0
	VMOVUPD (SI)(R8*1), Y4
	VADDPD  Y1, Y4, Y1
	VMOVUPD (SI)(R8*2), Y4
	VADDPD  Y2, Y4, Y2
	VMOVUPD (SI)(R9*1), Y4
	VADDPD  Y3, Y4, Y3
	STOREROWS
	ADDQ    $32, SI
	ADDQ    $128, DI
	SUBQ    $4, CX
	JMP     addBlock

addTail:
	TESTQ   CX, CX
	JZ      addDone
	VMOVUPD (DI), Y2
	GATHERCOL
	VADDPD  Y2, Y0, Y0
	SCATTERCOL
	ADDQ    $8, SI
	ADDQ    $32, DI
	DECQ    CX
	JMP     addTail

addDone:
	VZEROUPPER
	RET

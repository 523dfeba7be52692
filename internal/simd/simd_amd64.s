//go:build amd64 && !noasm

// AVX2 / AVX-512 inner loops for the inference kernels. See simd.go
// for the bitwise-identity contract: float paths use separate VMULPS +
// VADDPS (never FMA) in the scalar reduction order; integer paths are
// exact.

#include "textflag.h"

// tileArgs field offsets (simd.go).
#define A_DST 0
#define A_BIAS 8
#define A_W 16
#define A_IN 24
#define A_PITCH 32
#define A_LANES 40
#define A_P 48
#define A_N 56
#define A_ROWS 64
#define A_PIX 72
#define A_INROW 80
#define A_WROW 88
// dwI8Args continues with a requantArgs at 96 and stepStride after it.
#define A_REQUANT 96
#define A_STEP 144

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// CONV_TILE is the body of all four conv tile kernels. It is written
// once for either vector width: V0-V13 alias the YMM or the ZMM
// registers and VB is their width in bytes, both defined before each
// instantiation (the assembler expands a macro body where it is used).
// The float32 and the paired-int16 reductions differ only in LOAD, BCAST
// and MAC (an input element and a packed pair are both 4 bytes, a weight
// row and a pair row both nf*4).
//
//	for each block of 2*VB/4 output lanes, then a last block of VB/4:
//	    for each 4 pixels of the run, then each remaining pixel:
//	        acc = bias[lanes]                      (8, 4, 2 or 1 registers)
//	        for r in rows: for j in n:
//	            acc[pixel] = ADD(acc[pixel], MUL(BCAST(in[pixel][r][j]), w[r][j][lanes]))
//	        dst[pixel][lanes] = acc
//
// so YMM takes blocks of 16 lanes and a last 8, ZMM blocks of 32 and a
// last 16. Lane blocks are outermost so one block's weights (n*2*VB
// bytes per row) stay in L1 across the pixels of the run. Float products
// and sums are separate instructions with the accumulator as the first
// source, as in the scalar `s += v * w`, at both widths.
//
// AX args, R10 output/weight-row pitch, R8 pixel stride, R9 3x pixel
// stride, R14 lane byte offset, R13 pixels left, DI output, R11 input
// of the current pixel group, R15/R12 input/weight row, BX/SI input/
// weight step, DX rows left, CX steps left.
#define CONV_TILE(LOAD, BCAST, MAC) \
	MOVQ A_PITCH(AX), R10; \
	MOVQ A_PIX(AX), R8; \
	LEAQ (R8)(R8*2), R9; \
	XORQ R14, R14; \
lanes2: \
	MOVQ A_LANES(AX), R15; \
	SHLQ $2, R15; \
	SUBQ R14, R15; \
	CMPQ R15, $(2*VB); \
	JLT  lanes1; \
	MOVQ A_P(AX), R13; \
	MOVQ A_DST(AX), DI; \
	ADDQ R14, DI; \
	MOVQ A_IN(AX), R11; \
px4x2: \
	CMPQ R13, $4; \
	JLT  px1x2; \
	MOVQ A_BIAS(AX), R15; \
	LOAD (R15)(R14*1), V0; \
	LOAD VB(R15)(R14*1), V1; \
	LOAD (R15)(R14*1), V2; \
	LOAD VB(R15)(R14*1), V3; \
	LOAD (R15)(R14*1), V4; \
	LOAD VB(R15)(R14*1), V5; \
	LOAD (R15)(R14*1), V6; \
	LOAD VB(R15)(R14*1), V7; \
	MOVQ A_W(AX), R12; \
	ADDQ R14, R12; \
	MOVQ R11, R15; \
	MOVQ A_ROWS(AX), DX; \
row4x2: \
	MOVQ R15, BX; \
	MOVQ R12, SI; \
	MOVQ A_N(AX), CX; \
mac4x2: \
	LOAD (SI), V8; \
	LOAD VB(SI), V9; \
	BCAST (BX), V10; \
	MAC(V8, V10, V11, V0); \
	MAC(V9, V10, V12, V1); \
	BCAST (BX)(R8*1), V13; \
	MAC(V8, V13, V11, V2); \
	MAC(V9, V13, V12, V3); \
	BCAST (BX)(R8*2), V10; \
	MAC(V8, V10, V11, V4); \
	MAC(V9, V10, V12, V5); \
	BCAST (BX)(R9*1), V13; \
	MAC(V8, V13, V11, V6); \
	MAC(V9, V13, V12, V7); \
	ADDQ $4, BX; \
	ADDQ R10, SI; \
	DECQ CX; \
	JNZ  mac4x2; \
	ADDQ A_INROW(AX), R15; \
	ADDQ A_WROW(AX), R12; \
	DECQ DX; \
	JNZ  row4x2; \
	LOAD V0, (DI); \
	LOAD V1, VB(DI); \
	ADDQ R10, DI; \
	LOAD V2, (DI); \
	LOAD V3, VB(DI); \
	ADDQ R10, DI; \
	LOAD V4, (DI); \
	LOAD V5, VB(DI); \
	ADDQ R10, DI; \
	LOAD V6, (DI); \
	LOAD V7, VB(DI); \
	ADDQ R10, DI; \
	LEAQ (R11)(R8*4), R11; \
	SUBQ $4, R13; \
	JMP  px4x2; \
px1x2: \
	TESTQ R13, R13; \
	JZ   next2; \
	MOVQ A_BIAS(AX), R15; \
	LOAD (R15)(R14*1), V0; \
	LOAD VB(R15)(R14*1), V1; \
	MOVQ A_W(AX), R12; \
	ADDQ R14, R12; \
	MOVQ R11, R15; \
	MOVQ A_ROWS(AX), DX; \
row1x2: \
	MOVQ R15, BX; \
	MOVQ R12, SI; \
	MOVQ A_N(AX), CX; \
mac1x2: \
	LOAD (SI), V8; \
	LOAD VB(SI), V9; \
	BCAST (BX), V10; \
	MAC(V8, V10, V11, V0); \
	MAC(V9, V10, V12, V1); \
	ADDQ $4, BX; \
	ADDQ R10, SI; \
	DECQ CX; \
	JNZ  mac1x2; \
	ADDQ A_INROW(AX), R15; \
	ADDQ A_WROW(AX), R12; \
	DECQ DX; \
	JNZ  row1x2; \
	LOAD V0, (DI); \
	LOAD V1, VB(DI); \
	ADDQ R10, DI; \
	ADDQ R8, R11; \
	DECQ R13; \
	JMP  px1x2; \
next2: \
	ADDQ $(2*VB), R14; \
	JMP  lanes2; \
lanes1: \
	CMPQ R15, $VB; \
	JLT  done; \
	MOVQ A_P(AX), R13; \
	MOVQ A_DST(AX), DI; \
	ADDQ R14, DI; \
	MOVQ A_IN(AX), R11; \
px4x1: \
	CMPQ R13, $4; \
	JLT  px1x1; \
	MOVQ A_BIAS(AX), R15; \
	LOAD (R15)(R14*1), V0; \
	LOAD (R15)(R14*1), V1; \
	LOAD (R15)(R14*1), V2; \
	LOAD (R15)(R14*1), V3; \
	MOVQ A_W(AX), R12; \
	ADDQ R14, R12; \
	MOVQ R11, R15; \
	MOVQ A_ROWS(AX), DX; \
row4x1: \
	MOVQ R15, BX; \
	MOVQ R12, SI; \
	MOVQ A_N(AX), CX; \
mac4x1: \
	LOAD (SI), V8; \
	BCAST (BX), V10; \
	MAC(V8, V10, V11, V0); \
	BCAST (BX)(R8*1), V13; \
	MAC(V8, V13, V12, V1); \
	BCAST (BX)(R8*2), V10; \
	MAC(V8, V10, V11, V2); \
	BCAST (BX)(R9*1), V13; \
	MAC(V8, V13, V12, V3); \
	ADDQ $4, BX; \
	ADDQ R10, SI; \
	DECQ CX; \
	JNZ  mac4x1; \
	ADDQ A_INROW(AX), R15; \
	ADDQ A_WROW(AX), R12; \
	DECQ DX; \
	JNZ  row4x1; \
	LOAD V0, (DI); \
	ADDQ R10, DI; \
	LOAD V1, (DI); \
	ADDQ R10, DI; \
	LOAD V2, (DI); \
	ADDQ R10, DI; \
	LOAD V3, (DI); \
	ADDQ R10, DI; \
	LEAQ (R11)(R8*4), R11; \
	SUBQ $4, R13; \
	JMP  px4x1; \
px1x1: \
	TESTQ R13, R13; \
	JZ   done; \
	MOVQ A_BIAS(AX), R15; \
	LOAD (R15)(R14*1), V0; \
	MOVQ A_W(AX), R12; \
	ADDQ R14, R12; \
	MOVQ R11, R15; \
	MOVQ A_ROWS(AX), DX; \
row1x1: \
	MOVQ R15, BX; \
	MOVQ R12, SI; \
	MOVQ A_N(AX), CX; \
mac1x1: \
	LOAD (SI), V8; \
	BCAST (BX), V10; \
	MAC(V8, V10, V11, V0); \
	ADDQ $4, BX; \
	ADDQ R10, SI; \
	DECQ CX; \
	JNZ  mac1x1; \
	ADDQ A_INROW(AX), R15; \
	ADDQ A_WROW(AX), R12; \
	DECQ DX; \
	JNZ  row1x1; \
	LOAD V0, (DI); \
	ADDQ R10, DI; \
	ADDQ R8, R11; \
	DECQ R13; \
	JMP  px1x1; \
done: \
	VZEROUPPER; \
	RET

#define MAC_F32(W, X, T, ACC) VMULPS W, X, T; VADDPS T, ACC, ACC
#define MAC_I8(W, X, T, ACC) VPMADDWD W, X, T; VPADDD T, ACC, ACC

// MAC_VNNI is MAC_I8 in one instruction: VPDPWSSD adds both products of
// a pair to the accumulator, wrapping as VPADDD does (VPDPWSSDS would
// saturate). |v| <= 255 and |w| <= 127, so no product or pair sum
// overflows and the int32 lanes are MAC_I8's bit for bit.
#define MAC_VNNI(W, X, T, ACC) VPDPWSSD W, X, ACC

#define VB 32
#define V0 Y0
#define V1 Y1
#define V2 Y2
#define V3 Y3
#define V4 Y4
#define V5 Y5
#define V6 Y6
#define V7 Y7
#define V8 Y8
#define V9 Y9
#define V10 Y10
#define V11 Y11
#define V12 Y12
#define V13 Y13

// func convTileF32SIMD(a *tileArgs)
TEXT ·convTileF32SIMD(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	CONV_TILE(VMOVUPS, VBROADCASTSS, MAC_F32)

// func convTileI8SIMD(a *tileArgs)
//
// Each packed (v0,v1) int16 pair broadcasts across a YMM and VPMADDWD
// folds both input lanes into each int32 accumulator — the x86 cousin
// of CMSIS-NN's SMLAD. Products are bounded (|v|<=255, |w|<=127) so the
// pairwise int32 sum is exact.
TEXT ·convTileI8SIMD(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	CONV_TILE(VMOVDQU, VPBROADCASTD, MAC_I8)

// The same two tiles at ZMM width, the tier haveAVX512 selects.
#undef VB
#undef V0
#undef V1
#undef V2
#undef V3
#undef V4
#undef V5
#undef V6
#undef V7
#undef V8
#undef V9
#undef V10
#undef V11
#undef V12
#undef V13
#define VB 64
#define V0 Z0
#define V1 Z1
#define V2 Z2
#define V3 Z3
#define V4 Z4
#define V5 Z5
#define V6 Z6
#define V7 Z7
#define V8 Z8
#define V9 Z9
#define V10 Z10
#define V11 Z11
#define V12 Z12
#define V13 Z13

// func convTileF32AVX512(a *tileArgs)
TEXT ·convTileF32AVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	CONV_TILE(VMOVUPS, VBROADCASTSS, MAC_F32)

// func convTileI8AVX512(a *tileArgs)
//
// convTileI8SIMD with one VPDPWSSD per MAC.
TEXT ·convTileI8AVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	CONV_TILE(VMOVDQU32, VPBROADCASTD, MAC_VNNI)

// func depthwiseF32SIMD(a *tileArgs)
//
// Per pixel, 32 channels (then 8) at a time: acc = bias; for every row
// and tap acc += in*w, elementwise; store. One tap is a.pitch bytes of
// input and of weights.
TEXT ·depthwiseF32SIMD(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ A_PITCH(AX), R10
	MOVQ A_P(AX), R13
	MOVQ A_DST(AX), DI
	MOVQ A_IN(AX), R11

dwpixel:
	XORQ R14, R14             // channel byte offset

dwc32:
	MOVQ A_LANES(AX), R15
	SHLQ $2, R15
	SUBQ R14, R15
	CMPQ R15, $128
	JLT  dwc8
	MOVQ A_BIAS(AX), R15
	VMOVUPS (R15)(R14*1), Y0
	VMOVUPS 32(R15)(R14*1), Y1
	VMOVUPS 64(R15)(R14*1), Y2
	VMOVUPS 96(R15)(R14*1), Y3
	MOVQ A_W(AX), R12
	ADDQ R14, R12
	LEAQ (R11)(R14*1), R15
	MOVQ A_ROWS(AX), DX

dwrow32:
	MOVQ R15, BX
	MOVQ R12, SI
	MOVQ A_N(AX), CX

dwtap32:
	VMOVUPS (BX), Y4
	VMULPS (SI), Y4, Y4
	VADDPS Y4, Y0, Y0
	VMOVUPS 32(BX), Y5
	VMULPS 32(SI), Y5, Y5
	VADDPS Y5, Y1, Y1
	VMOVUPS 64(BX), Y6
	VMULPS 64(SI), Y6, Y6
	VADDPS Y6, Y2, Y2
	VMOVUPS 96(BX), Y7
	VMULPS 96(SI), Y7, Y7
	VADDPS Y7, Y3, Y3
	ADDQ R10, BX
	ADDQ R10, SI
	DECQ CX
	JNZ  dwtap32
	ADDQ A_INROW(AX), R15
	ADDQ A_WROW(AX), R12
	DECQ DX
	JNZ  dwrow32
	VMOVUPS Y0, (DI)(R14*1)
	VMOVUPS Y1, 32(DI)(R14*1)
	VMOVUPS Y2, 64(DI)(R14*1)
	VMOVUPS Y3, 96(DI)(R14*1)
	ADDQ $128, R14
	JMP  dwc32

dwc8:
	CMPQ R15, $32
	JLT  dwnext
	MOVQ A_BIAS(AX), R15
	VMOVUPS (R15)(R14*1), Y0
	MOVQ A_W(AX), R12
	ADDQ R14, R12
	LEAQ (R11)(R14*1), R15
	MOVQ A_ROWS(AX), DX

dwrow8:
	MOVQ R15, BX
	MOVQ R12, SI
	MOVQ A_N(AX), CX

dwtap8:
	VMOVUPS (BX), Y4
	VMULPS (SI), Y4, Y4
	VADDPS Y4, Y0, Y0
	ADDQ R10, BX
	ADDQ R10, SI
	DECQ CX
	JNZ  dwtap8
	ADDQ A_INROW(AX), R15
	ADDQ A_WROW(AX), R12
	DECQ DX
	JNZ  dwrow8
	VMOVUPS Y0, (DI)(R14*1)
	ADDQ $32, R14
	MOVQ A_LANES(AX), R15
	SHLQ $2, R15
	SUBQ R14, R15
	JMP  dwc8

dwnext:
	ADDQ R10, DI
	ADDQ A_PIX(AX), R11
	DECQ R13
	JNZ  dwpixel
	VZEROUPPER
	RET

// func reluF32SIMD(x []float32)
//
// x[i] = max(0, x[i]) with x as the MAXPS second source, so NaN and -0
// lanes keep their scalar `if v < 0` behavior. len(x) a multiple of 8.
TEXT ·reluF32SIMD(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), DX
	VXORPS Y1, Y1, Y1
	XORQ R9, R9

relu8:
	VMAXPS (DI)(R9*4), Y1, Y0
	VMOVUPS Y0, (DI)(R9*4)
	ADDQ $8, R9
	CMPQ R9, DX
	JLT  relu8
	VZEROUPPER
	RET

// func relu6F32SIMD(x []float32)
TEXT ·relu6F32SIMD(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), DX
	VXORPS Y1, Y1, Y1
	MOVL $0x40C00000, AX      // float32(6)
	VMOVD AX, X2
	VPBROADCASTD X2, Y2
	XORQ R9, R9

relu68:
	VMAXPS (DI)(R9*4), Y1, Y0
	VMINPS Y0, Y2, Y0
	VMOVUPS Y0, (DI)(R9*4)
	ADDQ $8, R9
	CMPQ R9, DX
	JLT  relu68
	VZEROUPPER
	RET

// func maxF32SIMD(dst, src []float32)
//
// dst[i] = src[i] > dst[i] ? src[i] : dst[i]: MAXPS returns its second
// source when either is NaN or both are zero, so with dst there a NaN
// in src never wins. len(dst) a multiple of 8.
TEXT ·maxF32SIMD(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	XORQ R9, R9

maxf8:
	VMOVUPS (SI)(R9*4), Y0
	VMAXPS (DI)(R9*4), Y0, Y0
	VMOVUPS Y0, (DI)(R9*4)
	ADDQ $8, R9
	CMPQ R9, DX
	JLT  maxf8
	VZEROUPPER
	RET

// func maxI8SIMD(dst, src []int8)
//
// len(dst) a multiple of 16 (one XMM: pooled maps are often 16 or 24
// channels wide).
TEXT ·maxI8SIMD(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	XORQ R9, R9

maxb16:
	VMOVDQU (SI)(R9*1), X0
	VPMAXSB (DI)(R9*1), X0, X0
	VMOVDQU X0, (DI)(R9*1)
	ADDQ $16, R9
	CMPQ R9, DX
	JLT  maxb16
	RET

// func quantizeI8SIMD(dst []int8, src []float32, scale float64, zp int32)
//
// dst[i] = clamp(int32(trunc(x + copysign(0.5-2^-54, x))) + zp, -128, 127)
// with x = float64(src[i])/scale, 8 lanes per iteration as two YMM of
// doubles: the scalar reference's operations one for one (IEEE divide
// and add, ROUNDSD's truncation, CVTTSD2SI's indefinite 0x80000000 for
// NaN and out-of-range). len(dst) a multiple of 8.
TEXT ·quantizeI8SIMD(SB), NOSPLIT, $0-60
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	VBROADCASTSD scale+48(FP), Y1
	MOVQ $0x8000000000000000, AX
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2       // sign mask
	MOVQ $0x3fdfffffffffffff, AX
	VMOVQ AX, X3
	VPBROADCASTQ X3, Y3       // largest double below 0.5
	MOVL zp+56(FP), AX
	VMOVD AX, X4
	VPBROADCASTD X4, X4
	MOVL $-128, AX
	VMOVD AX, X5
	VPBROADCASTD X5, X5
	MOVL $127, AX
	VMOVD AX, X6
	VPBROADCASTD X6, X6
	XORQ R9, R9

qi8:
	VCVTPS2PD (SI)(R9*4), Y0
	VCVTPS2PD 16(SI)(R9*4), Y7
	VDIVPD Y1, Y0, Y0
	VDIVPD Y1, Y7, Y7
	VANDPD Y2, Y0, Y8
	VANDPD Y2, Y7, Y9
	VORPD Y3, Y8, Y8
	VORPD Y3, Y9, Y9
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y7, Y7
	VROUNDPD $3, Y0, Y0
	VROUNDPD $3, Y7, Y7
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y7, X7
	VPADDD X4, X0, X0         // + zp (int32 wrap)
	VPADDD X4, X7, X7
	VPMAXSD X5, X0, X0
	VPMAXSD X5, X7, X7
	VPMINSD X6, X0, X0
	VPMINSD X6, X7, X7
	VPACKSSDW X7, X0, X0      // already within int8: the packs only narrow
	VPACKSSWB X0, X0, X0
	VMOVQ X0, (DI)(R9*1)
	ADDQ $8, R9
	CMPQ R9, DX
	JLT  qi8
	VZEROUPPER
	RET

// func packPairsSIMD(vp []uint32, in []int8, zp int32)
//
// Widens int8 lanes to zero-point-centered int16 and stores them
// contiguously — the little-endian int16 stream is exactly the packed
// (v0,v1) uint32 pair layout. len(in) a multiple of 16.
TEXT ·packPairsSIMD(SB), NOSPLIT, $0-52
	MOVQ vp_base+0(FP), DI
	MOVQ in_base+24(FP), SI
	MOVQ in_len+32(FP), DX
	MOVL zp+48(FP), AX
	VMOVD AX, X2
	VPBROADCASTW X2, Y2
	XORQ R9, R9

pp16:
	VPMOVSXBW (SI)(R9*1), Y0
	VPSUBW Y2, Y0, Y0
	VMOVDQU Y0, (DI)(R9*2)
	ADDQ $16, R9
	CMPQ R9, DX
	JLT  pp16
	VZEROUPPER
	RET

// func packPixelsSIMD(vp []uint32, in []int8, steps int, a *pixelPackArgs)
//
// Per step: 16 input bytes, shuffled so every pixel's lanes sit in front
// of a zero byte (its phantom lane), widened to 16 int16, the zero point
// subtracted under the real lanes only, stored as 8 pairs.
TEXT ·packPixelsSIMD(SB), NOSPLIT, $0-64
	MOVQ vp_base+0(FP), DI
	MOVQ in_base+24(FP), SI
	MOVQ steps+48(FP), CX
	MOVQ a+56(FP), AX
	VMOVDQU 0(AX), X2         // shuffle
	VMOVDQU 16(AX), Y3        // zero points
	MOVQ 48(AX), R8           // input bytes per step
	MOVQ 56(AX), R9           // output bytes per step

pxstep:
	VMOVDQU (SI), X0
	VPSHUFB X2, X0, X0
	VPMOVSXBW X0, Y0
	VPSUBW Y3, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  pxstep
	VZEROUPPER
	RET

// func packTapPairsSIMD(vp []uint32, in []int8, ch, inStep, hiOff int, zp int32, mask uint32)
//
// Per position and 8 channels: the low-half channels and the high-half
// ones (hiOff bytes on) widened to int32 and centred, the high ones
// shifted up and blended over the low ones, the pairs masked — 8 (x,
// x+1) pairs.
TEXT ·packTapPairsSIMD(SB), NOSPLIT, $0-80
	MOVQ vp_base+0(FP), DI
	MOVQ vp_len+8(FP), DX
	MOVQ in_base+24(FP), SI
	MOVQ ch+48(FP), R8
	MOVQ inStep+56(FP), R9
	MOVQ hiOff+64(FP), R10
	MOVL zp+72(FP), AX
	VMOVD AX, X2
	VPBROADCASTD X2, Y2
	MOVL mask+76(FP), AX
	VMOVD AX, X3
	VPBROADCASTD X3, Y3
	LEAQ (DI)(DX*4), DX       // end of vp

tpos:
	LEAQ (SI)(R10*1), BX      // high halves
	XORQ CX, CX

tpc8:
	VPMOVSXBD (SI)(CX*1), Y0
	VPMOVSXBD (BX)(CX*1), Y1
	VPSUBD Y2, Y0, Y0
	VPSUBD Y2, Y1, Y1
	VPSLLD $16, Y1, Y1
	VPBLENDW $0xAA, Y1, Y0, Y0
	VPAND Y3, Y0, Y0
	VMOVDQU Y0, (DI)(CX*4)
	ADDQ $8, CX
	CMPQ CX, R8
	JLT  tpc8
	LEAQ (DI)(R8*4), DI
	ADDQ R9, SI
	CMPQ DI, DX
	JLT  tpos
	VZEROUPPER
	RET

// TFLite requantization for a right shift rs = -shift in [0, 31], 8
// lanes at a time on AVX-512 F+VL YMM registers. REQUANT_LOAD reads a
// requantArgs at offset O of AX into Y8-Y12, Y14 and Y15; REQUANT8 then
// turns the 8 int32 accumulators of YA into 8 int8 at DST (clobbering
// Y4-Y7). The reference's two roundings
//
//	high = (acc*mult + nudge) >> 31        // nudge = prod < 0 ? 1-2^30 : 2^30
//	high = (high + round) >> rs            // round = rs>0 ? 1<<(rs-1) : 0
//
// are one shift, because floor((floor(x/a)+r)/b) = floor((x+r*a)/(a*b)):
//
//	high = (acc*mult + nudge + round<<31) >> (31+rs)
//
// and |high| <= 2^31 needs no saturation when nothing shifts left. The
// even and the odd lanes are multiplied where they are (VPMULDQ reads
// the low dword of each qword), so nothing is widened or narrowed: the
// results land in the low dwords and one blend interleaves them. Then
//
//	v   = high + zp                        // int32 wrap
//	dst = int8(clamp(v, lo, hi))
#define REQUANT_LOAD(O) \
	VPBROADCASTD (O+0)(AX), Y10; \
	VPBROADCASTQ (O+8)(AX), Y12; \
	VPBROADCASTQ (O+16)(AX), Y14; \
	VPBROADCASTD (O+24)(AX), Y8; \
	VPBROADCASTD (O+32)(AX), Y9; \
	VPBROADCASTD (O+40)(AX), Y11; \
	MOVQ $-2147483647, BX; \
	VMOVQ BX, X15; \
	VPBROADCASTQ X15, Y15

#define REQUANT8(YA, DST) \
	VPSRLQ $32, YA, Y5; \
	VPMULDQ Y10, YA, Y4; \
	VPMULDQ Y10, Y5, Y5; \
	VPSRAQ $63, Y4, Y6; \
	VPSRAQ $63, Y5, Y7; \
	VPANDQ Y15, Y6, Y6; \
	VPANDQ Y15, Y7, Y7; \
	VPADDQ Y14, Y4, Y4; \
	VPADDQ Y14, Y5, Y5; \
	VPADDQ Y6, Y4, Y4; \
	VPADDQ Y7, Y5, Y5; \
	VPSRAVQ Y12, Y4, Y4; \
	VPSRAVQ Y12, Y5, Y5; \
	VPSLLQ $32, Y5, Y5; \
	VPBLENDD $0xAA, Y5, Y4, Y4; \
	VPADDD Y8, Y4, Y4; \
	VPMAXSD Y9, Y4, Y4; \
	VPMINSD Y11, Y4, Y4; \
	VPMOVDB Y4, DST

// func requantI8SIMD(dst []int8, acc []int32, a *requantArgs)
//
// len(dst) == len(acc), a multiple of 8.
TEXT ·requantI8SIMD(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ acc_base+24(FP), SI
	MOVQ a+48(FP), AX
	REQUANT_LOAD(0)
	XORQ R9, R9

rq8:
	VMOVDQU (SI)(R9*4), Y0
	REQUANT8(Y0, (DI)(R9*1))
	ADDQ $8, R9
	CMPQ R9, DX
	JLT  rq8
	VZEROUPPER
	RET

// DW_BLOCK accumulates one tap pair of 8 channels at input offset O:
// ACC += in[O]·w[O] pairwise (MAC_VNNI), T the loaded input.
#define DW_BLOCK(O, T, ACC) \
	VMOVDQU O(BX), T; \
	VPDPWSSD O(SI), T, ACC

// func depthwisePairsI8SIMD(a *dwI8Args)
//
// depthwiseF32SIMD's reduction over tap pairs, on int32 accumulators
// that start at the bias, take one VPDPWSSD of 8 (x, x+1) input pairs by
// 8 (w[2j], w[2j+1]) weight pairs per step, are requantized in their
// registers and stored as int8: no accumulator row is written. Input,
// weight and bias lanes are 4 bytes, output lanes 1: R14 counts
// channels. The weight rows are contiguous (a.wRowStride is n tap
// pairs), so SI walks every row's tap pairs in one sweep. The pixels
// come in two phases:
//
//	groups of 4:  for each block of 8 channels, for each group: the
//	              group's 4 accumulators share every weight load
//	the last P%4: per pixel, 32 channels at a time, then 8
//
// AX args, R8 input bytes per tap pair, R9 weight bytes per tap pair
// (4ch), R10 pixel stride, R12 3x pixel stride, R11 input of the pixel
// (group), R13 pixels (groups) left, DI output, R15/BX input row/step,
// SI weights, DX rows left, CX tap pairs left.
TEXT ·depthwisePairsI8SIMD(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	REQUANT_LOAD(A_REQUANT)
	MOVQ A_PITCH(AX), R9
	SHLQ $2, R9
	MOVQ A_STEP(AX), R8
	MOVQ A_PIX(AX), R10
	LEAQ (R10)(R10*2), R12
	XORQ R14, R14

qdwlanes:
	CMPQ R14, A_LANES(AX)
	JGE  qdwtail
	MOVQ A_P(AX), R13
	SHRQ $2, R13
	JZ   qdwtail
	MOVQ A_DST(AX), DI
	ADDQ R14, DI
	MOVQ A_IN(AX), R11
	LEAQ (R11)(R14*4), R11

qdwgroup:
	MOVQ A_BIAS(AX), SI
	VMOVDQU (SI)(R14*4), Y0
	VMOVDQU Y0, Y1
	VMOVDQU Y0, Y2
	VMOVDQU Y0, Y3
	MOVQ A_W(AX), SI
	LEAQ (SI)(R14*4), SI
	MOVQ R11, R15
	MOVQ A_ROWS(AX), DX

qdwrow4:
	MOVQ R15, BX
	MOVQ A_N(AX), CX

qdwtap4:
	VMOVDQU (SI), Y13
	VPDPWSSD (BX), Y13, Y0
	VPDPWSSD (BX)(R10*1), Y13, Y1
	VPDPWSSD (BX)(R10*2), Y13, Y2
	VPDPWSSD (BX)(R12*1), Y13, Y3
	ADDQ R8, BX
	ADDQ R9, SI
	DECQ CX
	JNZ  qdwtap4
	ADDQ A_INROW(AX), R15
	DECQ DX
	JNZ  qdwrow4
	REQUANT8(Y0, (DI))
	ADDQ A_PITCH(AX), DI
	REQUANT8(Y1, (DI))
	ADDQ A_PITCH(AX), DI
	REQUANT8(Y2, (DI))
	ADDQ A_PITCH(AX), DI
	REQUANT8(Y3, (DI))
	ADDQ A_PITCH(AX), DI
	LEAQ (R11)(R10*4), R11
	DECQ R13
	JNZ  qdwgroup
	ADDQ $8, R14
	JMP  qdwlanes

qdwtail:
	MOVQ A_P(AX), R13
	ANDQ $3, R13
	JZ   qdwdone
	MOVQ A_P(AX), CX
	ANDQ $-4, CX
	MOVQ CX, DI
	IMULQ A_PITCH(AX), DI
	ADDQ A_DST(AX), DI
	IMULQ R10, CX
	MOVQ A_IN(AX), R11
	ADDQ CX, R11

qdwpixel:
	XORQ R14, R14

qdwc32:
	MOVQ A_LANES(AX), R15
	SUBQ R14, R15
	CMPQ R15, $32
	JLT  qdwc8
	MOVQ A_BIAS(AX), SI
	VMOVDQU (SI)(R14*4), Y0
	VMOVDQU 32(SI)(R14*4), Y1
	VMOVDQU 64(SI)(R14*4), Y2
	VMOVDQU 96(SI)(R14*4), Y3
	MOVQ A_W(AX), SI
	LEAQ (SI)(R14*4), SI
	LEAQ (R11)(R14*4), R15
	MOVQ A_ROWS(AX), DX

qdwrow32:
	MOVQ R15, BX
	MOVQ A_N(AX), CX

qdwtap32:
	DW_BLOCK(0, Y4, Y0)
	DW_BLOCK(32, Y5, Y1)
	DW_BLOCK(64, Y6, Y2)
	DW_BLOCK(96, Y7, Y3)
	ADDQ R8, BX
	ADDQ R9, SI
	DECQ CX
	JNZ  qdwtap32
	ADDQ A_INROW(AX), R15
	DECQ DX
	JNZ  qdwrow32
	REQUANT8(Y0, (DI)(R14*1))
	REQUANT8(Y1, 8(DI)(R14*1))
	REQUANT8(Y2, 16(DI)(R14*1))
	REQUANT8(Y3, 24(DI)(R14*1))
	ADDQ $32, R14
	JMP  qdwc32

qdwc8:
	CMPQ R15, $8
	JLT  qdwnext
	MOVQ A_BIAS(AX), SI
	VMOVDQU (SI)(R14*4), Y0
	MOVQ A_W(AX), SI
	LEAQ (SI)(R14*4), SI
	LEAQ (R11)(R14*4), R15
	MOVQ A_ROWS(AX), DX

qdwrow8:
	MOVQ R15, BX
	MOVQ A_N(AX), CX

qdwtap8:
	DW_BLOCK(0, Y4, Y0)
	ADDQ R8, BX
	ADDQ R9, SI
	DECQ CX
	JNZ  qdwtap8
	ADDQ A_INROW(AX), R15
	DECQ DX
	JNZ  qdwrow8
	REQUANT8(Y0, (DI)(R14*1))
	ADDQ $8, R14
	MOVQ A_LANES(AX), R15
	SUBQ R14, R15
	JMP  qdwc8

qdwnext:
	ADDQ A_PITCH(AX), DI
	ADDQ R10, R11
	DECQ R13
	JNZ  qdwpixel

qdwdone:
	VZEROUPPER
	RET

// BFLY is one block of butterflies: eight lanes (MOV = VMOVUPS on Y
// registers), four (VMOVUPS on X) or two (VMOVSD on X, whose upper lanes
// load as zeros and are not stored): the scalar reference's six
// multiplies, adds and subtracts per lane, in its order. R13/R14 point
// at re/im[base+half], DI/SI at re/im[base], R8/R9 at wr/wi, R12 is the
// byte offset of j.
#define BFLY(MOV, R0, R1, R2, R3, R4, R5, R6, R7) \
	MOV (R13)(R12*1), R0; \
	MOV (R14)(R12*1), R1; \
	MOV (R8)(R12*1), R2; \
	MOV (R9)(R12*1), R3; \
	VMULPS R2, R0, R4; \
	VMULPS R3, R1, R5; \
	VSUBPS R5, R4, R4; \
	VMULPS R3, R0, R6; \
	VMULPS R2, R1, R7; \
	VADDPS R7, R6, R6; \
	MOV (DI)(R12*1), R0; \
	MOV (SI)(R12*1), R1; \
	VSUBPS R4, R0, R2; \
	VSUBPS R6, R1, R3; \
	VADDPS R4, R0, R0; \
	VADDPS R6, R1, R1; \
	MOV R2, (R13)(R12*1); \
	MOV R3, (R14)(R12*1); \
	MOV R0, (DI)(R12*1); \
	MOV R1, (SI)(R12*1)

// func butterflyF32SIMD(re, im, wr, wi []float32)
//
// One radix-2 stage: per group of 2*half points, eight butterflies per
// step while eight remain, then four, then two. len(wr) = half, even;
// len(re) a multiple of 2*half.
TEXT ·butterflyF32SIMD(SB), NOSPLIT, $0-96
	MOVQ re_base+0(FP), DI
	MOVQ re_len+8(FP), DX
	MOVQ im_base+24(FP), SI
	MOVQ wr_base+48(FP), R8
	MOVQ wr_len+56(FP), R10
	MOVQ wi_base+72(FP), R9
	SHLQ $2, R10              // half in bytes
	LEAQ (DI)(DX*4), R11      // end of re

bfgroup:
	LEAQ (DI)(R10*1), R13     // re[base+half]
	LEAQ (SI)(R10*1), R14     // im[base+half]
	XORQ R12, R12

bfly8:
	LEAQ 32(R12), AX
	CMPQ AX, R10
	JGT  bfly4
	BFLY(VMOVUPS, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	MOVQ AX, R12
	JMP  bfly8

bfly4:
	LEAQ 16(R12), AX
	CMPQ AX, R10
	JGT  bfly2
	BFLY(VMOVUPS, X0, X1, X2, X3, X4, X5, X6, X7)
	MOVQ AX, R12

bfly2:
	CMPQ R12, R10
	JGE  bfnext
	BFLY(VMOVSD, X0, X1, X2, X3, X4, X5, X6, X7)

bfnext:
	LEAQ (DI)(R10*2), DI
	LEAQ (SI)(R10*2), SI
	CMPQ DI, R11
	JLT  bfgroup
	VZEROUPPER
	RET

// Lane indices that reverse a YMM of float32.
DATA revLanes<>+0(SB)/4, $7
DATA revLanes<>+4(SB)/4, $6
DATA revLanes<>+8(SB)/4, $5
DATA revLanes<>+12(SB)/4, $4
DATA revLanes<>+16(SB)/4, $3
DATA revLanes<>+20(SB)/4, $2
DATA revLanes<>+24(SB)/4, $1
DATA revLanes<>+28(SB)/4, $0
GLOBL revLanes<>(SB), RODATA|NOPTR, $32

// func realPowerF32SIMD(dst, re, im, wr, wi []float32, scale float32)
//
// Bins k = 1 .. len(dst) of RealPowerF32, eight per iteration. Z[h-k]
// for eight consecutive k is eight consecutive elements read backwards:
// load them from h-k-7 and reverse the lanes. dst and wr/wi start at bin
// 1; re and im at bin 0.
TEXT ·realPowerF32SIMD(SB), NOSPLIT, $0-124
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ re_base+24(FP), SI
	MOVQ re_len+32(FP), DX    // h
	MOVQ im_base+48(FP), BX
	MOVQ wr_base+72(FP), R8
	MOVQ wi_base+96(FP), R9
	VBROADCASTSS scale+120(FP), Y15
	MOVL $0x3F000000, AX      // float32(0.5)
	VMOVD AX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU revLanes<>(SB), Y13
	LEAQ -32(SI)(DX*4), R10   // &re[h-8]: Z[h-k] lanes for k = 1..8
	LEAQ -32(BX)(DX*4), R11   // &im[h-8]
	XORQ R12, R12             // byte offset from bin 1

rp8:
	VMOVUPS 4(SI)(R12*1), Y0  // a = re[k]
	VMOVUPS 4(BX)(R12*1), Y1  // b = im[k]
	VPERMPS (R10), Y13, Y2    // c = re[h-k]
	VPERMPS (R11), Y13, Y3    // d = im[h-k]
	VADDPS Y2, Y0, Y4
	VMULPS Y4, Y14, Y4        // er = 0.5*(a+c)
	VSUBPS Y3, Y1, Y5
	VMULPS Y5, Y14, Y5        // ei = 0.5*(b-d)
	VADDPS Y3, Y1, Y6
	VMULPS Y6, Y14, Y6        // or = 0.5*(b+d)
	VSUBPS Y0, Y2, Y7
	VMULPS Y7, Y14, Y7        // oi = 0.5*(c-a)
	VMOVUPS (R8)(R12*1), Y8   // cr
	VMOVUPS (R9)(R12*1), Y9   // ci
	VMULPS Y6, Y8, Y10
	VADDPS Y10, Y4, Y10       // er + cr*or
	VMULPS Y7, Y9, Y11
	VSUBPS Y11, Y10, Y10      // xr = er + cr*or - ci*oi
	VMULPS Y7, Y8, Y11
	VADDPS Y11, Y5, Y11       // ei + cr*oi
	VMULPS Y6, Y9, Y12
	VADDPS Y12, Y11, Y11      // xi = ei + cr*oi + ci*or
	VMULPS Y10, Y10, Y10
	VMULPS Y11, Y11, Y11
	VADDPS Y11, Y10, Y10
	VMULPS Y15, Y10, Y10      // (xr*xr + xi*xi) * scale
	VMOVUPS Y10, (DI)(R12*1)
	SUBQ $32, R10
	SUBQ $32, R11
	ADDQ $32, R12
	SUBQ $8, CX
	JNZ  rp8
	VZEROUPPER
	RET

// func blendDivF32SIMD(dst, a, b []float32, wa, wb, div float32)
//
// dst = (a*wa + b*wb) / div, eight lanes per iteration; VDIVPS rounds
// the quotient as DIVSS does. len(dst) a multiple of 8.
TEXT ·blendDivF32SIMD(SB), NOSPLIT, $0-84
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	VBROADCASTSS wa+72(FP), Y3
	VBROADCASTSS wb+76(FP), Y4
	VBROADCASTSS div+80(FP), Y5
	XORQ R9, R9

blend8:
	VMULPS (SI)(R9*4), Y3, Y0
	VMULPS (BX)(R9*4), Y4, Y1
	VADDPS Y1, Y0, Y0
	VDIVPS Y5, Y0, Y0
	VMOVUPS Y0, (DI)(R9*4)
	ADDQ $8, R9
	CMPQ R9, DX
	JLT  blend8
	VZEROUPPER
	RET

// func minMaxF32SIMD(x []float32, lanes *[16]float32)
//
// Four minimum (Y0-Y3) and four maximum (Y4-Y7) accumulators, every lane
// seeded with x[0]. Each step is lo = v < lo ? v : lo: VMINPS returns its
// second source, the accumulator, when either is NaN or both are zero,
// so every lane runs the scalar loop over its own elements. 32 floats
// per iteration, then 8. len(x) a multiple of 8.
TEXT ·minMaxF32SIMD(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DX
	MOVQ lanes+24(FP), DI
	VBROADCASTSS (SI), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y0, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y0, Y7
	XORQ R9, R9
	MOVQ DX, R10
	ANDQ $-32, R10
	JZ   mm8

mm32:
	VMOVUPS (SI)(R9*4), Y8
	VMOVUPS 32(SI)(R9*4), Y9
	VMOVUPS 64(SI)(R9*4), Y10
	VMOVUPS 96(SI)(R9*4), Y11
	VMINPS Y0, Y8, Y0
	VMAXPS Y4, Y8, Y4
	VMINPS Y1, Y9, Y1
	VMAXPS Y5, Y9, Y5
	VMINPS Y2, Y10, Y2
	VMAXPS Y6, Y10, Y6
	VMINPS Y3, Y11, Y3
	VMAXPS Y7, Y11, Y7
	ADDQ $32, R9
	CMPQ R9, R10
	JLT  mm32

mm8:
	CMPQ R9, DX
	JGE  mmdone
	VMOVUPS (SI)(R9*4), Y8
	VMINPS Y0, Y8, Y0
	VMAXPS Y4, Y8, Y4
	ADDQ $8, R9
	JMP  mm8

mmdone:
	VMINPS Y1, Y0, Y0
	VMINPS Y3, Y2, Y2
	VMINPS Y2, Y0, Y0
	VMAXPS Y5, Y4, Y4
	VMAXPS Y7, Y6, Y6
	VMAXPS Y6, Y4, Y4
	VMOVUPS Y0, (DI)
	VMOVUPS Y4, 32(DI)
	VZEROUPPER
	RET

// func absMaxF32SIMD(x []float32, lanes *[8]float32)
//
// Four maximum accumulators (Y0-Y3) from +0; each step clears the sign
// bit and keeps m = a > m ? a : m, VMAXPS's second source being the
// accumulator, so a NaN never wins. len(x) a multiple of 8.
TEXT ·absMaxF32SIMD(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DX
	MOVQ lanes+24(FP), DI
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $1, Y15, Y15
	VXORPS   Y0, Y0, Y0
	VXORPS   Y1, Y1, Y1
	VXORPS   Y2, Y2, Y2
	VXORPS   Y3, Y3, Y3
	XORQ     R9, R9
	MOVQ     DX, R10
	ANDQ     $-32, R10
	JZ       am8

am32:
	VANDPS (SI)(R9*4), Y15, Y8
	VANDPS 32(SI)(R9*4), Y15, Y9
	VANDPS 64(SI)(R9*4), Y15, Y10
	VANDPS 96(SI)(R9*4), Y15, Y11
	VMAXPS Y0, Y8, Y0
	VMAXPS Y1, Y9, Y1
	VMAXPS Y2, Y10, Y2
	VMAXPS Y3, Y11, Y3
	ADDQ   $32, R9
	CMPQ   R9, R10
	JLT    am32

am8:
	CMPQ   R9, DX
	JGE    amdone
	VANDPS (SI)(R9*4), Y15, Y8
	VMAXPS Y0, Y8, Y0
	ADDQ   $8, R9
	JMP    am8

amdone:
	VMAXPS  Y1, Y0, Y0
	VMAXPS  Y3, Y2, Y2
	VMAXPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

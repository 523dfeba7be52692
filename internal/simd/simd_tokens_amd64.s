//go:build amd64 && !noasm

// The float32 token reader of ParseF32 (tokens.go): eight comma-ended
// tokens a step, four to a ZMM register, one token per 128-bit lane,
// right-aligned against its comma. Per lane it computes what numjson's
// ScanFloat computes on its exact path and marks where ScanFloat would
// do anything else. The file sorts after simd_shortest_amd64.s, so the
// linker places this kernel after the others and their code keeps its
// offsets.

#include "textflag.h"

DATA ptComma<>+0(SB)/8, $0x2c2c2c2c2c2c2c2c
GLOBL ptComma<>(SB), RODATA|NOPTR, $8
DATA ptDot<>+0(SB)/8, $0x2e2e2e2e2e2e2e2e
GLOBL ptDot<>(SB), RODATA|NOPTR, $8
DATA ptMinus<>+0(SB)/8, $0x2d2d2d2d2d2d2d2d
GLOBL ptMinus<>(SB), RODATA|NOPTR, $8
DATA ptAscii0<>+0(SB)/8, $0x3030303030303030
GLOBL ptAscii0<>(SB), RODATA|NOPTR, $8
DATA ptTen<>+0(SB)/8, $0x0a0a0a0a0a0a0a0a
GLOBL ptTen<>(SB), RODATA|NOPTR, $8
DATA ptOnes<>+0(SB)/8, $0x0101010101010101
GLOBL ptOnes<>(SB), RODATA|NOPTR, $8
DATA ptThirtyTwo<>+0(SB)/8, $0x2020202020202020
GLOBL ptThirtyTwo<>(SB), RODATA|NOPTR, $8

// Digit weights: [10 1] bytes for VPMADDUBSW, [100 1] and [10000 1]
// words for VPMADDWD.
DATA ptW10<>+0(SB)/8, $0x010a010a010a010a
GLOBL ptW10<>(SB), RODATA|NOPTR, $8
DATA ptW100<>+0(SB)/8, $0x0001006400010064
GLOBL ptW100<>(SB), RODATA|NOPTR, $8
DATA ptW1e4<>+0(SB)/8, $0x0001271000012710
GLOBL ptW1e4<>(SB), RODATA|NOPTR, $8
DATA pt1e8<>+0(SB)/8, $100000000
GLOBL pt1e8<>(SB), RODATA|NOPTR, $8

DATA pt2p53<>+0(SB)/8, $0x20000000000000
GLOBL pt2p53<>(SB), RODATA|NOPTR, $8
DATA pt15<>+0(SB)/8, $15
GLOBL pt15<>(SB), RODATA|NOPTR, $8
DATA pt16<>+0(SB)/8, $16
GLOBL pt16<>(SB), RODATA|NOPTR, $8
DATA pt31<>+0(SB)/8, $31
GLOBL pt31<>(SB), RODATA|NOPTR, $8
DATA ptTwo<>+0(SB)/8, $2
GLOBL ptTwo<>(SB), RODATA|NOPTR, $8

// ScanFloat's double-rounding test: the 29 float64 bits float32 drops,
// less 2^28-1.
DATA ptBelow<>+0(SB)/8, $0x1fffffff
GLOBL ptBelow<>(SB), RODATA|NOPTR, $8
DATA ptMid<>+0(SB)/8, $0x0fffffff
GLOBL ptMid<>(SB), RODATA|NOPTR, $8

// Byte masks, one bit per byte of four 16-byte lanes: each lane's first
// byte, its last, and everything but each.
DATA ptLo<>+0(SB)/8, $0x0001000100010001
GLOBL ptLo<>(SB), RODATA|NOPTR, $8
DATA ptHi<>+0(SB)/8, $0x8000800080008000
GLOBL ptHi<>(SB), RODATA|NOPTR, $8
DATA ptNotLo<>+0(SB)/8, $0xfffefffefffefffe
GLOBL ptNotLo<>(SB), RODATA|NOPTR, $8
DATA ptNotHi<>+0(SB)/8, $0x7fff7fff7fff7fff
GLOBL ptNotHi<>(SB), RODATA|NOPTR, $8

// 0…15 in each lane.
DATA ptIota<>+0(SB)/8, $0x0706050403020100
DATA ptIota<>+8(SB)/8, $0x0f0e0d0c0b0a0908
DATA ptIota<>+16(SB)/8, $0x0706050403020100
DATA ptIota<>+24(SB)/8, $0x0f0e0d0c0b0a0908
DATA ptIota<>+32(SB)/8, $0x0706050403020100
DATA ptIota<>+40(SB)/8, $0x0f0e0d0c0b0a0908
DATA ptIota<>+48(SB)/8, $0x0706050403020100
DATA ptIota<>+56(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL ptIota<>(SB), RODATA|NOPTR, $64

// Qword 0 of each lane of two registers, for VPERMT2Q.
DATA ptLanes<>+0(SB)/8, $0
DATA ptLanes<>+8(SB)/8, $2
DATA ptLanes<>+16(SB)/8, $4
DATA ptLanes<>+24(SB)/8, $6
DATA ptLanes<>+32(SB)/8, $8
DATA ptLanes<>+40(SB)/8, $10
DATA ptLanes<>+48(SB)/8, $12
DATA ptLanes<>+56(SB)/8, $14
GLOBL ptLanes<>(SB), RODATA|NOPTR, $64

// 10^0…10^15 as float64s: ScanFloat's pow10 up to what 16 bytes hold.
DATA ptPow10<>+0(SB)/8, $0x3ff0000000000000
DATA ptPow10<>+8(SB)/8, $0x4024000000000000
DATA ptPow10<>+16(SB)/8, $0x4059000000000000
DATA ptPow10<>+24(SB)/8, $0x408f400000000000
DATA ptPow10<>+32(SB)/8, $0x40c3880000000000
DATA ptPow10<>+40(SB)/8, $0x40f86a0000000000
DATA ptPow10<>+48(SB)/8, $0x412e848000000000
DATA ptPow10<>+56(SB)/8, $0x416312d000000000
DATA ptPow10<>+64(SB)/8, $0x4197d78400000000
DATA ptPow10<>+72(SB)/8, $0x41cdcd6500000000
DATA ptPow10<>+80(SB)/8, $0x4202a05f20000000
DATA ptPow10<>+88(SB)/8, $0x42374876e8000000
DATA ptPow10<>+96(SB)/8, $0x426d1a94a2000000
DATA ptPow10<>+104(SB)/8, $0x42a2309ce5400000
DATA ptPow10<>+112(SB)/8, $0x42d6bcc41e900000
DATA ptPow10<>+120(SB)/8, $0x430c6bf526340000
GLOBL ptPow10<>(SB), RODATA|NOPTR, $128

// The top L bits of 16, for a token of L bytes: its bytes in the lane.
DATA ptVMask<>+0(SB)/2, $0x0000
DATA ptVMask<>+2(SB)/2, $0x8000
DATA ptVMask<>+4(SB)/2, $0xc000
DATA ptVMask<>+6(SB)/2, $0xe000
DATA ptVMask<>+8(SB)/2, $0xf000
DATA ptVMask<>+10(SB)/2, $0xf800
DATA ptVMask<>+12(SB)/2, $0xfc00
DATA ptVMask<>+14(SB)/2, $0xfe00
DATA ptVMask<>+16(SB)/2, $0xff00
DATA ptVMask<>+18(SB)/2, $0xff80
DATA ptVMask<>+20(SB)/2, $0xffc0
DATA ptVMask<>+22(SB)/2, $0xffe0
DATA ptVMask<>+24(SB)/2, $0xfff0
DATA ptVMask<>+26(SB)/2, $0xfff8
DATA ptVMask<>+28(SB)/2, $0xfffc
DATA ptVMask<>+30(SB)/2, $0xfffe
DATA ptVMask<>+32(SB)/2, $0xffff
GLOBL ptVMask<>(SB), RODATA|NOPTR, $40

// TOKEN finds the comma that ends the token starting at BX, in the
// comma bits R10 (of the 64 bytes from R9) and R15 (the 64 after), and
// puts the 16 bytes ending there into lane LANE of X, their token bytes
// into V's 16 bits at SH; BX moves past the comma. A token of more than
// 16 bytes, or one whose 16 bytes would start before data, ends the
// step at it (STOP). SOFF is where the token's start is kept.
#define TOKEN(SOFF, LANE, SH, X, V, HAVE, STOP) \
	MOVQ BX, SOFF(SP); \
	TESTQ R10, R10; \
	JNZ HAVE; \
	MOVQ R15, R10; \
	XORL R15, R15; \
	ADDQ $64, R9; \
HAVE: \
	TZCNTQ R10, R11; \
	BLSRQ R10, R10; \
	ADDQ R9, R11; \
	MOVQ R11, R12; \
	SUBQ BX, R12; \
	CMPQ R12, $16; \
	JA STOP; \
	CMPQ R11, $16; \
	JB STOP; \
	MOVWQZX (DX)(R12*2), R12; \
	SHLQ $SH, R12; \
	ORQ R12, V; \
	VINSERTI32X4 $LANE, -16(SI)(R11*1), X, X; \
	LEAQ 1(R11), BX

// LANES reads the four tokens of X (token bytes V): MANT gets each
// lane's digits as one integer and SUM its count of bytes at or before
// its point, plus 32 for a minus sign, both in the lane's low qword. A
// lane whose bytes are not -?(0|[1-9][0-9]*)(\.[0-9]+)? sets its bit,
// shifted by SH, in R15.
//
// The checks run on byte masks (V token bytes, D digits, P points, M
// minus signs, Z zeros, F each lane's first token byte), a lane to 16
// bits; a bit shifted across a lane edge is cleared. A lane is bad where
// a token byte is none of D, P, M; a minus is not at F; the last byte is
// not a digit; a point has a point after it (K6) or no digit before it;
// or the integer part — from F, or after the minus — is a 0 with a digit
// after it. What passes is the grammar. The bytes of a lane at and
// before its point move up one by VPSHUFB, over the point, and the
// digits then reduce pairwise: bytes to words, words to dwords, two
// dwords of eight digits to one qword.
#define LANES(X, V, MANT, SUM, SH) \
	KMOVQ V, K1; \
	VMOVDQU8.Z X, K1, X; \
	VPSUBB Z28, X, Z2; \
	VPCMPUB $1, Z27, Z2, K2; \
	VPCMPEQB Z30, X, K3; \
	VPCMPEQB Z29, X, K4; \
	VPTESTNMB Z2, Z2, K2, K5; \
	VMOVDQU8.Z Z2, K2, Z3; \
	VPMOVM2B K3, Z4; \
	VPSRLDQ $1, Z4, Z5; \
	VPORQ Z5, Z4, Z4; \
	VPSRLDQ $2, Z4, Z5; \
	VPORQ Z5, Z4, Z4; \
	VPSRLDQ $4, Z4, Z5; \
	VPORQ Z5, Z4, Z4; \
	VPSRLDQ $8, Z4, Z5; \
	VPORQ Z5, Z4, Z4; \
	VPSRLDQ $1, Z4, Z5; \
	VPTESTMB Z5, Z5, K3, K6; \
	VPADDB Z22, Z4, Z5; \
	VPSHUFB Z5, Z3, Z3; \
	VPANDQ Z26, Z4, Z4; \
	VPADDB Z21, Z4, K4, Z4; \
	VPSADBW Z16, Z4, Z4; \
	VPSHUFD $0x4e, Z4, Z5; \
	VPADDQ Z5, Z4, SUM; \
	VPMADDUBSW Z25, Z3, Z3; \
	VPMADDWD Z24, Z3, Z3; \
	VPACKUSDW Z3, Z3, Z3; \
	VPMADDWD Z23, Z3, Z3; \
	VPMULUDQ.BCST pt1e8<>(SB), Z3, Z5; \
	VPSRLQ $32, Z3, Z3; \
	VPADDQ Z5, Z3, MANT; \
	KMOVQ K2, R9; \
	KMOVQ K3, R10; \
	KMOVQ K4, R11; \
	KMOVQ K5, R12; \
	KMOVQ K6, BX; \
	MOVQ R9, DX; \
	ORQ R10, DX; \
	ORQ R11, DX; \
	ANDNQ V, DX, DX; \
	ORQ DX, BX; \
	MOVQ V, DX; \
	SHLQ $1, DX; \
	ANDQ ptNotLo<>(SB), DX; \
	ANDNQ V, DX, DX; \
	ANDNQ R11, DX, V; \
	ORQ V, BX; \
	ANDNQ ptHi<>(SB), R9, V; \
	ORQ V, BX; \
	SHLQ $1, R11; \
	ANDQ ptNotLo<>(SB), R11; \
	ORQ R11, DX; \
	ANDQ R12, DX; \
	SHLQ $1, DX; \
	ANDQ ptNotLo<>(SB), DX; \
	ANDQ R9, DX; \
	ORQ DX, BX; \
	SHLQ $1, R9; \
	ANDQ ptNotLo<>(SB), R9; \
	ANDNQ R10, R9, R9; \
	ORQ R9, BX; \
	MOVQ BX, DX; \
	SHRQ $8, DX; \
	ORQ DX, BX; \
	MOVQ BX, DX; \
	SHRQ $4, DX; \
	ORQ DX, BX; \
	MOVQ BX, DX; \
	SHRQ $2, DX; \
	ORQ DX, BX; \
	MOVQ BX, DX; \
	SHRQ $1, DX; \
	ORQ DX, BX; \
	PEXTQ ptLo<>(SB), BX, BX; \
	SHLQ $SH, BX; \
	ORQ BX, R15

// func parseF32AVX512(dst []float32, data []byte, i int) (n, next int)
//
// Steps while dst has room for eight more and data 128 more bytes from
// the next token. The bad checks of a step, per token: its lane's
// (LANES), a mantissa of 2^53 or more, a float64 near a float32
// midpoint, and a token TOKEN did not reach. n counts the tokens before
// the first bad one; a step that takes all eight goes on.
//
// GPRs in TOKEN: SI data, DI dst, R8 len(dst), AX tokens taken, BX
// token start, CX tokens reached, DX the byte mask table, R9 comma block
// base, R10/R15 its comma bits, R11 comma, R12 length, R13/R14 token
// bytes of Z0/Z1; LANES takes all but SI, DI, R8, AX, CX and R14 as
// scratch (R15 for the bad lanes).
// Z0/Z1 tokens 0-3/4-7, Z10/Z11 their mantissas, Z12/Z13 their sums;
// constants: Z16 zero, Z18/Z19 10^0…10^15, Z20 the lane qwords, Z21 32,
// Z22 0…15, Z23…Z25 digit weights, Z26 one, Z27 ten, Z28 '0', Z29 '-',
// Z30 '.', Z31 ','. The frame holds the nine token starts of a step.
TEXT ·parseF32AVX512(SB), NOSPLIT, $72-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ data_base+24(FP), SI
	MOVQ i+48(FP), BX
	XORL AX, AX
	VPXORQ Z16, Z16, Z16
	VMOVDQU64 ptPow10<>+0(SB), Z18
	VMOVDQU64 ptPow10<>+64(SB), Z19
	VMOVDQU64 ptLanes<>(SB), Z20
	VPBROADCASTQ ptThirtyTwo<>(SB), Z21
	VMOVDQU64 ptIota<>(SB), Z22
	VPBROADCASTQ ptW1e4<>(SB), Z23
	VPBROADCASTQ ptW100<>(SB), Z24
	VPBROADCASTQ ptW10<>(SB), Z25
	VPBROADCASTQ ptOnes<>(SB), Z26
	VPBROADCASTQ ptTen<>(SB), Z27
	VPBROADCASTQ ptAscii0<>(SB), Z28
	VPBROADCASTQ ptMinus<>(SB), Z29
	VPBROADCASTQ ptDot<>(SB), Z30
	VPBROADCASTQ ptComma<>(SB), Z31

step:
	LEAQ 8(AX), R12
	CMPQ R12, R8
	JA   done
	LEAQ 128(BX), R12
	CMPQ R12, data_len+32(FP)
	JA   done
	LEAQ ptVMask<>(SB), DX
	MOVQ BX, R9
	VPCMPEQB (SI)(BX*1), Z31, K1
	KMOVQ K1, R10
	VPCMPEQB 64(SI)(BX*1), Z31, K1
	KMOVQ K1, R15
	XORL R13, R13
	XORL R14, R14
	MOVL $8, CX
	TOKEN(0, 0, 0, Z0, R13, have0, stop0)
	TOKEN(8, 1, 16, Z0, R13, have1, stop1)
	TOKEN(16, 2, 32, Z0, R13, have2, stop2)
	TOKEN(24, 3, 48, Z0, R13, have3, stop3)
	TOKEN(32, 0, 0, Z1, R14, have4, stop4)
	TOKEN(40, 1, 16, Z1, R14, have5, stop5)
	TOKEN(48, 2, 32, Z1, R14, have6, stop6)
	TOKEN(56, 3, 48, Z1, R14, have7, stop7)
	MOVQ BX, 64(SP)

lanes:
	XORL R15, R15
	LANES(Z0, R13, Z10, Z12, 0)
	LANES(Z1, R14, Z11, Z13, 4)
	VPERMT2Q Z11, Z20, Z10
	VPERMT2Q Z13, Z20, Z12

	// ScanFloat's exact path per token: float64(mant) / 10^f, f the
	// digits after the point, then the midpoint test and the sign. K1:
	// the tokens it takes.
	VPCMPUQ.BCST $1, pt2p53<>(SB), Z10, K1
	VPANDQ.BCST pt31<>(SB), Z12, Z5
	VPBROADCASTQ pt16<>(SB), Z6
	VPSUBQ Z5, Z6, Z5
	VPANDQ.BCST pt15<>(SB), Z5, Z5
	VPERMI2PD Z19, Z18, Z5
	VCVTUQQ2PD Z10, Z6
	VDIVPD Z5, Z6, Z6
	VPANDQ.BCST ptBelow<>(SB), Z6, Z7
	VPSUBQ.BCST ptMid<>(SB), Z7, Z7
	VPCMPUQ.BCST $6, ptTwo<>(SB), Z7, K1, K1
	VPSRLQ $5, Z12, Z7
	VPSLLQ $63, Z7, Z7
	VPXORQ Z7, Z6, Z6
	VCVTPD2PS Z6, Y6
	VMOVUPS Y6, (DI)(AX*4)

	KMOVB K1, R9
	ANDNL R9, R15, R9
	BZHIL CX, R9, R9
	NOTL R9
	TZCNTL R9, R9
	CMPQ R9, $8
	JNE  partial

	// A whole step: the next one's start and count do not wait for this
	// one's arithmetic, only for the branch.
	ADDQ $8, AX
	MOVQ 64(SP), BX
	JMP  step

partial:
	ADDQ R9, AX
	MOVQ (SP)(R9*8), BX

done:
	MOVQ AX, n+56(FP)
	MOVQ BX, next+64(FP)
	VZEROUPPER
	RET

stop0:
	MOVL $0, CX
	JMP  lanes
stop1:
	MOVL $1, CX
	JMP  lanes
stop2:
	MOVL $2, CX
	JMP  lanes
stop3:
	MOVL $3, CX
	JMP  lanes
stop4:
	MOVL $4, CX
	JMP  lanes
stop5:
	MOVL $5, CX
	JMP  lanes
stop6:
	MOVL $6, CX
	JMP  lanes
stop7:
	MOVL $7, CX
	JMP  lanes

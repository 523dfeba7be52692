//go:build amd64 && !noasm

// The float32 decimal records of ShortestF32 (shortest.go), eight floats
// to a ZMM register, one float per 64-bit lane. Each step is numjson's
// record32 (Schubfach, then SWAR digits) written for every lane at once:
// where the scalar code branches, both sides are computed and a mask
// picks. The file sorts after simd_amd64.s, so the linker places this
// kernel after the others and their code keeps its offsets.

#include "textflag.h"

DATA sfOne<>+0(SB)/8, $1
GLOBL sfOne<>(SB), RODATA|NOPTR, $8
DATA sfTwo<>+0(SB)/8, $2
GLOBL sfTwo<>(SB), RODATA|NOPTR, $8
DATA sfFour<>+0(SB)/8, $4
GLOBL sfFour<>(SB), RODATA|NOPTR, $8
DATA sfNine<>+0(SB)/8, $9
GLOBL sfNine<>(SB), RODATA|NOPTR, $8
DATA sfTen<>+0(SB)/8, $10
GLOBL sfTen<>(SB), RODATA|NOPTR, $8
DATA sfForty<>+0(SB)/8, $40
GLOBL sfForty<>(SB), RODATA|NOPTR, $8
DATA sf64<>+0(SB)/8, $64
GLOBL sf64<>(SB), RODATA|NOPTR, $8
DATA sfBias<>+0(SB)/8, $150
GLOBL sfBias<>(SB), RODATA|NOPTR, $8
DATA sfExpMask<>+0(SB)/8, $0xff
GLOBL sfExpMask<>(SB), RODATA|NOPTR, $8
DATA sfFracMask<>+0(SB)/8, $0x7fffff
GLOBL sfFracMask<>(SB), RODATA|NOPTR, $8
DATA sfHidden<>+0(SB)/8, $0x800000
GLOBL sfHidden<>(SB), RODATA|NOPTR, $8
DATA sfAbsMask<>+0(SB)/8, $0x7fffffff
GLOBL sfAbsMask<>(SB), RODATA|NOPTR, $8
DATA sfLog10<>+0(SB)/8, $1262611
GLOBL sfLog10<>(SB), RODATA|NOPTR, $8
DATA sfLog10Quarter<>+0(SB)/8, $524031
GLOBL sfLog10Quarter<>(SB), RODATA|NOPTR, $8
DATA sfNegLog2<>+0(SB)/8, $-1741647
GLOBL sfNegLog2<>(SB), RODATA|NOPTR, $8
DATA sfSticky<>+0(SB)/8, $0xfffffffe
GLOBL sfSticky<>(SB), RODATA|NOPTR, $8
DATA sfDiv10<>+0(SB)/8, $0xcccccccd
GLOBL sfDiv10<>(SB), RODATA|NOPTR, $8
DATA sfLog10Bits<>+0(SB)/8, $1233
GLOBL sfLog10Bits<>(SB), RODATA|NOPTR, $8
DATA sfDiv1e8<>+0(SB)/8, $1441151881
GLOBL sfDiv1e8<>(SB), RODATA|NOPTR, $8
DATA sf1e8<>+0(SB)/8, $100000000
GLOBL sf1e8<>(SB), RODATA|NOPTR, $8
DATA sfDiv1e4<>+0(SB)/8, $109951163
GLOBL sfDiv1e4<>(SB), RODATA|NOPTR, $8
DATA sf1e4<>+0(SB)/8, $10000
GLOBL sf1e4<>(SB), RODATA|NOPTR, $8
DATA sfAscii0<>+0(SB)/8, $0x30
GLOBL sfAscii0<>(SB), RODATA|NOPTR, $8
DATA sfAscii8<>+0(SB)/8, $0x3030303030303030
GLOBL sfAscii8<>(SB), RODATA|NOPTR, $8

// Word lanes: ⌈2^19/100⌉ for /100 by VPMULHUW and a shift of 3, ⌈2^16/10⌉
// for /10 by VPMULHUW alone, and the divisors.
DATA sfW5243<>+0(SB)/8, $0x147b147b147b147b
GLOBL sfW5243<>(SB), RODATA|NOPTR, $8
DATA sfW100<>+0(SB)/8, $0x0064006400640064
GLOBL sfW100<>(SB), RODATA|NOPTR, $8
DATA sfW6554<>+0(SB)/8, $0x199a199a199a199a
GLOBL sfW6554<>(SB), RODATA|NOPTR, $8
DATA sfW10<>+0(SB)/8, $0x000a000a000a000a
GLOBL sfW10<>(SB), RODATA|NOPTR, $8

// 10^0…10^9 as dwords, for VPERMD.
DATA sfPow10<>+0(SB)/4, $1
DATA sfPow10<>+4(SB)/4, $10
DATA sfPow10<>+8(SB)/4, $100
DATA sfPow10<>+12(SB)/4, $1000
DATA sfPow10<>+16(SB)/4, $10000
DATA sfPow10<>+20(SB)/4, $100000
DATA sfPow10<>+24(SB)/4, $1000000
DATA sfPow10<>+28(SB)/4, $10000000
DATA sfPow10<>+32(SB)/4, $100000000
DATA sfPow10<>+36(SB)/4, $1000000000
DATA sfPow10<>+40(SB)/4, $0
DATA sfPow10<>+44(SB)/4, $0
DATA sfPow10<>+48(SB)/4, $0
DATA sfPow10<>+52(SB)/4, $0
DATA sfPow10<>+56(SB)/4, $0
DATA sfPow10<>+60(SB)/4, $0
GLOBL sfPow10<>(SB), RODATA|NOPTR, $64

// ROUND_TO_ODD replaces the 32-bit multiplicand CP by roundToOdd(g, CP):
// g·CP is Z12·CP·2^32 + Z7·CP (the low halves, as VPMULUDQ reads them);
// bits 32…95 of it land in CP, the top 32 are the result, and its
// lowest bit is set if bits 33…63 are not all zero.
#define ROUND_TO_ODD(CP, T, K) \
	VPMULUDQ CP, Z7, T; \
	VPMULUDQ CP, Z12, CP; \
	VPSRLQ $32, T, T; \
	VPADDQ T, CP, CP; \
	VPTESTMQ.BCST sfSticky<>(SB), CP, K; \
	VPSRLQ $32, CP, CP; \
	VPORQ Z31, CP, K, CP

// func shortestF32AVX512(digits []uint64, heads []uint32, vals []float32, pow10 *uint64)
//
// Z0 bits, Z1 exponent field, Z2 c, Z3 q, Z4 k (then e10), Z5 h, Z7 g,
// Z12 g's high half, Z9/Z11/Z10 the interval's lower end, the value and
// its upper end (then lower, vb, upper), Z14 s (then d, D, the digits),
// Z15 the candidate 10^(k+1) multiple (then n, the first digit, the
// head). Constants: Z31 one, Z30 the fraction mask, Z29 10^0…10^9 in
// dwords, Z25…Z28 the word-lane divisors, Z24 "00000000", Z23 two, Z22
// 64, Z21 nine; K7 the even dwords.
TEXT ·shortestF32AVX512(SB), NOSPLIT, $0-80
	MOVQ digits_base+0(FP), DI
	MOVQ heads_base+24(FP), DX
	MOVQ vals_base+48(FP), SI
	MOVQ vals_len+56(FP), CX
	MOVQ pow10+72(FP), R8
	VPBROADCASTQ sfOne<>(SB), Z31
	VPBROADCASTQ sfFracMask<>(SB), Z30
	VMOVDQU32 sfPow10<>(SB), Z29
	VPBROADCASTQ sfW5243<>(SB), Z28
	VPBROADCASTQ sfW100<>(SB), Z27
	VPBROADCASTQ sfW6554<>(SB), Z26
	VPBROADCASTQ sfW10<>(SB), Z25
	VPBROADCASTQ sfAscii8<>(SB), Z24
	VPBROADCASTQ sfTwo<>(SB), Z23
	VPBROADCASTQ sf64<>(SB), Z22
	VPBROADCASTQ sfNine<>(SB), Z21
	MOVL $0x5555, AX
	KMOVW AX, K7

sf8:
	// c·2^q: c = frac, with the hidden bit where exp != 0; q = max(exp, 1) - 150.
	VPMOVZXDQ (SI), Z0
	VPSRLQ $23, Z0, Z1
	VPANDQ.BCST sfExpMask<>(SB), Z1, Z1
	VPANDQ Z30, Z0, Z2
	VPTESTNMQ Z30, Z0, K2           // frac == 0
	VPCMPUQ $6, Z31, Z1, K3         // exp > 1
	KANDW K2, K3, K2                // K2: lowerCloser
	VPTESTMQ Z1, Z1, K3
	VPORQ.BCST sfHidden<>(SB), Z2, K3, Z2
	VPMAXUQ Z31, Z1, Z3
	VPSUBQ.BCST sfBias<>(SB), Z3, Z3

	// k = ⌊log10 2^q⌋ (⌊log10 ¾·2^q⌋ at a power of two), h = q + ⌊log2 10^-k⌋ + 1.
	VPMULDQ.BCST sfLog10<>(SB), Z3, Z4
	VPSUBQ.BCST sfLog10Quarter<>(SB), Z4, K2, Z4
	VPSRAQ $22, Z4, Z4
	VPMULDQ.BCST sfNegLog2<>(SB), Z4, Z5
	VPSRAQ $19, Z5, Z5
	VPADDQ Z3, Z5, Z5
	VPADDQ Z31, Z5, Z5

	// g = pow10[31-k]: 31·8 bytes in, then -k entries.
	VPXORQ Z6, Z6, Z6
	VPSUBQ Z4, Z6, Z6
	KXNORW K1, K1, K1
	VPGATHERQQ 248(R8)(Z6*8), K1, Z7
	VPSRLQ $32, Z7, Z12

	// The interval's ends and the value in quarters of 2^q, shifted by h,
	// scaled and rounded to odd.
	VPSLLQ $2, Z2, Z11
	VPSUBQ Z23, Z11, Z9
	VPADDQ Z31, Z9, K2, Z9
	VPADDQ Z23, Z11, Z10
	VPSLLVQ Z5, Z9, Z9
	VPSLLVQ Z5, Z11, Z11
	VPSLLVQ Z5, Z10, Z10
	ROUND_TO_ODD(Z9, Z13, K3)
	ROUND_TO_ODD(Z11, Z13, K3)
	ROUND_TO_ODD(Z10, Z13, K3)

	// lower = vbl + c&1, upper = vbr - c&1, s = vb/4.
	VPANDQ Z31, Z2, Z13
	VPADDQ Z13, Z9, Z9
	VPSUBQ Z13, Z10, Z10
	VPSRLQ $2, Z11, Z14

	// K3: s >= 10 and exactly one of sp = s/10 and sp+1 is inside, Z15
	// that one (in tens of 10^k).
	VPMULUDQ.BCST sfDiv10<>(SB), Z14, Z15
	VPSRLQ $35, Z15, Z15
	VPMULUDQ.BCST sfForty<>(SB), Z15, Z16
	VPCMPUQ $2, Z16, Z9, K3         // lower <= 40sp
	VPADDQ.BCST sfForty<>(SB), Z16, Z16
	VPCMPUQ $2, Z10, Z16, K4        // 40sp+40 <= upper
	VPCMPUQ.BCST $5, sfTen<>(SB), Z14, K5
	KXORW K3, K4, K3
	KANDW K5, K3, K3
	VPADDQ Z31, Z15, K4, Z15

	// Otherwise s or s+1: the one inside if only one is, else the nearer,
	// the even one at a tie. K5: s+1.
	VPSLLQ $2, Z14, Z16
	VPCMPUQ $2, Z16, Z9, K4         // lower <= 4s
	VPADDQ.BCST sfFour<>(SB), Z16, Z17
	VPCMPUQ $2, Z10, Z17, K5        // 4s+4 <= upper
	KXORW K4, K5, K4                // one end decides
	KANDW K4, K5, K5
	VPADDQ Z23, Z16, Z16            // mid = 4s+2
	VPCMPUQ $6, Z16, Z11, K6        // vb > mid
	VPCMPEQQ Z16, Z11, K2           // vb == mid
	VPTESTMQ Z31, Z14, K2, K2       // ... and s odd
	KORW K2, K6, K6
	KANDNW K6, K4, K6
	KORW K5, K6, K5
	VPADDQ Z31, Z14, K5, Z14
	VMOVDQA64 Z15, K3, Z14          // d
	VPADDQ Z31, Z4, K3, Z4          // its k

	// ±0: d = 0 and k = 1, so that n = 0 and e10 = 0.
	VPTESTNMQ.BCST sfAbsMask<>(SB), Z0, K2
	VPXORQ Z14, Z14, K2, Z14
	VMOVDQA64 Z31, K2, Z4

	// n = digits of d: t from the bit length, then one comparison;
	// e10 = k + n - 1 and D = d·10^(9-n).
	VPLZCNTQ Z14, Z15
	VPSUBQ Z15, Z22, Z15
	VPMULUDQ.BCST sfLog10Bits<>(SB), Z15, Z15
	VPSRLQ $12, Z15, Z15
	VPERMD.Z Z29, Z15, K7, Z16
	VPCMPUQ $5, Z16, Z14, K3        // d >= 10^t
	VPADDQ Z31, Z15, K3, Z15
	VPADDQ Z15, Z4, Z4
	VPSUBQ Z31, Z4, Z4
	VPSUBQ Z15, Z21, Z16
	VPERMD.Z Z29, Z16, K7, Z16
	VPMULUDQ Z16, Z14, Z14

	// The first digit, and the other eight by SWAR: four per dword, two
	// per word, one per byte.
	VPMULUDQ.BCST sfDiv1e8<>(SB), Z14, Z15
	VPSRLQ $57, Z15, Z15
	VPMULUDQ.BCST sf1e8<>(SB), Z15, Z16
	VPSUBQ Z16, Z14, Z14
	VPMULUDQ.BCST sfDiv1e4<>(SB), Z14, Z16
	VPSRLQ $40, Z16, Z16
	VPMULUDQ.BCST sf1e4<>(SB), Z16, Z17
	VPSUBQ Z17, Z14, Z14
	VPSLLQ $32, Z14, Z14
	VPORQ Z16, Z14, Z14
	VPMULHUW Z28, Z14, Z16
	VPSRLW $3, Z16, Z16
	VPMULLW Z27, Z16, Z17
	VPSUBW Z17, Z14, Z14
	VPSLLD $16, Z14, Z14
	VPORD Z16, Z14, Z14
	VPMULHUW Z26, Z14, Z16
	VPMULLW Z25, Z16, Z17
	VPSUBW Z17, Z14, Z14
	VPSLLW $8, Z14, Z14
	VPORQ Z16, Z14, Z14

	// The zero digits D ends in are its leading zero bytes: n = 9 - lz/8.
	VPLZCNTQ Z14, Z16
	VPORQ Z24, Z14, Z14
	VPSRLQ $3, Z16, Z16
	VPSUBQ Z16, Z21, Z16

	// head = '0'+d1 | n<<8 | uint8(e10)<<16 | sign<<24; NaN and ±Inf keep
	// the sign alone and no digits.
	VPADDQ.BCST sfAscii0<>(SB), Z15, Z15
	VPSLLQ $8, Z16, Z16
	VPORQ Z16, Z15, Z15
	VPANDQ.BCST sfExpMask<>(SB), Z4, Z4
	VPSLLQ $16, Z4, Z4
	VPORQ Z4, Z15, Z15
	VPSRLQ $31, Z0, Z16
	VPSLLQ $24, Z16, Z16
	VPORQ Z16, Z15, Z15
	VPCMPEQQ.BCST sfExpMask<>(SB), Z1, K2
	VMOVDQA64 Z16, K2, Z15
	VPXORQ Z14, Z14, K2, Z14

	VMOVDQU64 Z14, (DI)
	VPMOVQD Z15, (DX)
	ADDQ $32, SI
	ADDQ $64, DI
	ADDQ $32, DX
	SUBQ $8, CX
	JNZ  sf8
	VZEROUPPER
	RET

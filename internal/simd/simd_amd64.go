//go:build amd64 && !noasm

package simd

// haveAVX2 reports whether the CPU and OS support AVX2: CPUID leaf 7
// advertises the instructions, CPUID leaf 1 advertises OSXSAVE+AVX, and
// XGETBV confirms the OS preserves the XMM+YMM register state across
// context switches.
var haveAVX2 = detectAVX2()

// haveAVX512 additionally requires AVX-512 F+VL+CD+BW+VNNI plus the OS
// enabling the opmask/upper-ZMM register state in XCR0. It selects the
// 512-bit conv tiles (ZMM registers, VPDPWSSD), the int8 depthwise
// kernel (VPDPWSSD on YMM), the requantization (EVEX 64-bit lane shifts
// and narrows on YMM) and the float32 decimal records (VPLZCNTQ, word
// multiplies on ZMM); without it those run AVX2 or Go. Every CPU with
// VNNI has CD and BW; they are checked because the records use them.
var haveAVX512 = detectAVX512()

func detectAVX512() bool {
	if !haveAVX2 {
		return false
	}
	if xlo, _ := xgetbv(); xlo&0xE6 != 0xE6 {
		return false
	}
	_, b7, c7, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	const avx512cd = 1 << 28
	const avx512bw = 1 << 30
	const avx512vl = 1 << 31
	const avx512vnni = 1 << 11 // ECX
	const need = avx512f | avx512cd | avx512bw | avx512vl
	return b7&need == need && c7&avx512vnni != 0
}

// haveParseF32 adds what ParseF32's kernel alone needs: AVX-512 DQ for
// VCVTUQQ2PD and BMI1/BMI2 for its scalar mask work. It gates nothing
// else, so a host without them keeps every other avx512 kernel.
var haveParseF32 = haveAVX512 && detectParseF32()

func detectParseF32() bool {
	_, b7, _, _ := cpuid(7, 0)
	const bmi1 = 1 << 3
	const bmi2 = 1 << 8
	const avx512dq = 1 << 17
	const need = bmi1 | bmi2 | avx512dq
	return b7&need == need
}

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	if xlo, _ := xgetbv(); xlo&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// convTileF32SIMD requires a.lanes a positive multiple of 8 and a.p,
// a.n, a.rows > 0.
//
//go:noescape
func convTileF32SIMD(a *tileArgs)

// depthwiseF32SIMD has convTileF32SIMD's requirements.
//
//go:noescape
func depthwiseF32SIMD(a *tileArgs)

// reluF32SIMD requires len(x) > 0 and a multiple of 8.
//
//go:noescape
func reluF32SIMD(x []float32)

// relu6F32SIMD requires len(x) > 0 and a multiple of 8.
//
//go:noescape
func relu6F32SIMD(x []float32)

// maxF32SIMD requires len(dst) > 0 and a multiple of 8, len(src) >=
// len(dst).
//
//go:noescape
func maxF32SIMD(dst, src []float32)

// maxI8SIMD requires len(dst) > 0 and a multiple of 16, len(src) >=
// len(dst).
//
//go:noescape
func maxI8SIMD(dst, src []int8)

// quantizeI8SIMD requires len(dst) > 0 and a multiple of 8, len(src) >=
// len(dst) and scale nonzero.
//
//go:noescape
func quantizeI8SIMD(dst []int8, src []float32, scale float64, zp int32)

// packPairsSIMD requires len(in) > 0 and a multiple of 16; it writes
// len(in)/2 uint32 pairs.
//
//go:noescape
func packPairsSIMD(vp []uint32, in []int8, zp int32)

// packPixelsSIMD runs steps > 0 steps of a; every step reads 16 bytes of
// in and writes 32 bytes of vp, which must both be there.
//
//go:noescape
func packPixelsSIMD(vp []uint32, in []int8, steps int, a *pixelPackArgs)

// packTapPairsSIMD writes len(vp)/ch > 0 positions, ch a positive
// multiple of 8; position p reads ch bytes at p*inStep and ch bytes at
// p*inStep+hiOff.
//
//go:noescape
func packTapPairsSIMD(vp []uint32, in []int8, ch, inStep, hiOff int, zp int32, mask uint32)

// convTileI8SIMD has convTileF32SIMD's requirements.
//
//go:noescape
func convTileI8SIMD(a *tileArgs)

// convTileF32AVX512 and convTileI8AVX512 are the tiles at ZMM width:
// a.lanes a positive multiple of 16, and haveAVX512.
//
//go:noescape
func convTileF32AVX512(a *tileArgs)

//go:noescape
func convTileI8AVX512(a *tileArgs)

// depthwisePairsI8SIMD has convTileF32SIMD's requirements and needs
// haveAVX512 and a Requant its vector method accepts.
//
//go:noescape
func depthwisePairsI8SIMD(a *dwI8Args)

// requantI8SIMD requires len(dst) == len(acc) > 0, a multiple of 8, and
// haveAVX512 and a Requant its vector method accepts.
//
//go:noescape
func requantI8SIMD(dst []int8, acc []int32, a *requantArgs)

// butterflyF32SIMD requires len(wr) == len(wi) positive and even,
// len(im) == len(re) and len(re) a positive multiple of 2*len(wr).
//
//go:noescape
func butterflyF32SIMD(re, im, wr, wi []float32)

// realPowerF32SIMD writes bins 1 to len(dst) of RealPowerF32 into dst:
// len(dst) a positive multiple of 8 below h = len(re) == len(im), wr and
// wi the twiddles from bin 1 on.
//
//go:noescape
func realPowerF32SIMD(dst, re, im, wr, wi []float32, scale float32)

// blendDivF32SIMD requires len(dst) a positive multiple of 8 and len(a),
// len(b) >= len(dst).
//
//go:noescape
func blendDivF32SIMD(dst, a, b []float32, wa, wb, div float32)

// shortestF32AVX512 requires len(vals) a positive multiple of 8,
// len(digits) and len(heads) >= len(vals), pow10 ShortestF32's table,
// and haveAVX512.
//
//go:noescape
func shortestF32AVX512(digits []uint64, heads []uint32, vals []float32, pow10 *uint64)

// parseF32AVX512 requires 0 <= i <= len(data), haveAVX512 and
// haveParseF32.
//
//go:noescape
func parseF32AVX512(dst []float32, data []byte, i int) (n, next int)

//go:build !amd64 || noasm

package simd

// Builds without the amd64 assembly (other architectures, and the noasm
// tag CI uses to keep the portable path honest) run the Go references;
// the tier is TierGo and the stubs below are unreachable.
const haveAVX2 = false

const haveAVX512 = false

const haveParseF32 = false

func convTileF32SIMD(a *tileArgs)      { panic("simd: assembly path in a build without it") }
func depthwiseF32SIMD(a *tileArgs)     { panic("simd: assembly path in a build without it") }
func reluF32SIMD(x []float32)          { panic("simd: assembly path in a build without it") }
func relu6F32SIMD(x []float32)         { panic("simd: assembly path in a build without it") }
func maxF32SIMD(dst, src []float32)    { panic("simd: assembly path in a build without it") }
func maxI8SIMD(dst, src []int8)        { panic("simd: assembly path in a build without it") }
func convTileI8SIMD(a *tileArgs)       { panic("simd: assembly path in a build without it") }
func convTileF32AVX512(a *tileArgs)    { panic("simd: assembly path in a build without it") }
func convTileI8AVX512(a *tileArgs)     { panic("simd: assembly path in a build without it") }
func depthwisePairsI8SIMD(a *dwI8Args) { panic("simd: assembly path in a build without it") }

func quantizeI8SIMD(dst []int8, src []float32, scale float64, zp int32) {
	panic("simd: assembly path in a build without it")
}

func packPairsSIMD(vp []uint32, in []int8, zp int32) {
	panic("simd: assembly path in a build without it")
}

func packPixelsSIMD(vp []uint32, in []int8, steps int, a *pixelPackArgs) {
	panic("simd: assembly path in a build without it")
}

func packTapPairsSIMD(vp []uint32, in []int8, ch, inStep, hiOff int, zp int32, mask uint32) {
	panic("simd: assembly path in a build without it")
}

func requantI8SIMD(dst []int8, acc []int32, a *requantArgs) {
	panic("simd: assembly path in a build without it")
}

func butterflyF32SIMD(re, im, wr, wi []float32) {
	panic("simd: assembly path in a build without it")
}

func realPowerF32SIMD(dst, re, im, wr, wi []float32, scale float32) {
	panic("simd: assembly path in a build without it")
}

func blendDivF32SIMD(dst, a, b []float32, wa, wb, div float32) {
	panic("simd: assembly path in a build without it")
}

func shortestF32AVX512(digits []uint64, heads []uint32, vals []float32, pow10 *uint64) {
	panic("simd: assembly path in a build without it")
}

func parseF32AVX512(dst []float32, data []byte, i int) (n, next int) {
	panic("simd: assembly path in a build without it")
}

func minMaxF32SIMD(x []float32, lanes *[16]float32) {
	panic("simd: assembly path in a build without it")
}

func absMaxF32SIMD(x []float32, lanes *[8]float32) {
	panic("simd: assembly path in a build without it")
}

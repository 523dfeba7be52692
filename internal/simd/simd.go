// Package simd provides the vectorized inner loops behind the float32
// and int8 inference kernels: register-tiled convolution (the body of
// conv2d/conv1d/dense), the depthwise pixel kernel, input quantization
// and pair packing, requantization, pooling maxima and the fused
// activation clamps; and behind the DSP front ends: the real FFT's
// radix-2 butterfly stages and unpack into a power spectrum, and the
// image resize's vertical blend.
//
// A conv tile is a run of P output pixels that share one tap window.
// The kernel walks it four pixels at a time (then one at a time) by 16
// output lanes (then 8), keeps that block's accumulators in registers
// from the bias load through the whole reduction — every kernel row,
// every tap of the row, every input channel — and stores each output
// once. The depthwise kernel does the same per pixel, four 8-lane
// channel blocks at a time, and in int8 requantizes from the registers.
//
// On amd64 with AVX2 the primitives dispatch to hand-written assembly;
// everywhere else (under the noasm build tag, and when a test calls
// SetEnabled(false)) they run a pure Go reference. Both paths are
// bit-for-bit identical:
//
//   - Float kernels use separate multiply and add instructions
//     (VMULPS + VADDPS), never FMA, so every product and every partial
//     sum is rounded to float32 exactly as the scalar Go expression
//     `s += v * w` rounds it, and per output lane the accumulation order
//     is bias, then kernel row, then tap, then input channel in both
//     paths and for every tile width.
//   - The FFT primitives and BlendDivF32 evaluate every lane as the
//     scalar expression of their Go reference, one VMULPS, VADDPS,
//     VSUBPS or VDIVPS per Go operator, so each intermediate rounds to
//     float32 identically.
//   - Integer kernels are exact: int32 addition and multiplication are
//     associative and wrap identically in Go and in VPMADDWD/VPMULLD
//     lanes, so any regrouping (the assembly pairs adjacent input lanes)
//     yields the same accumulator bits.
//
// The EON-vs-interpreter story of the source paper rests on quantized
// kernels beating float on real hardware (CMSIS-NN's SMLAD dual-MAC is
// the canonical example); ConvTileI8's VPMADDWD inner loop is the x86
// equivalent — two int16 lanes per multiply.
package simd

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// enabled gates the assembly fast paths; it is true only on amd64 with
// AVX2 support (and may be cleared via SetEnabled for testing).
var enabled atomic.Bool

func init() {
	enabled.Store(haveAVX2)
}

// Enabled reports whether the vectorized fast paths are active.
func Enabled() bool { return enabled.Load() }

// SetEnabled forces the fast paths on or off. Enabling has no effect on
// platforms without AVX2 support. It exists so tests and benchmarks can
// compare the assembly and reference implementations.
func SetEnabled(on bool) { enabled.Store(on && haveAVX2) }

// Tile is the geometry of one kernel call: a run of P output pixels
// whose windows hold the same taps. Each pixel reduces Rows segments of
// its input, N steps each; consecutive steps are consecutive in memory.
// A step is one input element for ConvTileF32 (N = taps in the row ×
// input channels), one packed pair for ConvTileI8, and one tap — a
// whole channel row — for the depthwise kernels. Strides count elements
// of the slice they index (pairs for a packed input and its weights).
type Tile struct {
	P           int // output pixels in the run
	N           int // reduction steps per row segment
	Rows        int // row segments (valid kernel rows)
	PixStride   int // input distance between adjacent output pixels
	InRowStride int // input distance between row segments
	WRowStride  int // weight distance between row segments
}

// checked panics unless a kernel that reads step input elements and nf
// weight lanes per reduction step stays inside its slices. It returns t
// with an empty reduction normalized to Rows = 0.
func (t Tile) checked(name string, nf, step, dstLen, wLen, inLen int) Tile {
	if t.P < 0 || t.N < 0 || t.Rows < 0 || t.PixStride < 0 || t.InRowStride < 0 || t.WRowStride < 0 {
		panic("simd: " + name + " negative tile geometry")
	}
	if t.P*nf > dstLen {
		panic("simd: " + name + " output out of bounds")
	}
	if t.P == 0 || t.N == 0 || t.Rows == 0 {
		t.Rows = 0
		return t
	}
	if (t.P-1)*t.PixStride+(t.Rows-1)*t.InRowStride+t.N*step > inLen {
		panic("simd: " + name + " input out of bounds")
	}
	if (t.Rows-1)*t.WRowStride+t.N*nf > wLen {
		panic("simd: " + name + " weights out of bounds")
	}
	return t
}

// tileArgs is what the assembly kernels read; every distance is in
// bytes. The field order is the assembly's (simd_amd64.s).
type tileArgs struct {
	dst, bias, w, in unsafe.Pointer
	pitch            int // bytes between the outputs of adjacent pixels
	lanes            int // output lanes to compute, a multiple of 8
	p, n, rows       int
	pixStride        int
	inRowStride      int
	wRowStride       int
}

// args is t for the assembly: nf output lanes per pixel of which lanes
// are computed, input and weight elements size bytes wide and output
// elements outSize bytes wide. The slices are non-empty (checked).
func args[D, B, W, I any](t Tile, dst []D, bias []B, w []W, in []I, lanes, size, outSize int) tileArgs {
	return tileArgs{
		dst: unsafe.Pointer(&dst[0]), bias: unsafe.Pointer(&bias[0]), w: unsafe.Pointer(&w[0]), in: unsafe.Pointer(&in[0]),
		pitch: len(bias) * outSize, lanes: lanes, p: t.P, n: t.N, rows: t.Rows,
		pixStride: t.PixStride * size, inRowStride: t.InRowStride * size, wRowStride: t.WRowStride * size,
	}
}

// ConvTileF32 computes len(bias) output lanes of t.P pixels:
//
//	dst[p*nf+f] = bias[f] + Σ_r Σ_j in[p*PixStride+r*InRowStride+j] * w[r*WRowStride+j*nf+f]
//
// with r, then j, increasing per output lane (bitwise-stable float
// accumulation). One row segment is the valid taps of one kernel row
// times the input channels — contiguous in an HWC input and in HWIO
// weights — so conv2d, conv1d (Rows = 1) and dense (one pixel, one row)
// are all this call.
func ConvTileF32(dst, bias, w, in []float32, t Tile) {
	nf := len(bias)
	t = t.checked("ConvTileF32", nf, 1, len(dst), len(w), len(in))
	if t.P == 0 || nf == 0 {
		return
	}
	f0 := 0
	if nf >= 8 && t.Rows > 0 && enabled.Load() {
		f0 = nf &^ 7
		a := args(t, dst, bias, w, in, f0, 4, 4)
		convTileF32SIMD(&a)
	}
	if f0 < nf {
		convTileF32Go(dst, bias, w, in, t, f0)
	}
}

// convTileF32Go is the reference for output lanes [f0, nf): rank-1
// updates in (row, step) order, the accumulation order of the classic
// filter-major loop.
func convTileF32Go(dst, bias, w, in []float32, t Tile, f0 int) {
	nf := len(bias)
	for p := 0; p < t.P; p++ {
		d := dst[p*nf+f0 : (p+1)*nf]
		copy(d, bias[f0:])
		for r := 0; r < t.Rows; r++ {
			x := in[p*t.PixStride+r*t.InRowStride:][:t.N]
			wr := w[r*t.WRowStride:]
			for j, v := range x {
				for f, wv := range wr[j*nf+f0 : (j+1)*nf] {
					d[f] += v * wv
				}
			}
		}
	}
}

// DepthwiseF32 computes t.P pixels of a depthwise convolution over
// ch = len(bias) channels, one reduction step per tap:
//
//	dst[p*ch+c] = bias[c] + Σ_r Σ_k in[p*PixStride+r*InRowStride+k*ch+c] * w[r*WRowStride+k*ch+c]
//
// with r, then k, increasing per channel.
func DepthwiseF32(dst, bias, w, in []float32, t Tile) {
	ch := len(bias)
	t = t.checked("DepthwiseF32", ch, ch, len(dst), len(w), len(in))
	if t.P == 0 || ch == 0 {
		return
	}
	c0 := 0
	if ch >= 8 && t.Rows > 0 && enabled.Load() {
		c0 = ch &^ 7
		a := args(t, dst, bias, w, in, c0, 4, 4)
		depthwiseF32SIMD(&a)
	}
	if c0 < ch {
		depthwiseF32Go(dst, bias, w, in, t, c0)
	}
}

// depthwiseF32Go is the reference for channels [c0, ch).
func depthwiseF32Go(dst, bias, w, in []float32, t Tile, c0 int) {
	ch := len(bias)
	for p := 0; p < t.P; p++ {
		d := dst[p*ch+c0 : (p+1)*ch]
		copy(d, bias[c0:])
		for r := 0; r < t.Rows; r++ {
			x := in[p*t.PixStride+r*t.InRowStride:]
			wr := w[r*t.WRowStride:]
			for k := 0; k < t.N; k++ {
				xs := x[k*ch+c0 : (k+1)*ch]
				for c, wv := range wr[k*ch+c0 : (k+1)*ch] {
					d[c] += xs[c] * wv
				}
			}
		}
	}
}

// ReLUF32 clamps negatives to zero in place. NaNs and -0 propagate
// exactly as the scalar `if v < 0 { v = 0 }` does.
func ReLUF32(x []float32) {
	if enabled.Load() {
		if n8 := len(x) &^ 7; n8 > 0 {
			reluF32SIMD(x[:n8])
		}
		x = x[len(x)&^7:]
	}
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// ReLU6F32 clamps to [0, 6] in place with scalar-identical NaN behavior.
func ReLU6F32(x []float32) {
	if enabled.Load() {
		if n8 := len(x) &^ 7; n8 > 0 {
			relu6F32SIMD(x[:n8])
		}
		x = x[len(x)&^7:]
	}
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		} else if v > 6 {
			x[i] = 6
		}
	}
}

// MaxF32 keeps the running maxima of a pooling window: dst[i] = src[i]
// wherever src[i] > dst[i], so a NaN in src never wins and -0 does not
// replace +0, exactly as the scalar comparison. len(src) must equal
// len(dst).
func MaxF32(dst, src []float32) {
	if len(src) != len(dst) {
		panic("simd: MaxF32 length mismatch")
	}
	n8 := 0
	if enabled.Load() {
		if n8 = len(dst) &^ 7; n8 > 0 {
			maxF32SIMD(dst[:n8], src)
		}
	}
	for i := n8; i < len(dst); i++ {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// MaxI8 is MaxF32 for int8 lanes.
func MaxI8(dst, src []int8) {
	if len(src) != len(dst) {
		panic("simd: MaxI8 length mismatch")
	}
	n16 := 0
	if enabled.Load() {
		if n16 = len(dst) &^ 15; n16 > 0 {
			maxI8SIMD(dst[:n16], src)
		}
	}
	for i := n16; i < len(dst); i++ {
		dst[i] = max(dst[i], src[i])
	}
}

// QuantizeI8 maps src to the int8 domain real = scale*(q - zp), scale
// nonzero: dst[i] = clamp(int32(round(float64(src[i])/float64(scale))) +
// zp, -128, 127) with halves rounded away from zero, the conversion Go
// performs (on amd64 NaN and anything outside int32 convert to
// math.MinInt32 in both paths) and int32 wrap-around on the zero-point
// add. len(dst) must equal len(src).
func QuantizeI8(dst []int8, src []float32, scale float32, zp int32) {
	if len(dst) != len(src) {
		panic("simd: QuantizeI8 length mismatch")
	}
	n8 := 0
	if enabled.Load() {
		if n8 = len(src) &^ 7; n8 > 0 {
			quantizeI8SIMD(dst[:n8], src, float64(scale), zp)
		}
	}
	for i := n8; i < len(src); i++ {
		x := float64(src[i]) / float64(scale)
		// math.Round(x) without the call: adding the largest double
		// below one half, away from zero, carries exactly the values
		// whose fraction is at least one half into the next integer
		// (x + 0.5 would also carry the double just below a half).
		r := math.Trunc(x + math.Copysign(0.49999999999999994, x))
		q := int32(r) + zp
		if q < -128 {
			q = -128
		} else if q > 127 {
			q = 127
		}
		dst[i] = int8(q)
	}
}

// PackPairs packs zero-point-centered input lanes into the uint32 pair
// stream ConvTileI8 consumes: vp[cp] holds (in[2cp]-zp) in the low 16
// bits and (in[2cp+1]-zp) in the high 16, both as int16 bit patterns.
// An odd trailing lane packs with a zero high half (its phantom partner
// multiplies a zero weight lane, see PairWeights). Returns the number
// of pairs written; vp must have capacity for (len(in)+1)/2.
func PackPairs(vp []uint32, in []int8, zp int32) int {
	n := len(in) / 2
	_ = vp[:(len(in)+1)/2]
	i := 0
	if n16 := len(in) &^ 15; n16 > 0 && enabled.Load() {
		packPairsSIMD(vp[:n16/2], in[:n16], zp)
		i = n16
	}
	for ; i+1 < len(in); i += 2 {
		v0 := uint32(uint16(int32(in[i]) - zp))
		v1 := uint32(uint16(int32(in[i+1]) - zp))
		vp[i/2] = v0 | v1<<16
	}
	if len(in)%2 == 1 {
		vp[n] = uint32(uint16(int32(in[len(in)-1]) - zp))
		n++
	}
	return n
}

// ConvTileI8 is ConvTileF32 for a packed input-pair stream (see
// PackPairs) and pair-interleaved int16 weight lanes (see PairWeights),
// accumulating in int32 from an int32 bias:
//
//	acc[p*nf+f] = bias[f] + Σ_r Σ_j v0(j)*wPair[(r*WRowStride+j*nf+f)*2] +
//	                                v1(j)*wPair[(r*WRowStride+j*nf+f)*2+1]
//
// where (v0, v1)(j) is the pair vp[p*PixStride+r*InRowStride+j]. Integer
// arithmetic is exact, so any lane pairing is bitwise-identical to the
// unpaired scalar accumulation.
func ConvTileI8(acc, bias []int32, wPair []int16, vp []uint32, t Tile) {
	nf := len(bias)
	t = t.checked("ConvTileI8", nf, 1, len(acc), len(wPair)/2, len(vp))
	if t.P == 0 || nf == 0 {
		return
	}
	f0 := 0
	if nf >= 8 && t.Rows > 0 && enabled.Load() {
		f0 = nf &^ 7
		a := args(t, acc, bias, wPair, vp, f0, 4, 4)
		convTileI8SIMD(&a)
	}
	if f0 < nf {
		convTileI8Go(acc, bias, wPair, vp, t, f0)
	}
}

// unpackPair splits a packed pair back into its int32 lane values.
func unpackPair(p uint32) (v0, v1 int32) {
	return int32(int16(p)), int32(int16(p >> 16))
}

// convTileI8Go is the reference for output lanes [f0, nf).
func convTileI8Go(acc, bias []int32, wPair []int16, vp []uint32, t Tile, f0 int) {
	nf := len(bias)
	for p := 0; p < t.P; p++ {
		d := acc[p*nf+f0 : (p+1)*nf]
		copy(d, bias[f0:])
		for r := 0; r < t.Rows; r++ {
			x := vp[p*t.PixStride+r*t.InRowStride:][:t.N]
			wr := wPair[r*t.WRowStride*2:]
			for j, pair := range x {
				v0, v1 := unpackPair(pair)
				row := wr[(j*nf+f0)*2 : (j+1)*nf*2]
				for f := range d {
					d[f] += v0*int32(row[2*f]) + v1*int32(row[2*f+1])
				}
			}
		}
	}
}

// Requant holds the parameters that take an int32 accumulator to the
// quantized int8 output domain: a doubling high multiply by the Q31
// mantissa Mult after a left Shift, or followed by a right shift
// rounding halves up when Shift is negative, int32 saturation, add the
// output zero point ZP (int32 wrap), clamp to [Lo, Hi].
//
// The high multiply adds gemmlowp's nudge (2^30, or 1-2^30 for a
// negative product) and then floors (>> 31), where TFLite's
// SaturatingRoundingDoublingHighMul truncates toward zero. Under a right
// shift of one or more the rounding shift absorbs the difference and
// the result is TFLite's; at Shift >= 0 (a real multiplier of 0.5 or
// more) a negative product whose high half is inexact comes out one
// below TFLite's. No op of the reference models has such a multiplier
// (quant's TestReferenceModelsRequantMatchTFLite).
type Requant struct {
	Mult       int32
	Shift      int
	ZP, Lo, Hi int32
}

// Apply requantizes one accumulator as Requant describes — TFLM's
// MultiplyByQuantizedMultiplier followed by zero point and clamp, except
// for the floor at Shift >= 0; it is the reference the vector paths are
// held to.
func (q Requant) Apply(a int32) int8 {
	ls, rs := 0, 0
	if q.Shift > 0 {
		ls = q.Shift
	} else {
		rs = -q.Shift
	}
	prod := (int64(a) << ls) * int64(q.Mult)
	nudge := int64(1) << 30
	if prod < 0 {
		nudge = 1 - nudge
	}
	high := (prod + nudge) >> 31
	if rs > 0 {
		high = (high + int64(1)<<(rs-1)) >> rs
	}
	if high > math.MaxInt32 {
		high = math.MaxInt32
	} else if high < math.MinInt32 {
		high = math.MinInt32
	}
	v := int32(high) + q.ZP
	if v < q.Lo {
		v = q.Lo
	}
	if v > q.Hi {
		v = q.Hi
	}
	return int8(v)
}

// vector reports whether the assembly requantization covers q: it needs
// AVX-512 F+VL (64-bit lane arithmetic shifts) and handles the right
// shifts that every sub-unit requant multiplier produces.
func (q Requant) vector() bool {
	return q.Shift <= 0 && q.Shift >= -31 && haveAVX512 && enabled.Load()
}

// requantArgs is the assembly's view of a Requant (simd_amd64.s): the
// two rounding shifts folded into one, its rounding term folded into
// the nudge.
type requantArgs struct {
	mult, shift, nudge, zp, lo, hi int64
}

func (q Requant) args() requantArgs {
	rs := -q.Shift
	nudge := int64(1) << 30
	if rs > 0 {
		nudge += int64(1) << (30 + rs)
	}
	return requantArgs{int64(q.Mult), int64(31 + rs), nudge, int64(q.ZP), int64(q.Lo), int64(q.Hi)}
}

// RequantI8 requantizes a row of accumulators; len(dst) must equal
// len(acc). Anything the vector path does not cover runs q.Apply.
func RequantI8(dst []int8, acc []int32, q Requant) {
	if len(dst) != len(acc) {
		panic("simd: RequantI8 length mismatch")
	}
	n8 := 0
	if q.vector() {
		if n8 = len(dst) &^ 7; n8 > 0 {
			a := q.args()
			requantI8SIMD(dst[:n8], acc, &a)
		}
	}
	for i := n8; i < len(acc); i++ {
		dst[i] = q.Apply(acc[i])
	}
}

// dwI8Args extends tileArgs for the int8 depthwise kernel.
type dwI8Args struct {
	tileArgs
	requantArgs
	inZP int64
}

// DepthwiseI8 is DepthwiseF32 in the quantized domain: per channel an
// int32 accumulator starts at bias[c], adds (in-zp)*w over the taps and
// is requantized by q straight into dst — no accumulator row is written.
func DepthwiseI8(dst []int8, bias []int32, w, in []int8, t Tile, zp int32, q Requant) {
	ch := len(bias)
	t = t.checked("DepthwiseI8", ch, ch, len(dst), len(w), len(in))
	if t.P == 0 || ch == 0 {
		return
	}
	c0 := 0
	if ch >= 8 && t.Rows > 0 && q.vector() {
		c0 = ch &^ 7
		a := dwI8Args{tileArgs: args(t, dst, bias, w, in, c0, 1, 1), requantArgs: q.args(), inZP: int64(zp)}
		depthwiseI8SIMD(&a)
	}
	if c0 < ch {
		depthwiseI8Go(dst, bias, w, in, t, zp, q, c0)
	}
}

// depthwiseI8Go is the reference for channels [c0, ch).
func depthwiseI8Go(dst []int8, bias []int32, w, in []int8, t Tile, zp int32, q Requant, c0 int) {
	ch := len(bias)
	for p := 0; p < t.P; p++ {
		for c := c0; c < ch; c++ {
			a := bias[c]
			for r := 0; r < t.Rows; r++ {
				x := in[p*t.PixStride+r*t.InRowStride+c:]
				wr := w[r*t.WRowStride+c:]
				for k := 0; k < t.N; k++ {
					a += (int32(x[k*ch]) - zp) * int32(wr[k*ch])
				}
			}
			dst[p*ch+c] = q.Apply(a)
		}
	}
}

// ButterflyStageF32 runs one radix-2 decimation-in-time stage of a
// complex FFT held as split re/im arrays: with half = len(wr), every
// group of 2·half points starting at base combines, for j < half and
// k = base+half+j,
//
//	vr = re[k]*wr[j] - im[k]*wi[j]
//	vi = re[k]*wi[j] + im[k]*wr[j]
//	re[k], im[k] = re[base+j]-vr, im[base+j]-vi
//	re[base+j], im[base+j] = re[base+j]+vr, im[base+j]+vi
//
// each product and sum rounded to float32 as written. len(wi) must
// equal len(wr), len(im) must equal len(re), and len(re) must be a
// multiple of 2·half. Stages of an even half run on AVX2.
func ButterflyStageF32(re, im, wr, wi []float32) {
	half := len(wr)
	if half == 0 || len(wi) != half || len(im) != len(re) || len(re)%(2*half) != 0 {
		panic("simd: ButterflyStageF32 geometry")
	}
	if half%2 == 0 && enabled.Load() {
		butterflyF32SIMD(re, im, wr, wi)
		return
	}
	for base := 0; base < len(re); base += 2 * half {
		x := re[base : base+2*half]
		y := im[base : base+2*half]
		for j := 0; j < half; j++ {
			k := j + half
			cr, ci := wr[j], wi[j]
			vr := x[k]*cr - y[k]*ci
			vi := x[k]*ci + y[k]*cr
			x[k] = x[j] - vr
			y[k] = y[j] - vi
			x[j] += vr
			y[j] += vi
		}
	}
}

// RealPowerF32 unpacks the h-point complex FFT Z = re + i·im of a real
// frame packed as x[2t] + i·x[2t+1] into the power of its h+1 real
// spectrum bins, times scale:
//
//	dst[0] = (re[0]+im[0])² · scale,  dst[h] = (re[0]-im[0])² · scale
//	dst[k] = |Xe + W^k·Xo|² · scale,   0 < k < h
//
// with Xe = (Z[k]+conj(Z[h-k]))/2, Xo = -i(Z[k]-conj(Z[h-k]))/2 and
// W^k = wr[k] + i·wi[k], each operation rounded to float32 in the order
// the Go reference writes it. len(im), len(wr) and len(wi) must equal
// h = len(re), and len(dst) must be at least h+1. Bins 1 to h-1 run on
// AVX2 eight at a time.
func RealPowerF32(dst, re, im, wr, wi []float32, scale float32) {
	h := len(re)
	if h == 0 || len(im) != h || len(wr) != h || len(wi) != h || len(dst) <= h {
		panic("simd: RealPowerF32 geometry")
	}
	x0 := re[0] + im[0]
	dst[0] = x0 * x0 * scale
	k := 1
	if n8 := (h - 1) &^ 7; n8 > 0 && enabled.Load() {
		realPowerF32SIMD(dst[1:1+n8], re, im, wr[1:], wi[1:], scale)
		k += n8
	}
	for ; k < h; k++ {
		a, b := re[k], im[k]
		c, d := re[h-k], im[h-k]
		er, ei := 0.5*(a+c), 0.5*(b-d)
		or, oi := 0.5*(b+d), 0.5*(c-a)
		cr, ci := wr[k], wi[k]
		xr := er + cr*or - ci*oi
		xi := ei + cr*oi + ci*or
		dst[k] = (xr*xr + xi*xi) * scale
	}
	xh := re[0] - im[0]
	dst[h] = xh * xh * scale
}

// BlendDivF32 writes dst[i] = (a[i]*wa + b[i]*wb) / div, each product,
// the sum and the quotient rounded to float32 (a true division, not a
// multiply by the reciprocal). len(a) and len(b) must be at least
// len(dst).
func BlendDivF32(dst, a, b []float32, wa, wb, div float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n8 := 0
	if enabled.Load() {
		if n8 = len(dst) &^ 7; n8 > 0 {
			blendDivF32SIMD(dst[:n8], a, b, wa, wb, div)
		}
	}
	for i := n8; i < len(dst); i++ {
		dst[i] = (a[i]*wa + b[i]*wb) / div
	}
}

// PairWeights builds the pair-interleaved int16 lane layout ConvTileI8
// consumes from a [cin x nf] int8 weight panel (row pitch = nf): lane
// pair (w[2cp][f], w[2cp+1][f]) lands at out[(cp*nf+f)*2 .. +1]. An odd
// trailing input lane pairs with an all-zero phantom weight lane, so
// whatever PackPairs leaves in the phantom value lane contributes
// nothing. The returned slice has ((cin+1)/2)*nf*2 elements.
func PairWeights(w []int8, cin, nf int) []int16 {
	pairs := (cin + 1) / 2
	out := make([]int16, pairs*nf*2)
	for cp := 0; cp < pairs; cp++ {
		base := cp * nf * 2
		r0 := w[(2*cp)*nf : (2*cp)*nf+nf]
		for f := 0; f < nf; f++ {
			out[base+2*f] = int16(r0[f])
		}
		if 2*cp+1 < cin {
			r1 := w[(2*cp+1)*nf : (2*cp+1)*nf+nf]
			for f := 0; f < nf; f++ {
				out[base+2*f+1] = int16(r1[f])
			}
		}
	}
	return out
}

// Package simd provides the vectorized inner loops behind the float32
// and int8 inference kernels: register-tiled convolution (the body of
// conv2d/conv1d/dense), the depthwise kernels, input quantization,
// the int8 pair packs (channel pairs for the convs, tap pairs for the
// depthwise), requantization, pooling maxima and the fused activation
// clamps; behind the DSP front ends: the real FFT's radix-2 butterfly
// stages and unpack into a power spectrum, and the image resize's
// vertical blend; behind numjson's float32 formatter, the shortest
// decimal of eight floats at a time (ShortestF32, shortest.go); and
// behind its float32 array scan, the value of eight plain decimal tokens
// at a time (ParseF32, tokens.go); and behind int8 calibration, the
// range and the absolute maximum of a float32 slice (MinMaxF32,
// AbsMaxF32).
//
// A conv tile is a run of P output pixels that share one tap window.
// The kernel walks it four pixels at a time (then one at a time) by two
// vector registers of output lanes (then one), keeps that block's
// accumulators in registers from the bias load through the whole
// reduction — every kernel row, every tap of the row, every input
// channel — and stores each output once. The float depthwise kernel does
// the same per pixel, four 8-lane channel blocks at a time. The int8 one
// reads its input as a padded stream of horizontal tap pairs, so a whole
// output row is one call with no clipped window; it takes four pixels by
// 8 channels (the last P%4 pixels one at a time by 32 channels, then 8),
// retires two taps per VPDPWSSD and requantizes from the registers.
//
// The kernels come in three tiers (Tier), the top one the CPU has chosen
// from CPUID with no setting; tests and benchmarks lower it with SetTier
// (simdtest.ForEachTier runs one on every tier the build and CPU have):
//
//   - avx512 (AVX-512 F+VL+CD+BW+VNNI): the conv tiles run on ZMM
//     registers, blocks of 32 lanes then 16, and a last 8 lanes on the
//     YMM tile; the int8 MAC is one VPDPWSSD. DepthwiseI8, RequantI8 and
//     ShortestF32 run their assembly, and ParseF32 too where the host
//     also has AVX-512 DQ and BMI1/BMI2 (which gate that kernel alone).
//   - avx2: the conv tiles run on YMM registers, blocks of 16 lanes then
//     8, the int8 MAC VPMADDWD + VPADDD; the packs and the float
//     kernels run in assembly, DepthwiseI8 and RequantI8 their Go
//     references (their requantization needs AVX-512's 64-bit lane
//     shifts and narrows), and ShortestF32 leaves the records to
//     numjson's reference (its kernel needs 64-bit lane shifts and
//     compares into masks, VPLZCNTQ and a gather), as ParseF32 leaves
//     the tokens to numjson's ScanFloat.
//   - go: everywhere else (other architectures and the noasm build tag)
//     every primitive runs its pure Go reference.
//
// All three are bit-for-bit identical:
//
//   - Float kernels use separate multiply and add instructions
//     (VMULPS + VADDPS), never FMA, so every product and every partial
//     sum is rounded to float32 exactly as the scalar Go expression
//     `s += v * w` rounds it, and per output lane the accumulation order
//     is bias, then kernel row, then tap, then input channel in every
//     tier and for every tile width.
//   - The FFT primitives and BlendDivF32 evaluate every lane as the
//     scalar expression of their Go reference, one VMULPS, VADDPS,
//     VSUBPS or VDIVPS per Go operator, so each intermediate rounds to
//     float32 identically.
//   - Integer kernels are exact: int32 addition and multiplication are
//     associative and wrap identically in Go, in VPMADDWD + VPADDD lanes
//     and in VPDPWSSD lanes (the non-saturating form), so any regrouping
//     (the assembly pairs adjacent input lanes, or adjacent taps) yields
//     the same accumulator bits.
//   - ShortestF32 is integer arithmetic with no rounding of its own:
//     every lane computes what numjson's record32 computes, with the
//     scalar code's branches turned into mask blends, and the two agree
//     on every one of the 2^32 float32 bit patterns
//     (TestAppendFloat32Exhaustive, -tags exhaustive).
//   - ParseF32 per lane is ScanFloat's exact path: an exact integer
//     mantissa (below 2^53, so VCVTUQQ2PD is exact) divided by an exact
//     power of ten in one VDIVPD, rounded to float32 by VCVTPD2PS — the
//     IEEE operations Go's conversion, division and float32() are — and
//     it declines what ScanFloat sends elsewhere, including the float64s
//     whose second rounding could go wrong. Scanned back from arrays it
//     agrees with ScanFloat on every float32 (TestScanFloat32Exhaustive).
//   - MinMaxF32 and AbsMaxF32 compare and select, with the running
//     extreme as the operand VMINPS/VMAXPS return on NaN; their results
//     equal the scalar loop's, and MinMaxF32's may differ only in the sign
//     of a zero extreme.
//
// The EON-vs-interpreter story of the source paper rests on quantized
// kernels beating float on real hardware (CMSIS-NN's SMLAD dual-MAC is
// the canonical example); the VPDPWSSD and VPMADDWD inner loops of
// ConvTileI8 and DepthwiseI8 are the x86 equivalent — two int16 lanes
// per multiply, and with VNNI the add into the accumulator as well.
package simd

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Tier is a level of the kernels, ordered by what it runs in assembly:
// TierGo none of it, TierAVX2 and TierAVX512 what the package comment
// lists under their names.
type Tier int32

const (
	TierGo Tier = iota
	TierAVX2
	TierAVX512
)

func (t Tier) String() string { return [...]string{"go", "avx2", "avx512"}[t] }

// tier is the active Tier, the one state every primitive dispatches on.
var tier atomic.Int32

func init() { tier.Store(int32(hostTier())) }

// hostTier is the highest tier the build and the CPU have.
func hostTier() Tier {
	switch {
	case haveAVX512:
		return TierAVX512
	case haveAVX2:
		return TierAVX2
	}
	return TierGo
}

// SetTier makes t the active tier, clamped to what the build and the
// CPU have, and returns a func that restores the tier it replaced. It
// lets tests and benchmarks run every tier in one process (see
// internal/simd/simdtest); each gives the same bits.
func SetTier(t Tier) (restore func()) {
	prev := tier.Swap(int32(max(TierGo, min(t, hostTier()))))
	return func() { tier.Store(prev) }
}

// ActiveTier reports the tier the primitives run.
func ActiveTier() Tier { return Tier(tier.Load()) }

// Tile is the geometry of one kernel call: a run of P output pixels
// whose windows hold the same taps. Each pixel reduces Rows segments of
// its input, N steps each. A step is one input element for ConvTileF32
// (N = taps in the row × input channels), one packed pair for
// ConvTileI8, one tap — a whole channel row — for DepthwiseF32, and one
// tap pair — a channel row of horizontal tap pairs, see PackTapPairs —
// for DepthwiseI8. A segment's steps are consecutive in memory, except
// DepthwiseI8's, which lie StepStride apart. Strides count elements of
// the slice they index (pairs for a packed input and its weights).
type Tile struct {
	P           int // output pixels in the run
	N           int // reduction steps per row segment
	Rows        int // row segments (valid kernel rows)
	PixStride   int // input distance between adjacent output pixels
	InRowStride int // input distance between row segments
	WRowStride  int // weight distance between row segments
	StepStride  int // input distance between adjacent steps (DepthwiseI8 only)
}

// checked panics unless a kernel whose steps lie stepStride input
// elements apart, read stepLen elements each and nf weight lanes per
// step stays inside its slices. It returns t with an empty reduction
// normalized to Rows = 0.
func (t Tile) checked(name string, nf, stepStride, stepLen, dstLen, wLen, inLen int) Tile {
	if t.P < 0 || t.N < 0 || t.Rows < 0 || t.PixStride < 0 || t.InRowStride < 0 || t.WRowStride < 0 || t.StepStride < 0 {
		panic("simd: " + name + " negative tile geometry")
	}
	if t.P*nf > dstLen {
		panic("simd: " + name + " output out of bounds")
	}
	if t.P == 0 || t.N == 0 || t.Rows == 0 {
		t.Rows = 0
		return t
	}
	if (t.P-1)*t.PixStride+(t.Rows-1)*t.InRowStride+(t.N-1)*stepStride+stepLen > inLen {
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

// zmmLanes is how many of a conv tile's lanes the ZMM tile takes: with
// AVX-512 the multiples of 16, leaving at most 8 for the YMM one.
func zmmLanes(lanes int) int {
	if ActiveTier() != TierAVX512 {
		return 0
	}
	return lanes &^ 15
}

// skip moves the conv tile a past its first n lanes and leaves it rest
// lanes (every lane is 4 bytes in dst, bias and w). The pointers stay
// put when nothing is left, so none points past its slice.
func (a *tileArgs) skip(n, rest int) {
	if a.lanes = rest; rest > 0 {
		off := uintptr(n * 4)
		a.dst, a.bias, a.w = unsafe.Add(a.dst, off), unsafe.Add(a.bias, off), unsafe.Add(a.w, off)
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
	t = t.checked("ConvTileF32", nf, 1, 1, len(dst), len(w), len(in))
	if t.P == 0 || nf == 0 {
		return
	}
	f0 := 0
	if nf >= 8 && t.Rows > 0 && ActiveTier() >= TierAVX2 {
		f0 = nf &^ 7
		a := args(t, dst, bias, w, in, f0, 4, 4)
		if z := zmmLanes(f0); z > 0 {
			a.lanes = z
			convTileF32AVX512(&a)
			a.skip(z, f0-z)
		}
		if a.lanes > 0 {
			convTileF32SIMD(&a)
		}
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
	t = t.checked("DepthwiseF32", ch, ch, ch, len(dst), len(w), len(in))
	if t.P == 0 || ch == 0 {
		return
	}
	c0 := 0
	if ch >= 8 && t.Rows > 0 && ActiveTier() >= TierAVX2 {
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
	if ActiveTier() >= TierAVX2 {
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
	if ActiveTier() >= TierAVX2 {
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
	if ActiveTier() >= TierAVX2 {
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

// MinMaxF32 returns the least and the greatest element of x, and 0, 0
// for an empty x. The Go reference is the scalar loop that seeds both
// with x[0] and replaces them on v < lo and v > hi. So the result is NaN
// exactly when x[0] is; a later NaN never wins. The assembly seeds every
// lane with x[0] and keeps the running extreme as VMINPS/VMAXPS's second
// operand, which those return on a NaN or on two zeros: each lane is
// the scalar loop over its own elements. The result equals the scalar
// loop's under ==, and only the sign of a zero extreme can differ.
func MinMaxF32(x []float32) (lo, hi float32) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	if n8 := len(x) &^ 7; n8 > 0 && ActiveTier() >= TierAVX2 {
		var lanes [16]float32 // eight minima, then eight maxima
		minMaxF32SIMD(x[:n8], &lanes)
		lo, _ = minMaxF32(lo, lo, lanes[:8])
		_, hi = minMaxF32(hi, hi, lanes[8:])
		x = x[n8:]
	}
	return minMaxF32(lo, hi, x)
}

func minMaxF32(lo, hi float32, x []float32) (float32, float32) {
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// AbsMaxF32 returns the greatest |x[i]|, and 0 for an empty x. The Go
// reference is the scalar loop that starts from +0, negates v < 0 and
// replaces the running maximum on |v| > m, so NaNs never win and the
// result is never NaN or -0. The assembly clears the sign bit and keeps
// the running maximum as VMAXPS's second operand: its result has the
// scalar loop's bits.
func AbsMaxF32(x []float32) float32 {
	var m float32
	if n8 := len(x) &^ 7; n8 > 0 && ActiveTier() >= TierAVX2 {
		var lanes [8]float32
		absMaxF32SIMD(x[:n8], &lanes)
		m = absMaxF32(m, lanes[:])
		x = x[n8:]
	}
	return absMaxF32(m, x)
}

func absMaxF32(m float32, x []float32) float32 {
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// MaxI8 is MaxF32 for int8 lanes.
func MaxI8(dst, src []int8) {
	if len(src) != len(dst) {
		panic("simd: MaxI8 length mismatch")
	}
	n16 := 0
	if ActiveTier() >= TierAVX2 {
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
	if ActiveTier() >= TierAVX2 {
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
	if n16 := len(in) &^ 15; n16 > 0 && ActiveTier() >= TierAVX2 {
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

// pixelPackArgs is one step of packPixelsSIMD (simd_amd64.s): which
// input byte lands in each of 16 int16 output lanes and what is
// subtracted from it, and how far a step moves in and out.
type pixelPackArgs struct {
	shuf            [16]byte  // input byte per output lane; 0x80 reads a zero
	zp              [16]int16 // the zero point, or 0 under a phantom lane
	inStep, outStep int       // bytes per step
}

// PackPixels packs an activation of pixels with cin lanes each into the
// pair stream ConvTileI8 consumes and returns the pairs per pixel,
// (cin+1)/2. An even cin is one PackPairs sweep; an odd cin packs every
// pixel as PackPairs packs it alone, its last pair closed by a zero
// phantom lane (so an image's pixel pitch stays whole pairs). vp must
// have room for len(in)/cin pixels.
//
// With AVX2 an odd cin up to 15 moves 16/(cin+1) pixels per step — four
// of a 3-channel image — with one byte shuffle that opens the phantom
// lanes, one widening and one subtraction; the Go loop packs the tail.
func PackPixels(vp []uint32, in []int8, cin int, zp int32) int {
	if cin%2 == 0 {
		PackPairs(vp, in, zp)
		return cin / 2
	}
	pp := (cin + 1) / 2
	px := len(in) / cin
	vp = vp[:px*pp]
	i := 0
	if k := 16 / (cin + 1); k > 0 && len(in) >= 16 && len(vp) >= 8 && ActiveTier() >= TierAVX2 {
		// A step reads 16 bytes and writes 16 lanes (8 pairs), more than
		// it keeps: run the steps whose reads and writes stay inside.
		steps := min((len(in)-16)/(k*cin), (len(vp)-8)/(k*pp)) + 1
		a := pixelPackArgs{inStep: k * cin, outStep: k * pp * 4}
		for l := range a.shuf {
			a.shuf[l] = 0x80
			if q, c := l/(cin+1), l%(cin+1); q < k && c < cin {
				a.shuf[l], a.zp[l] = byte(q*cin+c), int16(zp)
			}
		}
		packPixelsSIMD(vp, in, steps, &a)
		i = steps * k
	}
	for ; i < px; i++ {
		PackPairs(vp[i*pp:], in[i*cin:(i+1)*cin], zp)
	}
	return pp
}

// PackTapPairs packs one activation row of w = len(row)/ch pixels into
// the tap-pair stream DepthwiseI8 reads: n positions of ch pairs, the
// one at p pairing columns x = x0 + p*step and x+1 channel by channel,
//
//	vp[p*ch+c] = v(x, c) | v(x+1, c)<<16,  v(x, c) = int16(row[x*ch+c] - zp), or 0 outside [0, w)
//
// so a padded column — and the partner of a phantom tap — reads as a
// centred zero and no window needs clipping. A window of an odd stride
// may start on any column (step 1); one of an even stride starts on even
// columns only, and step 2 packs just those. Every position is written.
func PackTapPairs(vp []uint32, row []int8, ch, x0, step, n int, zp int32) {
	if ch <= 0 || step <= 0 || n < 0 || len(row)%ch != 0 {
		panic("simd: PackTapPairs geometry")
	}
	w := len(row) / ch
	vp = vp[:n*ch]
	for p := 0; p < n; {
		x := x0 + p*step
		d := vp[p*ch : (p+1)*ch]
		switch left, right := x >= 0 && x < w, x+1 >= 0 && x+1 < w; {
		case left && right: // the run of positions inside the row
			end := min(n, (w-2-x0)/step+1)
			packPairRun(vp[p*ch:end*ch], row[x*ch:], ch, step*ch, ch, zp, 0xffffffff)
			p = end
			continue
		case right: // (pad, column x+1)
			packPairRun(d, row[(x+1)*ch:], ch, 0, 0, zp, 0xffff0000)
		case left: // (column x, pad)
			packPairRun(d, row[x*ch:], ch, 0, 0, zp, 0x0000ffff)
		default:
			clear(d)
		}
		p++
	}
}

// packPairRun writes len(vp)/ch positions of ch pairs, position p
// pairing in[p*inStep+c] with in[p*inStep+hiOff+c], both centred, and
// keeping the bits of mask: all of them for two columns of a row, one
// half beside a pad column.
func packPairRun(vp []uint32, in []int8, ch, inStep, hiOff int, zp int32, mask uint32) {
	if ch%8 == 0 && ActiveTier() >= TierAVX2 {
		packTapPairsSIMD(vp, in, ch, inStep, hiOff, zp, mask)
		return
	}
	for p := 0; p < len(vp)/ch; p++ {
		lo, hi, d := in[p*inStep:][:ch], in[p*inStep+hiOff:][:ch], vp[p*ch:(p+1)*ch]
		for c := range d {
			d[c] = (uint32(uint16(int32(lo[c])-zp)) | uint32(uint16(int32(hi[c])-zp))<<16) & mask
		}
	}
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
	t = t.checked("ConvTileI8", nf, 1, 1, len(acc), len(wPair)/2, len(vp))
	if t.P == 0 || nf == 0 {
		return
	}
	f0 := 0
	if nf >= 8 && t.Rows > 0 && ActiveTier() >= TierAVX2 {
		f0 = nf &^ 7
		a := args(t, acc, bias, wPair, vp, f0, 4, 4)
		if z := zmmLanes(f0); z > 0 {
			a.lanes = z
			convTileI8AVX512(&a)
			a.skip(z, f0-z)
		}
		if a.lanes > 0 {
			convTileI8SIMD(&a)
		}
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
// the avx512 tier (64-bit lane arithmetic shifts) and handles the right
// shifts that every sub-unit requant multiplier produces.
func (q Requant) vector() bool {
	return q.Shift <= 0 && q.Shift >= -31 && ActiveTier() == TierAVX512
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
	stepStride int // bytes between adjacent tap pairs of the input
}

// DepthwiseI8 is DepthwiseF32 in the quantized domain, over a tap-pair
// stream (PackTapPairs) and tap-paired int16 weights (PairDepthwise): per
// channel an int32 accumulator starts at bias[c] and adds both taps of a
// pair per step,
//
//	acc[p*ch+c] = bias[c] + Σ_r Σ_j v0*wPair[2i] + v1*wPair[2i+1],  i = r*WRowStride + j*ch + c
//
// where (v0, v1) is the pair vp[p*PixStride + r*InRowStride + j*StepStride + c];
// it is requantized by q straight into dst — no accumulator row is
// written. A step is one VPDPWSSD per 8 channels. The
// assembly takes contiguous weight rows (WRowStride = N*ch, PairDepthwise's
// layout); any other geometry runs the Go reference.
func DepthwiseI8(dst []int8, bias []int32, wPair []int16, vp []uint32, t Tile, q Requant) {
	ch := len(bias)
	t = t.checked("DepthwiseI8", ch, t.StepStride, ch, len(dst), len(wPair)/2, len(vp))
	if t.P == 0 || ch == 0 {
		return
	}
	c0 := 0
	if ch >= 8 && t.Rows > 0 && t.WRowStride == t.N*ch && q.vector() {
		c0 = ch &^ 7
		a := dwI8Args{tileArgs: args(t, dst, bias, wPair, vp, c0, 4, 1), requantArgs: q.args(), stepStride: t.StepStride * 4}
		depthwisePairsI8SIMD(&a)
	}
	if c0 < ch {
		depthwiseI8Go(dst, bias, wPair, vp, t, q, c0)
	}
}

// depthwiseI8Go is the reference for channels [c0, ch).
func depthwiseI8Go(dst []int8, bias []int32, wPair []int16, vp []uint32, t Tile, q Requant, c0 int) {
	ch := len(bias)
	for p := 0; p < t.P; p++ {
		for c := c0; c < ch; c++ {
			a := bias[c]
			for r := 0; r < t.Rows; r++ {
				x := vp[p*t.PixStride+r*t.InRowStride+c:]
				wr := wPair[(r*t.WRowStride+c)*2:]
				for j := 0; j < t.N; j++ {
					v0, v1 := unpackPair(x[j*t.StepStride])
					a += v0*int32(wr[j*ch*2]) + v1*int32(wr[j*ch*2+1])
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
	if half%2 == 0 && ActiveTier() >= TierAVX2 {
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
	if n8 := (h - 1) &^ 7; n8 > 0 && ActiveTier() >= TierAVX2 {
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
	if ActiveTier() >= TierAVX2 {
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

// PairDepthwise builds the tap-paired int16 weight layout DepthwiseI8
// consumes from a [k x k x ch] depthwise kernel: per kernel row ky and
// tap pair j < n = (k+1)/2, channel c's lane pair (w[ky][2j][c],
// w[ky][2j+1][c]) lands at out[((ky*n+j)*ch+c)*2 .. +1]. An odd k closes
// every row with a zero phantom tap, so whatever PackTapPairs pairs with
// the last tap contributes nothing. The returned slice has k*n*ch*2
// elements.
func PairDepthwise(w []int8, k, ch int) []int16 {
	n := (k + 1) / 2
	out := make([]int16, k*n*ch*2)
	for ky := 0; ky < k; ky++ {
		for kx := 0; kx < k; kx++ {
			d := out[(ky*n+kx/2)*ch*2+kx%2:]
			for c, v := range w[(ky*k+kx)*ch : (ky*k+kx+1)*ch] {
				d[2*c] = int16(v)
			}
		}
	}
	return out
}

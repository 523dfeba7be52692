package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/kernelref"
	"edgepulse/internal/nn"
	"edgepulse/internal/simd/simdtest"
	"edgepulse/internal/tensor"
)

// fuzzQOp builds a random quantized conv2d or depthwise op over shapes
// the naive reference can afford — H and W up to 100, channels up to
// 256, kernel 1-5, stride 1-3 — with zero points out to the int8 limits,
// random scales (so the requant multiplier and shift vary) and a random
// fused clamp. It reports false for a VALID window that does not fit
// and for shapes beyond maxMACs.
func fuzzQOp(rng *rand.Rand, kind string, h, w, ch, nf, kernel, stride uint8, same bool) (*QOp, kernelref.Window, bool) {
	g := kernelref.Window{H: 1 + int(h)%100, W: 1 + int(w)%100, C: 1 + int(ch), Kernel: 1 + int(kernel)%5, Stride: 1 + int(stride)%3, Same: same}
	filters, pad := 1+int(nf), 0
	if same {
		pad = 1
	}
	perOutput := g.C * g.Kernel * g.Kernel
	if kind == "conv2d" {
		perOutput *= filters
	}
	const maxMACs = 3 << 20
	if oh, ow := g.Out(); oh == 0 || ow == 0 || oh*ow*perOutput > maxMACs {
		return nil, g, false
	}
	op := randQOp(rng, kind, tensor.Shape{g.H, g.W, g.C}, filters, g.Kernel, g.Stride, pad)
	zps := []int32{-128, 127, 0, int32(rng.Intn(256) - 128)}
	op.InQ = tensor.QParams{Scale: 0.01 + rng.Float32(), ZeroPoint: zps[rng.Intn(len(zps))]}
	op.OutQ = tensor.QParams{Scale: 0.01 + 4*rng.Float32(), ZeroPoint: zps[rng.Intn(len(zps))]}
	op.WScale = 0.001 + 0.05*rng.Float32()
	op.ActMin = int32(rng.Intn(128) - 128)
	op.ActMax = int32(rng.Intn(128))
	op.Rebind()
	return op, g, true
}

// fuzzRunOp runs op on a random input on every simd tier and requires
// each to equal the reference bit for bit.
func fuzzRunOp(t *testing.T, rng *rand.Rand, op *QOp, reference func(in []int8) []int8) {
	q := &QModel{InputShape: op.InShape.Clone(), InQ: op.InQ, Ops: []*QOp{op}}
	in := tensor.NewI8(op.InQ, op.InShape...)
	for i := range in.Data {
		in.Data[i] = int8(rng.Intn(256) - 128)
	}
	want := reference(in.Data)
	simdtest.ForEachTier(t, func(t *testing.T) {
		got := q.RunOp(op, in)
		if len(got.Data) != len(want) {
			t.Fatalf("%d outputs, reference %d", len(got.Data), len(want))
		}
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("%s: elem %d = %d, reference %d", fmt.Sprint(op.InShape, op.Attrs), i, got.Data[i], want[i])
			}
		}
	})
}

// FuzzConvI8 holds the pair-tiled int8 conv2d — generic and row-paired
// single-channel path, assembly and Go — to the naive loop with an int32
// accumulator and the reference requant, bit for bit. The seeds are the
// reference models' layers.
func FuzzConvI8(f *testing.F) {
	// h, w, cin-1, filters-1, kernel-1, stride-1, same, seed
	f.Add(uint8(48), uint8(9), uint8(0), uint8(63), uint8(3), uint8(1), true, int64(1))   // kws head
	f.Add(uint8(24), uint8(4), uint8(63), uint8(63), uint8(0), uint8(0), true, int64(2))  // kws pointwise
	f.Add(uint8(95), uint8(95), uint8(2), uint8(7), uint8(2), uint8(1), true, int64(3))   // vww stem
	f.Add(uint8(47), uint8(47), uint8(7), uint8(15), uint8(0), uint8(0), true, int64(4))  // vww pointwise
	f.Add(uint8(5), uint8(5), uint8(127), uint8(127), uint8(0), uint8(0), true, int64(5)) // vww 6x6x128
	f.Add(uint8(2), uint8(2), uint8(255), uint8(255), uint8(0), uint8(0), true, int64(6)) // vww 3x3x256
	f.Add(uint8(31), uint8(31), uint8(2), uint8(15), uint8(2), uint8(0), true, int64(7))  // ic conv1
	f.Add(uint8(15), uint8(15), uint8(15), uint8(23), uint8(2), uint8(0), true, int64(8)) // ic conv2
	f.Add(uint8(1), uint8(2), uint8(68), uint8(10), uint8(4), uint8(2), true, int64(9))   // kernel > input
	f.Add(uint8(12), uint8(9), uint8(0), uint8(8), uint8(3), uint8(0), true, int64(10))   // row-paired, odd stride
	f.Add(uint8(8), uint8(6), uint8(4), uint8(8), uint8(2), uint8(1), false, int64(11))   // valid, stride 2
	// Odd-lane pixel packs whose pixel count leaves the 4-pixel (cin 3)
	// and 2-pixel (cin 5, 7) steps a tail, or never reaches a step.
	f.Add(uint8(10), uint8(32), uint8(2), uint8(7), uint8(2), uint8(1), true, int64(12)) // 11x33x3
	f.Add(uint8(6), uint8(16), uint8(4), uint8(15), uint8(2), uint8(0), true, int64(13)) // 7x17x5
	f.Add(uint8(4), uint8(8), uint8(6), uint8(8), uint8(0), uint8(0), true, int64(14))   // 5x9x7
	f.Add(uint8(0), uint8(4), uint8(2), uint8(3), uint8(0), uint8(0), false, int64(15))  // 1x5x3
	f.Add(uint8(2), uint8(6), uint8(4), uint8(9), uint8(2), uint8(2), true, int64(16))   // 3x7x5, stride 3
	// Filter counts that split between the 512-bit blocks and a 256-bit 8.
	f.Add(uint8(11), uint8(11), uint8(7), uint8(23), uint8(2), uint8(0), true, int64(17)) // 24 = 16 + 8
	f.Add(uint8(9), uint8(7), uint8(4), uint8(39), uint8(0), uint8(0), false, int64(18))  // 40 = 32 + 8
	f.Add(uint8(6), uint8(6), uint8(12), uint8(55), uint8(2), uint8(1), true, int64(19))  // 56 = 32 + 16 + 8
	f.Fuzz(func(t *testing.T, h, w, cin, nf, kernel, stride uint8, same bool, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		op, g, ok := fuzzQOp(rng, "conv2d", h, w, cin, nf, kernel, stride, same)
		if !ok {
			t.Skip()
		}
		fuzzRunOp(t, rng, op, func(in []int8) []int8 {
			return kernelref.Conv2DI8(g, in, op.W, op.Bias, op.InQ.ZeroPoint, func(a int32) int8 { return requant(op, a) })
		})
	})
}

// FuzzDepthwiseI8 is FuzzConvI8 for the int8 depthwise conv — the
// tap-pair pack of its input, the tap-paired weights and the kernel's
// in-register requantization — with the input zero point a parameter,
// so the centred zeros of the pads meet inputs at the int8 limits.
func FuzzDepthwiseI8(f *testing.F) {
	// h, w, channels-1, kernel-1, stride-1, same, input zero point, seed
	f.Add(uint8(24), uint8(4), uint8(63), uint8(2), uint8(0), true, int8(-128), int64(1))  // kws
	f.Add(uint8(47), uint8(47), uint8(7), uint8(2), uint8(0), true, int8(-128), int64(2))  // vww first block
	f.Add(uint8(47), uint8(47), uint8(15), uint8(2), uint8(1), true, int8(-128), int64(3)) // vww stride 2
	f.Add(uint8(5), uint8(5), uint8(127), uint8(2), uint8(0), true, int8(-128), int64(4))  // vww 6x6x128
	f.Add(uint8(2), uint8(2), uint8(255), uint8(2), uint8(0), true, int8(-128), int64(5))  // vww 3x3x256
	f.Add(uint8(5), uint8(5), uint8(127), uint8(2), uint8(1), true, int8(-128), int64(6))  // vww 6x6 -> 3x3
	f.Add(uint8(1), uint8(2), uint8(68), uint8(4), uint8(2), true, int8(7), int64(7))      // kernel > input
	f.Add(uint8(8), uint8(7), uint8(4), uint8(2), uint8(1), false, int8(-20), int64(8))    // valid, odd channels
	// Kernels without a phantom tap (2, 4) and with a lone one (1).
	f.Add(uint8(10), uint8(6), uint8(6), uint8(1), uint8(0), true, int8(127), int64(9))    // 11x7x7, k2
	f.Add(uint8(11), uint8(11), uint8(8), uint8(3), uint8(1), true, int8(-128), int64(10)) // 12x12x9, k4 s2
	f.Add(uint8(9), uint8(9), uint8(15), uint8(0), uint8(1), false, int8(127), int64(11))  // k1 s2: odd rows, columns unread
	// Stride 3, and VALID windows that leave the last rows and columns unread.
	f.Add(uint8(19), uint8(19), uint8(14), uint8(2), uint8(2), true, int8(127), int64(12))   // 20x20x15, k3 s3
	f.Add(uint8(15), uint8(17), uint8(12), uint8(4), uint8(2), false, int8(-128), int64(13)) // 16x18x13, k5 s3
	f.Add(uint8(9), uint8(10), uint8(31), uint8(2), uint8(1), false, int8(0), int64(14))     // 10x11x32, k3 s2
	// 1-7 channels (Go lanes only) and 9-15 (one 8-lane block and a Go tail).
	f.Add(uint8(6), uint8(6), uint8(0), uint8(2), uint8(0), true, int8(-128), int64(15))  // 1 channel
	f.Add(uint8(6), uint8(9), uint8(2), uint8(2), uint8(1), true, int8(127), int64(16))   // 3
	f.Add(uint8(4), uint8(4), uint8(8), uint8(2), uint8(0), true, int8(127), int64(17))   // 9
	f.Add(uint8(7), uint8(3), uint8(14), uint8(2), uint8(1), true, int8(-128), int64(18)) // 15
	f.Fuzz(func(t *testing.T, h, w, ch, kernel, stride uint8, same bool, zp int8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		op, g, ok := fuzzQOp(rng, "depthwise_conv2d", h, w, ch, 0, kernel, stride, same)
		if !ok {
			t.Skip()
		}
		op.InQ.ZeroPoint = int32(zp)
		fuzzRunOp(t, rng, op, func(in []int8) []int8 {
			return kernelref.DepthwiseI8(g, in, op.W, op.Bias, op.InQ.ZeroPoint, func(a int32) int8 { return requant(op, a) })
		})
	})
}

// FuzzPoolI8 holds the four int8 pooling kernels to the naive window
// loops of internal/kernelref, bit for bit, on every simd tier, over
// random shapes, window sizes, strides and zero points (pooling keeps
// its input's quantization, so a zero point must not enter the
// arithmetic).
func FuzzPoolI8(f *testing.F) {
	// kind (max2d, avg2d, max1d, gap), h, w, channels-1, size-1, stride, zero point, seed
	f.Add(uint8(0), uint8(31), uint8(31), uint8(15), uint8(1), uint8(0), int8(-3), int64(1))  // ic max 2x2
	f.Add(uint8(1), uint8(24), uint8(4), uint8(63), uint8(1), uint8(1), int8(0), int64(2))    // avg, stride 1
	f.Add(uint8(2), uint8(48), uint8(0), uint8(7), uint8(2), uint8(2), int8(127), int64(3))   // 1-D, overlapping
	f.Add(uint8(3), uint8(5), uint8(5), uint8(255), uint8(0), uint8(0), int8(-128), int64(4)) // vww head
	f.Add(uint8(1), uint8(6), uint8(7), uint8(2), uint8(4), uint8(3), int8(9), int64(5))      // odd sizes
	f.Fuzz(func(t *testing.T, kind, h, w, ch, size, stride uint8, zp int8, seed int64) {
		g := kernelref.Pool{H: 1 + int(h)%64, W: 1 + int(w)%64, C: 1 + int(ch), KH: 1 + int(size)%5, Stride: int(stride) % 4}
		g.KW = g.KH
		kinds := []string{"maxpool2d", "avgpool2d", "maxpool1d", "gap2d"}
		op := &QOp{OpSpec: nn.OpSpec{Kind: kinds[kind%4], InShape: tensor.Shape{g.H, g.W, g.C}}}
		switch op.Kind {
		case "maxpool1d":
			g.W, g.KW = 1, 1
			op.InShape = tensor.Shape{g.H, g.C}
		case "gap2d":
			g.KH, g.KW, g.Stride = g.H, g.W, 1
		}
		op.Attrs = map[string]float64{"size": float64(g.KH), "stride": float64(g.Stride)}
		if g.Stride == 0 {
			g.Stride = g.KH // the layers' default
		}
		oh, ow := g.Out()
		if oh <= 0 || ow <= 0 {
			t.Skip() // the window does not fit
		}
		switch op.Kind {
		case "maxpool1d":
			op.OutShape = tensor.Shape{oh, g.C}
		case "gap2d":
			op.OutShape = tensor.Shape{g.C}
		default:
			op.OutShape = tensor.Shape{oh, ow, g.C}
		}
		op.InQ = tensor.QParams{Scale: 0.05, ZeroPoint: int32(zp)}
		op.OutQ = op.InQ
		fuzzRunOp(t, rand.New(rand.NewSource(seed)), op, func(in []int8) []int8 {
			switch op.Kind {
			case "avgpool2d":
				return kernelref.AvgPoolI8(g, in)
			case "gap2d":
				return kernelref.GlobalAvgPoolI8(g.H, g.W, g.C, in)
			}
			return kernelref.MaxPoolI8(g, in)
		})
	})
}

// quantizeWeightRef is the weight quantizer's expression before the
// one-pass loop, kept here as the reference.
func quantizeWeightRef(v, scale float32) int8 {
	return int8(clampI32(roundToInt32(float64(v)/float64(scale)), -127, 127))
}

// f32Bytes encodes v as the little-endian float32 stream
// FuzzQuantizeWeights decodes.
func f32Bytes(v ...float32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// FuzzQuantizeWeights holds quantizeWeights to quantizeWeightRef byte for
// byte, at the scale quantizeLayer picks for the slice (AbsMax/127, on
// every simd tier) and at an arbitrary one. The seeds cover NaN
// payloads, ±Inf, ±0, subnormals, exact ties at (k+½)·scale and
// ±127.5·scale, where a round-half-to-even loop would differ.
func FuzzQuantizeWeights(f *testing.F) {
	bits := math.Float32frombits
	specials := f32Bytes(bits(0x7fc00000), bits(0x7f800001), bits(0xffc00123), bits(0x7fbfffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, bits(0x007fffff), bits(0x807fffff),
		1, -1, math.MaxFloat32, -math.MaxFloat32)
	f.Add(specials, math.Float32bits(1))
	f.Add(specials, math.Float32bits(1e-8/127))
	// AbsMax 127 gives scale 1: every (k+½) below is a tie.
	ties := f32Bytes(127, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 64.5, -64.5, 126.5, -126.5)
	f.Add(ties, math.Float32bits(0.25))
	// ±127.5·scale and beyond, at scale 2^-7 and at scale 3.
	f.Add(f32Bytes(127.5/128, -127.5/128, 128.5/128, -126.5/128, 0.5/128, 1.5/128), math.Float32bits(1.0/128))
	f.Add(f32Bytes(382.5, -382.5, 1.5, -4.5, 7.5, 379.5, 385.5), math.Float32bits(3))
	f.Add(f32Bytes(0.5, -0.5, 1, -2.5), uint32(0))                // scale 0: ±Inf and NaN quotients
	f.Add(f32Bytes(0.5, -0.5, 1, -2.5), math.Float32bits(-0.5))   // negative scale
	f.Add(f32Bytes(1e-45, -1e-45, 1e30), math.Float32bits(1e-45)) // subnormal scale
	f.Add(f32Bytes(3, -2.5, 0.001), math.Float32bits(float32(math.NaN())))
	f.Fuzz(func(t *testing.T, raw []byte, scaleBits uint32) {
		w := make([]float32, len(raw)/4)
		for i := range w {
			w[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		simdtest.ForEachTier(t, func(t *testing.T) {
			absMax := (&tensor.F32{Data: w}).AbsMax()
			if absMax == 0 {
				absMax = 1e-8
			}
			got := make([]int8, len(w))
			for _, scale := range []float32{absMax / 127, math.Float32frombits(scaleBits)} {
				quantizeWeights(got, w, scale)
				for i, v := range w {
					if want := quantizeWeightRef(v, scale); got[i] != want {
						t.Fatalf("scale %v (%#08x): weight %d = %v (%#08x) quantized to %d, reference %d",
							scale, math.Float32bits(scale), i, v, math.Float32bits(v), got[i], want)
					}
				}
			}
		})
	})
}

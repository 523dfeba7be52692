package nn

import (
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/kernelref"
	"edgepulse/internal/simd/simdtest"
	"edgepulse/internal/tensor"
)

// fuzzShape turns raw fuzz integers into a window the naive reference
// can afford: H and W up to 100 (so widths below one 4-pixel tile and
// kernels larger than the input both occur), channels up to 256,
// kernel 1-5, stride 1-3. It reports false for a VALID window that does
// not fit and for shapes beyond maxMACs.
func fuzzShape(h, w, ch, nf, kernel, stride uint8, same bool, perOutput func(ch, nf, kernel int) int) (in tensor.Shape, k, s int, pad Padding, ok bool) {
	in = tensor.Shape{1 + int(h)%100, 1 + int(w)%100, 1 + int(ch)}
	k, s = 1+int(kernel)%5, 1+int(stride)%3
	if same {
		pad = Same
	}
	oh, ow := convOutDim(in[0], k, s, pad), convOutDim(in[1], k, s, pad)
	const maxMACs = 3 << 20
	return in, k, s, pad, oh > 0 && ow > 0 && oh*ow*perOutput(in[2], 1+int(nf), k) <= maxMACs
}

// fuzzFill fills t from rng; special sprinkles NaN, both infinities and
// negative zero over it.
func fuzzFill(rng *rand.Rand, t *tensor.F32, special bool) {
	fillParams(rng, []*tensor.F32{t})
	if !special {
		return
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0}
	for n := 1 + len(t.Data)/7; n > 0; n-- {
		t.Data[rng.Intn(len(t.Data))] = specials[rng.Intn(len(specials))]
	}
}

// sameBits requires got and want to agree bit for bit, except that any
// NaN matches any NaN: when two NaNs meet in an add, x86 keeps the
// first operand's sign and payload and the Go compiler is free to order
// the operands, so which NaN survives is not stable even between two
// scalar Go loops.
func sameBits(t *testing.T, what string, got, want *tensor.F32) {
	t.Helper()
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("%s: shape %v, reference %v", what, got.Shape, want.Shape)
	}
	for i, w := range want.Data {
		if g := got.Data[i]; math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
			t.Fatalf("%s: elem %d = %v (%#x), reference %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// inferPoisoned runs l on x into an output first filled with NaN, so an
// element the kernel leaves unwritten cannot match a reference.
func inferPoisoned(l Layer, x *tensor.F32, outShape tensor.Shape) *tensor.F32 {
	out := tensor.NewF32(outShape...)
	for i := range out.Data {
		out.Data[i] = float32(math.NaN())
	}
	l.InferInto(x.Shape, x.Data, out.Data)
	return out
}

// FuzzConvF32 holds the tiled Conv2D to the naive triple loop, bit for
// bit, on every simd tier, over random shapes, odd and even channel
// counts, filter counts that are not a multiple of 8, strides, padding
// modes and non-finite inputs. The seeds are the reference models'
// layers.
func FuzzConvF32(f *testing.F) {
	// h, w, cin-1, filters-1, kernel-1, stride-1, same, special, seed
	f.Add(uint8(48), uint8(9), uint8(0), uint8(63), uint8(3), uint8(1), true, false, int64(1))   // kws head
	f.Add(uint8(24), uint8(4), uint8(63), uint8(63), uint8(0), uint8(0), true, false, int64(2))  // kws pointwise
	f.Add(uint8(95), uint8(95), uint8(2), uint8(7), uint8(2), uint8(1), true, false, int64(3))   // vww stem
	f.Add(uint8(47), uint8(47), uint8(7), uint8(15), uint8(0), uint8(0), true, false, int64(4))  // vww pointwise
	f.Add(uint8(5), uint8(5), uint8(127), uint8(127), uint8(0), uint8(0), true, false, int64(5)) // vww 6x6x128
	f.Add(uint8(2), uint8(2), uint8(255), uint8(255), uint8(0), uint8(0), true, true, int64(6))  // vww 3x3x256
	f.Add(uint8(31), uint8(31), uint8(2), uint8(15), uint8(2), uint8(0), true, false, int64(7))  // ic conv1
	f.Add(uint8(15), uint8(15), uint8(15), uint8(23), uint8(2), uint8(0), true, true, int64(8))  // ic conv2
	f.Add(uint8(1), uint8(2), uint8(68), uint8(10), uint8(4), uint8(2), true, true, int64(9))    // kernel > input
	f.Add(uint8(8), uint8(6), uint8(4), uint8(8), uint8(2), uint8(1), false, false, int64(10))   // valid, stride 2
	// Filter counts that split between the 512-bit blocks and a 256-bit 8.
	f.Add(uint8(11), uint8(11), uint8(7), uint8(23), uint8(2), uint8(0), true, true, int64(11)) // 24 = 16 + 8
	f.Add(uint8(9), uint8(7), uint8(4), uint8(39), uint8(0), uint8(0), false, false, int64(12)) // 40 = 32 + 8
	f.Add(uint8(6), uint8(6), uint8(12), uint8(55), uint8(2), uint8(1), true, true, int64(13))  // 56 = 32 + 16 + 8
	f.Fuzz(func(t *testing.T, h, w, cin, nf, kernel, stride uint8, same, special bool, seed int64) {
		in, k, s, pad, ok := fuzzShape(h, w, cin, nf, kernel, stride, same, func(ch, nf, k int) int { return ch * nf * k * k })
		if !ok {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		c := NewConv2D(1+int(nf), k, s, pad, Activation(rng.Intn(3)))
		outShape, err := c.OutShape(in)
		if err != nil {
			t.Fatal(err)
		}
		c.Build(in[2])
		fillParams(rng, c.Params())
		x := tensor.NewF32(in...)
		fuzzFill(rng, x, special)
		want := refConv2D(c, x)
		simdtest.ForEachTier(t, func(t *testing.T) {
			sameBits(t, "conv2d", inferPoisoned(c, x, outShape), want)
		})
	})
}

// FuzzDepthwiseF32 is FuzzConvF32 for the depthwise pixel kernel.
func FuzzDepthwiseF32(f *testing.F) {
	// h, w, channels-1, kernel-1, stride-1, same, special, seed
	f.Add(uint8(24), uint8(4), uint8(63), uint8(2), uint8(0), true, false, int64(1)) // kws
	f.Add(uint8(47), uint8(47), uint8(7), uint8(2), uint8(0), true, false, int64(2)) // vww first block
	f.Add(uint8(47), uint8(47), uint8(15), uint8(2), uint8(1), true, true, int64(3)) // vww stride 2
	f.Add(uint8(5), uint8(5), uint8(127), uint8(2), uint8(0), true, false, int64(4)) // vww 6x6x128
	f.Add(uint8(2), uint8(2), uint8(255), uint8(2), uint8(0), true, true, int64(5))  // vww 3x3x256
	f.Add(uint8(5), uint8(5), uint8(127), uint8(2), uint8(1), true, false, int64(6)) // vww 6x6 -> 3x3
	f.Add(uint8(1), uint8(2), uint8(68), uint8(4), uint8(2), true, true, int64(7))   // kernel > input
	f.Add(uint8(8), uint8(7), uint8(4), uint8(2), uint8(1), false, false, int64(8))  // valid, odd channels
	f.Fuzz(func(t *testing.T, h, w, ch, kernel, stride uint8, same, special bool, seed int64) {
		in, k, s, pad, ok := fuzzShape(h, w, ch, 0, kernel, stride, same, func(ch, _, k int) int { return ch * k * k })
		if !ok {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		c := NewDepthwiseConv2D(k, s, pad, Activation(rng.Intn(3)))
		outShape, err := c.OutShape(in)
		if err != nil {
			t.Fatal(err)
		}
		c.Build(in[2])
		fillParams(rng, c.Params())
		x := tensor.NewF32(in...)
		fuzzFill(rng, x, special)
		want := refDepthwise(c, x)
		simdtest.ForEachTier(t, func(t *testing.T) {
			sameBits(t, "depthwise", inferPoisoned(c, x, outShape), want)
		})
	})
}

// FuzzPoolF32 holds the four float pooling layers to the naive window
// loops of internal/kernelref, bit for bit, on every simd tier, over
// random shapes, window sizes, strides and non-finite inputs.
func FuzzPoolF32(f *testing.F) {
	// kind (max2d, avg2d, max1d, gap), h, w, channels-1, size-1, stride, special, seed
	f.Add(uint8(0), uint8(31), uint8(31), uint8(15), uint8(1), uint8(0), false, int64(1)) // ic max 2x2
	f.Add(uint8(1), uint8(24), uint8(4), uint8(63), uint8(1), uint8(1), true, int64(2))   // avg, stride 1
	f.Add(uint8(2), uint8(48), uint8(0), uint8(7), uint8(2), uint8(2), true, int64(3))    // 1-D, overlapping
	f.Add(uint8(3), uint8(5), uint8(5), uint8(255), uint8(0), uint8(0), false, int64(4))  // vww head
	f.Add(uint8(0), uint8(6), uint8(7), uint8(2), uint8(4), uint8(3), true, int64(5))     // odd sizes
	f.Fuzz(func(t *testing.T, kind, h, w, ch, size, stride uint8, special bool, seed int64) {
		g := kernelref.Pool{H: 1 + int(h)%64, W: 1 + int(w)%64, C: 1 + int(ch), KH: 1 + int(size)%5, Stride: int(stride) % 4}
		g.KW = g.KH
		in := tensor.Shape{g.H, g.W, g.C}
		var l Layer
		switch kind % 4 {
		case 0:
			l = NewMaxPool2D(g.KH, g.Stride)
		case 1:
			l = NewAvgPool2D(g.KH, g.Stride)
		case 2:
			g.W, g.KW, in = 1, 1, tensor.Shape{g.H, g.C}
			l = NewMaxPool1D(g.KH, g.Stride)
		case 3:
			g.KH, g.KW = g.H, g.W
			l = NewGlobalAvgPool2D()
		}
		if g.Stride == 0 {
			g.Stride = g.KH // the layers' default
		}
		outShape, err := l.OutShape(in)
		if err != nil {
			t.Skip() // the window does not fit
		}
		rng := rand.New(rand.NewSource(seed))
		x := tensor.NewF32(in...)
		fuzzFill(rng, x, special)
		var want []float32
		switch kind % 4 {
		case 0, 2:
			want = kernelref.MaxPoolF32(g, x.Data)
		case 1:
			want = kernelref.AvgPoolF32(g, x.Data)
		case 3:
			want = kernelref.GlobalAvgPoolF32(g.H, g.W, g.C, x.Data)
		}
		simdtest.ForEachTier(t, func(t *testing.T) {
			sameBits(t, l.Kind(), inferPoisoned(l, x, outShape), &tensor.F32{Shape: outShape, Data: want})
		})
	})
}

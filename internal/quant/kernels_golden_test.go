package quant

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgepulse/internal/kernelref"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/simd/simdtest"
	"edgepulse/internal/tensor"
)

// multiplyByQuantizedMultiplier is the int32 half of simd.Requant.Apply
// written out on its own, the requantization the references below use:
// acc·2^shift times the Q31 mantissa mult by a doubling high multiply
// with gemmlowp's nudge (2^30, or 1-2^30 for a negative product) but
// floored by >> 31 where gemmlowp's SaturatingRoundingDoublingHighMul
// truncates toward zero, then a right shift rounding halves up, then
// int32 saturation. Under a right shift of one or more the floor is
// absorbed and the result is TFLite's; at shift >= 0 (a real multiplier
// of 0.5 or more) a negative product whose high half is inexact comes
// out one below TFLite's.
func multiplyByQuantizedMultiplier(acc int32, mult int32, shift int) int32 {
	leftShift, rightShift := max(shift, 0), max(-shift, 0)
	prod := (int64(acc) << leftShift) * int64(mult)
	nudge := int64(1) << 30
	if prod < 0 {
		nudge = 1 - nudge
	}
	high := (prod + nudge) >> 31
	if rightShift > 0 {
		high = (high + int64(1)<<(rightShift-1)) >> rightShift
	}
	return int32(min(max(high, math.MinInt32), math.MaxInt32))
}

// requant is the reference requantization of one accumulator of op.
func requant(op *QOp, acc int32) int8 {
	v := multiplyByQuantizedMultiplier(acc, op.mult, op.shift) + op.OutQ.ZeroPoint
	return int8(clampI32(v, op.ActMin, op.ActMax))
}

// qOutDim mirrors the conv output-size rule the quantizer uses.
func qOutDim(in, kernel, stride, pad int) int {
	if pad == 1 {
		return (in + stride - 1) / stride
	}
	if in < kernel {
		return 0
	}
	return (in-kernel)/stride + 1
}

// randQOp builds a random quantized compute op with consistent shapes
// and a Rebind'd pair-weight layout.
func randQOp(rng *rand.Rand, kind string, inShape tensor.Shape, filters, kernel, stride, pad int) *QOp {
	op := &QOp{
		OpSpec: nn.OpSpec{
			Kind:    kind,
			InShape: inShape.Clone(),
			Attrs:   map[string]float64{"kernel": float64(kernel), "stride": float64(stride), "padding": float64(pad)},
		},
		InQ:    tensor.QParams{Scale: 0.11, ZeroPoint: int32(rng.Intn(41) - 20)},
		OutQ:   tensor.QParams{Scale: 0.09, ZeroPoint: int32(rng.Intn(41) - 20)},
		WScale: 0.013,
		ActMin: -128,
		ActMax: 127,
	}
	var wLen, nOut int
	switch kind {
	case "dense":
		nOut = filters
		op.OutShape = tensor.Shape{filters}
		wLen = inShape.Elems() * filters
	case "conv2d":
		nOut = filters
		op.OutShape = tensor.Shape{
			qOutDim(inShape[0], kernel, stride, pad),
			qOutDim(inShape[1], kernel, stride, pad),
			filters,
		}
		wLen = kernel * kernel * inShape[2] * filters
	case "depthwise_conv2d":
		nOut = inShape[2]
		op.OutShape = tensor.Shape{
			qOutDim(inShape[0], kernel, stride, pad),
			qOutDim(inShape[1], kernel, stride, pad),
			inShape[2],
		}
		wLen = kernel * kernel * inShape[2]
	case "conv1d":
		nOut = filters
		op.OutShape = tensor.Shape{qOutDim(inShape[0], kernel, stride, pad), filters}
		wLen = kernel * inShape[1] * filters
	}
	op.W = make([]int8, wLen)
	for i := range op.W {
		op.W[i] = int8(rng.Intn(255) - 127)
	}
	op.Bias = make([]int32, nOut)
	for i := range op.Bias {
		op.Bias[i] = int32(rng.Intn(20001) - 10000)
	}
	op.Rebind()
	return op
}

// reference runs op's compute kernel as internal/kernelref's naive loop.
func reference(op *QOp, in []int8) []int8 {
	rq := func(a int32) int8 { return requant(op, a) }
	k, s, same := int(op.Attrs["kernel"]), int(op.Attrs["stride"]), op.Attrs["padding"] == 1
	switch op.Kind {
	case "dense":
		return kernelref.DenseI8(in, op.W, op.Bias, op.InQ.ZeroPoint, rq)
	case "conv1d":
		g := kernelref.Window1D{T: op.InShape[0], C: op.InShape[1], Kernel: k, Stride: s, Same: same}
		return kernelref.Conv1DI8(g, in, op.W, op.Bias, op.InQ.ZeroPoint, rq)
	}
	g := kernelref.Window{H: op.InShape[0], W: op.InShape[1], C: op.InShape[2], Kernel: k, Stride: s, Same: same}
	if op.Kind == "conv2d" {
		return kernelref.Conv2DI8(g, in, op.W, op.Bias, op.InQ.ZeroPoint, rq)
	}
	return kernelref.DepthwiseI8(g, in, op.W, op.Bias, op.InQ.ZeroPoint, rq)
}

// TestQuantKernelsGolden holds RunOp's kernels to internal/kernelref
// bit for bit across shapes (odd and even cin, cin=1 like the KWS head
// conv, whose weights are also row-paired), strides and padding modes,
// on every simd tier.
func TestQuantKernelsGolden(t *testing.T) {
	type tc struct {
		kind    string
		in      tensor.Shape
		filters int
		kernel  int
		stride  int
		pad     int
	}
	cases := []tc{
		{"dense", tensor.Shape{64}, 12, 0, 1, 0},
		{"dense", tensor.Shape{33}, 7, 0, 1, 0},
		{"dense", tensor.Shape{1}, 3, 0, 1, 0},
		{"conv2d", tensor.Shape{9, 7, 8}, 16, 3, 1, 1},
		{"conv2d", tensor.Shape{9, 7, 5}, 9, 3, 2, 0},
		{"conv2d", tensor.Shape{49, 10, 1}, 64, 4, 2, 1},
		{"conv2d", tensor.Shape{6, 6, 64}, 64, 1, 1, 1},
		{"depthwise_conv2d", tensor.Shape{9, 7, 16}, 0, 3, 1, 1},
		{"depthwise_conv2d", tensor.Shape{8, 8, 5}, 0, 3, 2, 0},
		{"conv1d", tensor.Shape{40, 6}, 10, 5, 1, 1},
		{"conv1d", tensor.Shape{31, 3}, 8, 3, 2, 0},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%v", c.kind, c.in), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(c.kind)) + int64(c.in.Elems())))
			op := randQOp(rng, c.kind, c.in, c.filters, c.kernel, c.stride, c.pad)
			q := &QModel{InputShape: c.in.Clone(), InQ: op.InQ, Ops: []*QOp{op}}
			in := tensor.NewI8(op.InQ, c.in...)
			for i := range in.Data {
				in.Data[i] = int8(rng.Intn(256) - 128)
			}
			want := reference(op, in.Data)
			simdtest.ForEachTier(t, func(t *testing.T) {
				got := q.RunOp(op, in)
				for i := range want {
					if got.Data[i] != want[i] {
						t.Fatalf("elem %d = %d, reference %d", i, got.Data[i], want[i])
					}
				}
			})
		})
	}
}

// referenceForward is q's forward pass on internal/kernelref's naive
// loops, ending in the executor's dequantize and float softmax head.
func referenceForward(q *QModel, in *tensor.F32) *tensor.F32 {
	x := make([]int8, len(in.Data))
	q.InQ.QuantizeInto(x, in.Data)
	outQ, shape, softmax := q.InQ, q.InputShape, false
	for _, op := range q.Ops {
		if op.Kind == "softmax" {
			softmax = true
			break
		}
		shape = op.OutShape
		if nn.Aliases(op.Kind) {
			continue
		}
		outQ = op.OutQ
		if len(op.W) > 0 {
			x = reference(op, x)
			continue
		}
		h, w, c := op.InShape[0], op.InShape[1], op.InShape[2]
		size, stride := poolDims(op)
		switch op.Kind {
		case "gap2d":
			x = kernelref.GlobalAvgPoolI8(h, w, c, x)
		case "maxpool2d":
			x = kernelref.MaxPoolI8(kernelref.Pool{H: h, W: w, C: c, KH: size, KW: size, Stride: stride}, x)
		default:
			panic("referenceForward: no reference for " + op.Kind)
		}
	}
	res := tensor.NewF32(shape...)
	for i, v := range x {
		res.Data[i] = outQ.Dequantize(v)
	}
	if softmax {
		new(nn.Softmax).InferInto(res.Shape, res.Data, res.Data)
	}
	return res
}

// TestForwardIgnoresScratchContents runs the reference models' int8
// executors with every kernel handed a scratch full of junk and holds
// them to internal/kernelref's loops bit for bit, on every simd tier:
// each pair a kernel reads — the depthwise conv's pad rows and columns
// included — is written in the same call, never left from an earlier
// op or assumed zero.
func TestForwardIgnoresScratchContents(t *testing.T) {
	saved := maps.Clone(kernels)
	defer maps.Copy(kernels, saved)
	for kind, k := range saved {
		kernels[kind] = func(op *nn.Op[*QOp], in, out []int8, sc *scratch) {
			for i := range sc.acc {
				sc.acc[i] = -0x5a5a5a5b
			}
			for i := range sc.vp {
				sc.vp[i] = 0xa5a5a5a5
			}
			k(op, in, out, sc)
		}
	}
	simdtest.ForEachTier(t, func(t *testing.T) {
		for name, m := range map[string]*nn.Model{
			"kws": models.KWSDSCNN(49, 10, 12),
			"vww": models.VWWMobileNetV1(96, 3, 0.25, 2),
			"ic":  models.CIFARCNN(32, 3, 10),
		} {
			if err := nn.InitWeights(m, 1); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			in := tensor.NewF32(m.InputShape...)
			for i := range in.Data {
				in.Data[i] = rng.Float32()
			}
			q, err := Quantize(m, []*tensor.F32{in})
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewExecutor(q, nn.BindAtBuild)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceForward(q, in)
			got, err := e.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s: output %d = %v, kernelref %v", name, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
}

// depthwiseLayers are the depthwise convolutions of the reference
// models, 3x3 SAME windows all: kws's four 25x5x64 stride-1 layers and
// every vww shape at the strides it runs.
var depthwiseLayers = []struct {
	name             string
	h, w, ch, stride int
}{
	{"kws/25x5x64", 25, 5, 64, 1},
	{"vww/48x48x8", 48, 48, 8, 1},
	{"vww/48x48x16/s2", 48, 48, 16, 2},
	{"vww/24x24x32", 24, 24, 32, 1},
	{"vww/24x24x32/s2", 24, 24, 32, 2},
	{"vww/12x12x64", 12, 12, 64, 1},
	{"vww/12x12x64/s2", 12, 12, 64, 2},
	{"vww/6x6x128", 6, 6, 128, 1},
	{"vww/6x6x128/s2", 6, 6, 128, 2},
	{"vww/3x3x256", 3, 3, 256, 1},
}

// BenchmarkDepthwiseLayers times one whole depthwise op of each
// reference-model shape in both precisions on the executor's kernels:
// the float layer's InferInto, and the int8 kernel with its tap-pair
// pack. MB/s reads as MMAC/s.
func BenchmarkDepthwiseLayers(b *testing.B) {
	for _, l := range depthwiseLayers {
		m := nn.NewModel(l.h, l.w, l.ch).Add(nn.NewDepthwiseConv2D(3, l.stride, nn.Same, nn.ReLU6))
		if err := nn.InitWeights(m, 1); err != nil {
			b.Fatal(err)
		}
		in := randTensor(rand.New(rand.NewSource(1)), l.h, l.w, l.ch)
		qm, err := Quantize(m, []*tensor.F32{in})
		if err != nil {
			b.Fatal(err)
		}
		op := qm.Ops[0]
		b.Run(l.name+"/f32", func(b *testing.B) {
			out := make([]float32, op.OutShape.Elems())
			b.SetBytes(op.MACs)
			for i := 0; i < b.N; i++ {
				m.Layers[0].InferInto(op.InShape, in.Data, out)
			}
		})
		b.Run(l.name+"/i8", func(b *testing.B) {
			qin, out := make([]int8, len(in.Data)), make([]int8, op.OutShape.Elems())
			op.InQ.QuantizeInto(qin, in.Data)
			acc, vp := scratchLens(op)
			sc := &scratch{acc: make([]int32, acc), vp: make([]uint32, vp)}
			k := &nn.Op[*QOp]{OpSpec: op.OpSpec, Node: op}
			b.SetBytes(op.MACs)
			for i := 0; i < b.N; i++ {
				qDepthwise(k, qin, out, sc)
			}
		})
	}
}

// TestRunOpUnknownKindPanics is the regression test for the silent
// pass-through bug: an op kind with no int8 kernel must panic loudly
// instead of feeding its input to the next layer unchanged.
func TestRunOpUnknownKindPanics(t *testing.T) {
	q := &QModel{}
	op := &QOp{OpSpec: nn.OpSpec{Kind: "sigmoid_lut", InShape: tensor.Shape{4}, OutShape: tensor.Shape{4}}}
	in := tensor.NewI8(tensor.QParams{Scale: 1}, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("RunOp(%q) did not panic", op.Kind)
		}
	}()
	q.RunOp(op, in)
}

// TestUnboundOpRefused is the guard for the deleted scalar fallback: a
// compute op built field by field without Rebind has no pair layout,
// and the executor refuses it by name while RunOp panics.
func TestUnboundOpRefused(t *testing.T) {
	op := randQOp(rand.New(rand.NewSource(1)), "conv1d", tensor.Shape{8, 3}, 4, 3, 1, 1)
	bare := &QOp{OpSpec: op.OpSpec, W: op.W, WScale: op.WScale, Bias: op.Bias, InQ: op.InQ, OutQ: op.OutQ, ActMin: -128, ActMax: 127}
	q := &QModel{InputShape: op.InShape, InQ: op.InQ, Ops: []*QOp{bare}}
	_, err := NewExecutor(q, nn.BindAtBuild)
	if err == nil || !strings.Contains(err.Error(), "op 0: conv1d") {
		t.Fatalf("NewExecutor on an op without Rebind: err = %v, want one naming op 0 (conv1d)", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RunOp ran an op without Rebind")
			}
		}()
		q.RunOp(bare, tensor.NewI8(op.InQ, op.InShape...))
	}()
	bare.Rebind()
	if _, err := NewExecutor(q, nn.BindAtBuild); err != nil {
		t.Fatalf("after Rebind: %v", err)
	}
}

// TestRunOpFlattenCopies is the regression test for the aliasing bug:
// RunOp's identity ops must return a copy, so mutating the output never
// corrupts the caller's input tensor.
func TestRunOpFlattenCopies(t *testing.T) {
	q := &QModel{}
	in := tensor.NewI8(tensor.QParams{Scale: 1}, 2, 3)
	for i := range in.Data {
		in.Data[i] = int8(i)
	}
	for _, kind := range []string{"flatten", "reshape"} {
		op := &QOp{OpSpec: nn.OpSpec{Kind: kind, InShape: tensor.Shape{2, 3}, OutShape: tensor.Shape{6}}}
		out := q.RunOp(op, in)
		out.Data[0] = 99
		if in.Data[0] != 0 {
			t.Fatalf("%s: mutating RunOp output corrupted the input (in.Data[0] = %d)", kind, in.Data[0])
		}
		out.Data[0] = 0
		for i := range in.Data {
			if out.Data[i] != in.Data[i] {
				t.Fatalf("%s: output diverges at %d", kind, i)
			}
		}
	}
}

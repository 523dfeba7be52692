package quant

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"edgepulse/internal/nn"
	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

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

// runBoth executes op through the pair-panel kernels and through the
// scalar reference (wPair stripped) and requires bitwise-equal outputs.
func runBoth(t *testing.T, q *QModel, op *QOp, in *tensor.I8) {
	t.Helper()
	if op.wPair == nil && op.Kind != "depthwise_conv2d" {
		t.Fatalf("%s: Rebind did not build wPair", op.Kind)
	}
	fast := q.RunOp(op, in)
	ref := *op
	ref.wPair = nil
	ref.wPairRow = nil
	slow := q.RunOp(&ref, in)
	if !bytes.Equal(int8Bytes(fast.Data), int8Bytes(slow.Data)) {
		for i := range fast.Data {
			if fast.Data[i] != slow.Data[i] {
				t.Fatalf("%s: elem %d = %d, reference %d", op.Kind, i, fast.Data[i], slow.Data[i])
			}
		}
	}
}

func int8Bytes(s []int8) []byte {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte(v)
	}
	return b
}

// TestQuantKernelsGolden checks the vectorized int8 kernels are bitwise
// identical to the historical scalar loops across shapes (odd and even
// cin, cin=1 like the KWS head conv), strides and padding modes, with
// the assembly path both enabled and disabled.
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
	for _, enabled := range []bool{true, false} {
		simd.SetEnabled(enabled)
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%v/simd=%v", c.kind, c.in, enabled), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(c.kind)) + int64(c.in.Elems())))
				op := randQOp(rng, c.kind, c.in, c.filters, c.kernel, c.stride, c.pad)
				q := &QModel{InputShape: c.in.Clone(), InQ: op.InQ, Ops: []*QOp{op}}
				in := tensor.NewI8(op.InQ, c.in...)
				for i := range in.Data {
					in.Data[i] = int8(rng.Intn(256) - 128)
				}
				runBoth(t, q, op, in)
			})
		}
	}
	simd.SetEnabled(true)
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

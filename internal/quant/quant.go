// Package quant implements full int8 post-training quantization (paper
// Sec. 4.5): weight and activation quantization with a representative
// calibration dataset, integer-only inference kernels with fixed-point
// requantization, and operator fusion (batchnorm folding).
//
// The produced QModel mirrors TFLite int8 semantics: symmetric int8
// weights, asymmetric int8 activations, int32 bias and accumulators.
package quant

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"edgepulse/internal/nn"
	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

// QOp is one quantized operation: the float op's structural spec (kind,
// shapes, hyperparameters, MACs) plus the int8 parameters.
type QOp struct {
	nn.OpSpec
	// W holds symmetric int8 weights (layout identical to the float op).
	W []int8
	// WScale is the weight scale (zero point 0).
	WScale float32
	// Bias holds int32 biases at scale InQ.Scale*WScale.
	Bias []int32
	// InQ and OutQ are the activation quantization parameters.
	InQ, OutQ tensor.QParams
	// ActMin and ActMax clamp the quantized output (fused activation).
	ActMin, ActMax int32

	mult  int32
	shift int
	// wPair holds the int16 weight pairs the compute kernels consume:
	// for dense, conv2d and conv1d one pair-interleaved [ceil(cin/2) x
	// filters] panel per kernel tap (see simd.PairWeights), for the
	// depthwise conv the horizontal taps of every kernel row paired per
	// channel (see simd.PairDepthwise). Built by Rebind; an op without it is
	// refused (see bound).
	wPair []int16
	// wPairRow is the cin==1 conv2d alternative layout: per kernel row
	// ky, the kx taps pair as if they were input channels, turning the
	// single-channel head conv's 1-pair taps into [kernel x filters]
	// panels over a contiguous input row. Built only for even kernel
	// widths (odd ones would need a phantom tap per row).
	wPairRow []int16
}

// WeightBytes returns the flash footprint of this op's parameters.
func (o *QOp) WeightBytes() int64 {
	return int64(len(o.W)) + int64(len(o.Bias))*4
}

// Rebind recomputes the derived kernel state from the op's serialized
// fields: the fixed-point requantization parameters and the
// pair-interleaved weight layout the vectorized int8 kernels consume.
// It must be called after constructing a QOp from its serialized fields
// (neither the multiplier nor the pair layout is persisted).
func (o *QOp) Rebind() {
	if len(o.W) == 0 {
		return
	}
	o.mult, o.shift = quantizeMultiplier(
		float64(o.InQ.Scale) * float64(o.WScale) / float64(o.OutQ.Scale))
	switch o.Kind {
	case "dense":
		o.wPair = simd.PairWeights(o.W, o.InShape.Elems(), o.OutShape.Elems())
	case "conv2d":
		kernel := int(o.Attrs["kernel"])
		o.wPair = pairTaps(o.W, kernel*kernel, o.InShape[2], o.OutShape[2])
		if o.InShape[2] == 1 && kernel%2 == 0 {
			// Repair the taps row-wise: ky is the tap, kx the channel.
			o.wPairRow = pairTaps(o.W, kernel, kernel, o.OutShape[2])
		}
	case "conv1d":
		kernel := int(o.Attrs["kernel"])
		o.wPair = pairTaps(o.W, kernel, o.InShape[1], o.OutShape[1])
	case "depthwise_conv2d":
		o.wPair = simd.PairDepthwise(o.W, int(o.Attrs["kernel"]), o.InShape[2])
	}
}

// CheckWeights reports a compute op whose weights and biases do not fit
// its shapes and kernel as Rebind and the kernels read them. A model
// read from a file or a peer is checked before Rebind, which sizes the
// pair layouts from the shapes.
func (o *QOp) CheckWeights() error {
	rank, k := 0, o.Attrs["kernel"]
	switch o.Kind {
	case "dense":
		rank, k = 1, 1
	case "conv1d":
		rank = 2
	case "conv2d", "depthwise_conv2d":
		rank, k = 3, k*k
	default:
		return nil
	}
	if len(o.InShape) != rank || len(o.OutShape) != rank || !o.InShape.Valid() || !o.OutShape.Valid() ||
		!(k >= 1 && k == math.Trunc(k)) {
		return fmt.Errorf("quant: %s op: shapes %v -> %v, kernel %v", o.Kind, o.InShape, o.OutShape, o.Attrs["kernel"])
	}
	cin, cout := float64(o.InShape[rank-1]), float64(o.OutShape[rank-1])
	w := k * cin * cout
	if o.Kind == "depthwise_conv2d" {
		w = k * cin
		if cin != cout {
			return fmt.Errorf("quant: depthwise_conv2d op maps %v channels to %v", cin, cout)
		}
	}
	if float64(len(o.W)) != w || float64(len(o.Bias)) != cout {
		return fmt.Errorf("quant: %s op holds %d weights and %d biases, its shapes take %.0f and %.0f",
			o.Kind, len(o.W), len(o.Bias), w, cout)
	}
	return nil
}

// bound reports a compute op whose pair layout Rebind never built.
func (o *QOp) bound() error {
	switch o.Kind {
	case "dense", "conv2d", "conv1d", "depthwise_conv2d":
		if o.wPair == nil {
			return fmt.Errorf("%s op has no pair-interleaved weights: Rebind was not called", o.Kind)
		}
	}
	return nil
}

// pairTaps builds the per-tap pair panels for a conv weight tensor laid
// out as taps x [cin x nf].
func pairTaps(w []int8, taps, cin, nf int) []int16 {
	block := ((cin + 1) / 2) * nf * 2
	out := make([]int16, taps*block)
	for t := 0; t < taps; t++ {
		copy(out[t*block:(t+1)*block], simd.PairWeights(w[t*cin*nf:(t+1)*cin*nf], cin, nf))
	}
	return out
}

// QModel is a quantized model: an int8 op pipeline plus input/output
// quantization parameters. The final softmax runs in float, as TFLM does
// for its reference int8 kernels' output head.
type QModel struct {
	InputShape tensor.Shape
	InQ        tensor.QParams
	Ops        []*QOp
	NumClasses int

	// exec caches the executor behind Forward, built on first use (a
	// QModel is also assembled field by field when deserialized).
	exec atomic.Pointer[Executor]
}

// scratch is the int8 kernels' per-run workspace: the int32
// accumulator row and the packed input pairs — channel pairs for the
// convs and dense, the tap-pair stream for the depthwise conv. A kernel
// writes every pair it reads on every call.
type scratch struct {
	acc []int32
	vp  []uint32
}

// qKernel is an int8 op kernel.
type qKernel = nn.Kernel[int8, *QOp, scratch]

// Executor runs a QModel's int8 pipeline.
type Executor = nn.Executor[int8, *QOp, scratch]

// NewExecutor builds the int8 executor of a model: the float input is
// quantized into the arena, every op up to a softmax runs in int8 (the
// arena is planned over those ops alone), and the result is dequantized — through a float softmax head when the
// model ends in one, as TFLM does for its reference int8 kernels. A
// compute op that Rebind never prepared is an error.
func NewExecutor(q *QModel, binding nn.Binding) (*Executor, error) {
	var ops []nn.Op[*QOp]
	outQ, softmax := q.InQ, false
	var maxAcc, maxVp int
	for i, op := range q.Ops {
		if op.Kind == "softmax" {
			softmax = true
			break
		}
		if err := op.bound(); err != nil {
			return nil, fmt.Errorf("quant: op %d: %w", i, err)
		}
		ops = append(ops, nn.Op[*QOp]{OpSpec: op.OpSpec, Node: op})
		if !nn.Aliases(op.Kind) {
			outQ = op.OutQ
		}
		acc, vp := scratchLens(op)
		maxAcc, maxVp = max(maxAcc, acc), max(maxVp, vp)
	}
	return nn.NewExecutor(q.InputShape, ops, binding, nn.Precision[int8, *QOp, scratch]{
		Kernels: kernels,
		NewScratch: func() *scratch {
			return &scratch{acc: make([]int32, maxAcc), vp: make([]uint32, maxVp)}
		},
		Stage: q.InQ.QuantizeInto,
		Result: func(res *tensor.F32, x []int8) {
			for i, v := range x {
				res.Data[i] = outQ.Dequantize(v)
			}
			if softmax {
				// The float head. Softmax is element-wise after its max
				// pass, so it is safe in place.
				new(nn.Softmax).InferInto(res.Shape, res.Data, res.Data)
			}
		},
	})
}

// Forward runs the int8 pipeline on the model's executor, the one
// eon.Compile builds (planned arena, kernels bound at build), and returns
// float class probabilities; only the returned tensor is allocated. Like nn.Model.Forward it panics on
// an inconsistent model or a mis-shaped input.
func (q *QModel) Forward(in *tensor.F32) *tensor.F32 {
	e := q.exec.Load()
	if e == nil {
		var err error
		if e, err = NewExecutor(q, nn.BindAtBuild); err != nil {
			panic(err)
		}
		q.exec.Store(e)
	}
	out, err := e.Run(in)
	if err != nil {
		panic(err)
	}
	return out
}

// Specs returns the structural description of every op in order.
func (q *QModel) Specs() []nn.OpSpec {
	specs := make([]nn.OpSpec, len(q.Ops))
	for i, op := range q.Ops {
		specs[i] = op.OpSpec
	}
	return specs
}

// WeightBytes returns the total parameter flash footprint.
func (q *QModel) WeightBytes() int64 {
	var n int64
	for _, op := range q.Ops {
		n += op.WeightBytes()
	}
	return n
}

// MACs returns the total multiply-accumulate count of one inference.
func (q *QModel) MACs() int64 {
	var n int64
	for _, op := range q.Ops {
		n += op.MACs
	}
	return n
}

// Quantize converts a trained float model to int8 using the calibration
// set to determine activation ranges. BatchNorm layers are folded first;
// Dropout layers are dropped (inference no-ops). Calibration runs every
// sample through the folded model's float executor (Observe) and
// reduces each activation to its range with simd.MinMaxF32, allocating
// nothing per sample. The quantization parameters are those of a walk
// of the layers' InferInto with a scalar min/max loop, bit for bit: the
// ranges can differ only in the sign of a zero, which ChooseQParams maps
// alike.
//
// A model without BatchNorm is not copied: Quantize reads its layers and
// writes none, so the model may serve Forward calls meanwhile.
func Quantize(m *nn.Model, calibration []*tensor.F32) (*QModel, error) {
	if len(calibration) == 0 {
		return nil, fmt.Errorf("quant: calibration set is empty")
	}
	src := m
	if slices.ContainsFunc(m.Layers, isBatchNorm) {
		var err error
		if src, err = FoldBatchNorm(m); err != nil {
			return nil, err
		}
	}
	// A shallow model over src's layers without the inference no-ops;
	// nothing below writes a layer.
	folded := &nn.Model{InputShape: src.InputShape, NumClasses: src.NumClasses}
	for _, l := range src.Layers {
		if _, isDrop := l.(*nn.Dropout); !isDrop {
			folded.Layers = append(folded.Layers, l)
		}
	}
	exec, err := nn.NewFloatExecutor(folded, nn.BindAtBuild)
	if err != nil {
		return nil, fmt.Errorf("quant: %w", err)
	}

	// Calibration: record min/max at every activation boundary.
	nBounds := len(folded.Layers) + 1
	lo := make([]float32, nBounds)
	hi := make([]float32, nBounds)
	for i := range lo {
		lo[i] = float32(math.Inf(1))
		hi[i] = float32(math.Inf(-1))
	}
	observe := func(b int, x []float32) {
		l, h := simd.MinMaxF32(x)
		if l < lo[b] {
			lo[b] = l
		}
		if h > hi[b] {
			hi[b] = h
		}
	}
	for _, sample := range calibration {
		if !sample.Shape.Equal(folded.InputShape) {
			return nil, fmt.Errorf("quant: calibration sample shape %v != input %v", sample.Shape, folded.InputShape)
		}
		if err := exec.Observe(sample, observe); err != nil {
			return nil, fmt.Errorf("quant: %w", err)
		}
	}
	qparams := make([]tensor.QParams, nBounds)
	for i := range qparams {
		qparams[i] = tensor.ChooseQParams(lo[i], hi[i])
	}

	specs, err := folded.Spec()
	if err != nil {
		return nil, err
	}
	qm := &QModel{
		InputShape: folded.InputShape.Clone(),
		InQ:        qparams[0],
		NumClasses: m.NumClasses,
	}
	for i, l := range folded.Layers {
		op := &QOp{
			OpSpec: specs[i],
			InQ:    qparams[i],
			OutQ:   qparams[i+1],
			ActMin: -128,
			ActMax: 127,
		}
		if err := quantizeLayer(op, l); err != nil {
			return nil, err
		}
		qm.Ops = append(qm.Ops, op)
	}
	return qm, nil
}

// roundToInt32 rounds x to the nearest integer, halves away from zero,
// saturating to ±(2^31-1) as TFLite's quantizer does and mapping NaN to
// 0. Go's own conversion of an out-of-range float64 is
// implementation-defined (0x80000000 on amd64, saturating on arm64), so
// without this a tiny bias scale quantized the same model differently
// per architecture.
func roundToInt32(x float64) int32 {
	switch r := math.Round(x); {
	case r >= math.MaxInt32:
		return math.MaxInt32
	case r <= -math.MaxInt32:
		return -math.MaxInt32
	case r != r:
		return 0
	default:
		return int32(r)
	}
}

// quantizeWeights writes round(w[i]/scale), halves away from zero,
// clamped to ±127 with NaN as 0, into dst[:len(w)]: what roundToInt32
// and a ±127 clamp give, in one branch chain on the rounded float64.
func quantizeWeights(dst []int8, w []float32, scale float32) {
	s := float64(scale)
	dst = dst[:len(w)]
	for i, v := range w {
		r := math.Round(float64(v) / s)
		switch {
		case r > 127:
			dst[i] = 127
		case r < -127:
			dst[i] = -127
		case r != r:
			dst[i] = 0
		default:
			dst[i] = int8(r)
		}
	}
}

// quantizeLayer fills op with quantized weights for compute layers and
// adjusts pass-through ops.
func quantizeLayer(op *QOp, l nn.Layer) error {
	var w, b *tensor.F32
	var act nn.Activation
	switch v := l.(type) {
	case *nn.Dense:
		w, b, act = v.W, v.B, v.Act
	case *nn.Conv2D:
		w, b, act = v.W, v.B, v.Act
	case *nn.DepthwiseConv2D:
		w, b, act = v.W, v.B, v.Act
	case *nn.Conv1D:
		w, b, act = v.W, v.B, v.Act
	case *nn.MaxPool2D, *nn.AvgPool2D, *nn.MaxPool1D, *nn.GlobalAvgPool2D,
		*nn.Flatten, *nn.Reshape, *nn.Softmax:
		// Pass-through ops: pooling reuses the input qparams so maxima
		// and averages stay exact in the quantized domain.
		if op.Kind != "softmax" {
			op.OutQ = op.InQ
		}
		return nil
	default:
		return fmt.Errorf("quant: unsupported layer %s", l.Kind())
	}
	if act == nn.Sigmoid {
		return fmt.Errorf("quant: fused sigmoid is not supported in int8 (layer %s)", l.Kind())
	}
	// Symmetric weight quantization.
	absMax := w.AbsMax()
	if absMax == 0 {
		absMax = 1e-8
	}
	op.WScale = absMax / 127
	op.W = make([]int8, len(w.Data))
	quantizeWeights(op.W, w.Data, op.WScale)
	// Bias at accumulator scale.
	biasScale := float64(op.InQ.Scale) * float64(op.WScale)
	op.Bias = make([]int32, len(b.Data))
	for i, v := range b.Data {
		op.Bias[i] = roundToInt32(float64(v) / biasScale)
	}
	// Requantization multiplier and pair-interleaved kernel weights.
	op.Rebind()
	// Fused activation clamps in the quantized output domain.
	switch act {
	case nn.ReLU:
		op.ActMin = clampI32(op.OutQ.ZeroPoint, -128, 127)
	case nn.ReLU6:
		op.ActMin = clampI32(op.OutQ.ZeroPoint, -128, 127)
		op.ActMax = int32(op.OutQ.Quantize(6))
	}
	return nil
}

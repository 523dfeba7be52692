package quant

import (
	"fmt"

	"edgepulse/internal/nn"
	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

// RunOp executes a single quantized op into a freshly allocated output,
// for callers that exercise individual ops (the kernel golden tests).
// The output never aliases the input: identity ops (flatten, reshape)
// copy, so mutating the result cannot corrupt the caller's tensor. An
// op kind without an int8 kernel, or a compute op Rebind never
// prepared, panics.
func (q *QModel) RunOp(op *QOp, in *tensor.I8) *tensor.I8 {
	if nn.Aliases(op.Kind) {
		return &tensor.I8{
			Shape: op.OutShape.Clone(),
			Data:  append([]int8(nil), in.Data...),
			Q:     in.Q,
		}
	}
	k := kernels[op.Kind]
	if k == nil {
		panic(fmt.Sprintf("quant: no int8 kernel for op kind %q (softmax runs in the float head)", op.Kind))
	}
	if err := op.bound(); err != nil {
		panic("quant: " + err.Error())
	}
	out := tensor.NewI8(op.OutQ, op.OutShape...)
	acc, vp := scratchLens(op)
	sc := &scratch{acc: make([]int32, acc), vp: make([]uint32, vp)}
	k(&nn.Op[*QOp]{OpSpec: op.OpSpec, Node: op}, in.Data, out.Data, sc)
	return out
}

// scratchLens returns the scratch an op's kernel needs. acc is the int32
// accumulator width: the longest tile run of the convs (requantization
// batches over a run), the whole output for dense; the depthwise kernel
// requantizes in its registers and needs none. vp is the packed
// input-pair length in uint32 words: every input pixel padded to whole
// pairs (see simd.PackPairs); single-channel conv2d with row-paired
// weights adds each input row twice more — once per pair alignment
// phase — so a row-paired reduction may start at any x offset.
func scratchLens(op *QOp) (acc, vp int) {
	in, out := op.InShape, op.OutShape
	switch op.Kind {
	case "dense":
		return out.Elems(), (in.Elems() + 1) / 2
	case "conv2d":
		vp = in[0] * in[1] * ((in[2] + 1) / 2)
		if op.wPairRow != nil {
			vp += in[0] * 2 * ((in[1] + 1) / 2)
		}
		return min(nn.MaxRun, out[0]*out[1]) * out[2], vp
	case "conv1d":
		return min(nn.MaxRun, out[0]) * out[1], in[0] * ((in[1] + 1) / 2)
	}
	return 1, 0
}

// packInput packs a whole activation tensor of pixel rows with cin lanes
// each into the pair stream the int8 kernels consume, returning the
// per-pixel pitch in pairs. Even cin packs in one sweep; odd cin pads
// every pixel to a whole pair (the phantom lane multiplies a zero weight
// lane, contributing nothing).
func packInput(vp []uint32, data []int8, cin int, zp int32) int {
	if cin%2 == 0 {
		simd.PackPairs(vp, data, zp)
		return cin / 2
	}
	pp := (cin + 1) / 2
	o := 0
	for i := 0; i+cin <= len(data); i += cin {
		px := data[i : i+cin]
		for c := 1; c < cin; c += 2 {
			vp[o] = uint32(uint16(int32(px[c-1])-zp)) | uint32(uint16(int32(px[c])-zp))<<16
			o++
		}
		vp[o] = uint32(uint16(int32(px[cin-1]) - zp))
		o++
	}
	return pp
}

// kernels is the int8 kernel table. All compute kernels use int32
// accumulators over (q_in - in_zp) * q_w products on top of the int32
// bias, requantize with the op's fixed-point multiplier, add the output
// zero point and clamp to the fused activation range — the same dataflow
// as CMSIS-NN / TFLM reference int8 kernels. The inner loops are the
// package simd tiles (VPMADDWD dual-MAC conv tiles, the depthwise pixel
// kernel, vectorized requantization) over the same nn.Axis tap windows
// as the float kernels; integer arithmetic is exact, so results are
// bitwise identical to internal/kernelref's naive loops. Aliasing ops never
// reach a kernel, and softmax has none: it runs in the float head.
var kernels = map[string]qKernel{
	"dense":            qDense,
	"conv2d":           qConv2D,
	"depthwise_conv2d": qDepthwise,
	"conv1d":           qConv1D,
	"maxpool2d":        qMaxPool2D,
	"avgpool2d":        qAvgPool2D,
	"maxpool1d":        qMaxPool1D,
	"gap2d":            qGAP,
}

// requantParams is op's requantization for the simd kernels.
func (o *QOp) requantParams() simd.Requant {
	return simd.Requant{Mult: o.mult, Shift: o.shift, ZP: o.OutQ.ZeroPoint, Lo: o.ActMin, Hi: o.ActMax}
}

// axis is one spatial axis of op's window over in inputs.
func (o *QOp) axis(in int) nn.Axis {
	return nn.NewAxis(in, int(o.Attrs["kernel"]), int(o.Attrs["stride"]), nn.Padding(o.Attrs["padding"]))
}

func qDense(op *nn.Op[*QOp], in, out []int8, sc *scratch) {
	o := op.Node
	row := sc.acc[:len(out)]
	pairs := simd.PackPairs(sc.vp, in, o.InQ.ZeroPoint)
	simd.ConvTileI8(row, o.Bias, o.wPair, sc.vp, simd.Tile{P: 1, N: pairs, Rows: 1})
	simd.RequantI8(out, row, o.requantParams())
}

func qConv2D(op *nn.Op[*QOp], in, out []int8, sc *scratch) {
	o := op.Node
	y, x := nn.ConvAxes(o.InShape[0], o.InShape[1], int(o.Attrs["kernel"]), int(o.Attrs["stride"]), nn.Padding(o.Attrs["padding"]))
	qConvTiles(o, in, out, sc, y, x, o.InShape[2])
}

func qConv1D(op *nn.Op[*QOp], in, out []int8, sc *scratch) {
	o := op.Node
	qConvTiles(o, in, out, sc, nn.NewAxis(1, 1, 1, nn.Valid), o.axis(o.InShape[0]), o.InShape[1])
}

// qConvTiles is the pair-panel convolution of conv2d and conv1d (one
// input row): the input is packed once, then every run of output pixels
// that share a tap window is one simd.ConvTileI8 call — per valid kernel
// row the kx taps times the input pairs are one contiguous reduction in
// the pair stream and in wPair — requantized as a run.
//
// The single-input-channel conv2d (the KWS head conv) would reduce one
// half-empty pair per tap, so where the weights are row-paired (wPairRow:
// the kx taps of a kernel row paired as if they were channels) pixels
// with a whole window reduce kernel/2 pairs per row instead, from two
// more packings of every input row, one per pair-alignment phase, so a
// window may start at any x offset.
func qConvTiles(op *QOp, in, out []int8, sc *scratch, y, x nn.Axis, cin int) {
	acc, vp := sc.acc, sc.vp
	filters, k := len(op.Bias), x.Kernel
	inZP := op.InQ.ZeroPoint
	pp := packInput(vp, in, cin, inZP)
	// Phase streams: phases[iy*2S .. ] pairs lanes (0,1),(2,3),...;
	// phases[iy*2S+S .. ] pairs lanes (1,2),(3,4),...
	var phases []uint32
	S := (x.In + 1) / 2
	if op.wPairRow != nil {
		phases = vp[len(in):]
		for iy := 0; iy < y.In; iy++ {
			simd.PackPairs(phases[iy*2*S:], in[iy*x.In:(iy+1)*x.In], inZP)
			if x.In > 1 {
				simd.PackPairs(phases[iy*2*S+S:], in[iy*x.In+1:(iy+1)*x.In], inZP)
			}
		}
	}
	rq := op.requantParams()
	for oy := 0; oy < y.Out; oy++ {
		kyLo, kyHi, iy := y.Taps(oy)
		for ox, n := 0, 0; ox < x.Out; ox += n {
			var kxLo, kxHi, ix int
			n, kxLo, kxHi, ix = x.Run(ox, x.Out)
			run := acc[:n*filters]
			if phases != nil && kxHi-kxLo == k {
				// Consecutive windows keep their phase only under an
				// even stride; otherwise tile them one by one.
				step := n
				if x.Stride%2 == 1 {
					step = 1
				}
				for p := 0; p < n; p += step {
					ix0 := ix + p*x.Stride
					simd.ConvTileI8(run[p*filters:], op.Bias, op.wPairRow[kyLo*(k/2)*filters*2:], phases[(iy*2+ix0&1)*S+ix0>>1:], simd.Tile{
						P: step, N: k / 2, Rows: kyHi - kyLo,
						PixStride: x.Stride / 2, InRowStride: 2 * S, WRowStride: k / 2 * filters,
					})
				}
			} else {
				simd.ConvTileI8(run, op.Bias, op.wPair[(kyLo*k+kxLo)*pp*filters*2:], vp[(iy*x.In+ix)*pp:], simd.Tile{
					P: n, N: (kxHi - kxLo) * pp, Rows: kyHi - kyLo,
					PixStride: x.Stride * pp, InRowStride: x.In * pp, WRowStride: k * pp * filters,
				})
			}
			simd.RequantI8(out[(oy*x.Out+ox)*filters:][:n*filters], run, rq)
		}
	}
}

// qDepthwise needs no scratch: the pixel kernel requantizes in its
// registers.
func qDepthwise(op *nn.Op[*QOp], in, out []int8, _ *scratch) {
	o := op.Node
	w, ch := o.InShape[1], o.InShape[2]
	y, x := o.axis(o.InShape[0]), o.axis(w)
	inZP, rq := o.InQ.ZeroPoint, o.requantParams()
	for oy := 0; oy < y.Out; oy++ {
		kyLo, kyHi, iy := y.Taps(oy)
		for ox, n := 0, 0; ox < x.Out; ox += n {
			var kxLo, kxHi, ix int
			n, kxLo, kxHi, ix = x.Run(ox, x.Out)
			simd.DepthwiseI8(out[(oy*x.Out+ox)*ch:], o.Bias, o.W[(kyLo*x.Kernel+kxLo)*ch:], in[(iy*w+ix)*ch:], simd.Tile{
				P: n, N: kxHi - kxLo, Rows: kyHi - kyLo,
				PixStride: x.Stride * ch, InRowStride: w * ch, WRowStride: x.Kernel * ch,
			}, inZP, rq)
		}
	}
}

func poolDims(op *QOp) (size, stride int) {
	size = int(op.Attrs["size"])
	stride = int(op.Attrs["stride"])
	if stride < 1 {
		stride = size
	}
	return size, stride
}

func qMaxPool2D(op *nn.Op[*QOp], in, out []int8, _ *scratch) {
	w, ch := op.InShape[1], op.InShape[2]
	oh, ow := op.OutShape[0], op.OutShape[1]
	size, stride := poolDims(op.Node)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			best := out[(oy*ow+ox)*ch:][:ch]
			for c := range best {
				best[c] = -128
			}
			for ky := 0; ky < size; ky++ {
				for kx := 0; kx < size; kx++ {
					simd.MaxI8(best, in[((oy*stride+ky)*w+ox*stride+kx)*ch:][:ch])
				}
			}
		}
	}
}

func qAvgPool2D(op *nn.Op[*QOp], in, out []int8, _ *scratch) {
	w, ch := op.InShape[1], op.InShape[2]
	oh, ow := op.OutShape[0], op.OutShape[1]
	size, stride := poolDims(op.Node)
	n := int32(size * size)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < ch; c++ {
				var acc int32
				for ky := 0; ky < size; ky++ {
					for kx := 0; kx < size; kx++ {
						acc += int32(in[((oy*stride+ky)*w+(ox*stride+kx))*ch+c])
					}
				}
				out[(oy*ow+ox)*ch+c] = int8(clampI32(roundDiv(acc, n), -128, 127))
			}
		}
	}
}

func qMaxPool1D(op *nn.Op[*QOp], in, out []int8, _ *scratch) {
	ch := op.InShape[1]
	ot := op.OutShape[0]
	size, stride := poolDims(op.Node)
	for o := 0; o < ot; o++ {
		for c := 0; c < ch; c++ {
			best := int8(-128)
			for k := 0; k < size; k++ {
				best = max(best, in[(o*stride+k)*ch+c])
			}
			out[o*ch+c] = best
		}
	}
}

func qGAP(op *nn.Op[*QOp], in, out []int8, _ *scratch) {
	h, w, ch := op.InShape[0], op.InShape[1], op.InShape[2]
	n := int32(h * w)
	for c := 0; c < ch; c++ {
		var acc int32
		for i := 0; i < h*w; i++ {
			acc += int32(in[i*ch+c])
		}
		out[c] = int8(clampI32(roundDiv(acc, n), -128, 127))
	}
}

// roundDiv divides with round-half-away-from-zero semantics.
func roundDiv(a, b int32) int32 {
	if a >= 0 {
		return (a + b/2) / b
	}
	return (a - b/2) / b
}

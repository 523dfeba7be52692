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
// op kind without an int8 kernel panics.
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
	out := tensor.NewI8(op.OutQ, op.OutShape...)
	acc, vp := scratchLens(op)
	sc := &scratch{acc: make([]int32, acc), vp: make([]uint32, vp)}
	k(&nn.Op[*QOp]{OpSpec: op.OpSpec, Node: op}, in.Data, out.Data, sc)
	return out
}

// scratchLens returns the scratch an op's kernel needs. acc is the int32
// accumulator width: one output row for the 2-D convs (so
// requantization batches over the whole row), one pixel row for conv1d,
// the whole output for dense. vp is the packed input-pair length in
// uint32 words: every input pixel padded to whole pairs (see
// simd.PackPairs); single-channel conv2d packs each input row twice —
// once per pair alignment phase — so panels may start at any x offset.
func scratchLens(op *QOp) (acc, vp int) {
	in, out := op.InShape, op.OutShape
	switch op.Kind {
	case "dense":
		return out.Elems(), (in.Elems() + 1) / 2
	case "conv2d":
		if in[2] == 1 {
			return out[1] * out[2], in[0] * 2 * ((in[1] + 1) / 2)
		}
		return out[1] * out[2], in[0] * in[1] * ((in[2] + 1) / 2)
	case "depthwise_conv2d":
		return out[1] * out[2], 0
	case "conv1d":
		return out[1], in[0] * ((in[1] + 1) / 2)
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
	for px := 0; px*cin < len(data); px++ {
		simd.PackPairs(vp[px*pp:(px+1)*pp], data[px*cin:(px+1)*cin], zp)
	}
	return pp
}

// kernels maps op kinds to int8 kernels. All compute kernels use int32
// accumulators over (q_in - in_zp) * q_w products, add the int32 bias,
// requantize with the op's fixed-point multiplier, add the output zero
// point and clamp to the fused activation range — the same dataflow as
// CMSIS-NN / TFLM reference int8 kernels. The inner loops run on the
// package simd primitives (VPMADDWD dual-MAC panels, vectorized
// requantization); integer arithmetic is exact, so results are bitwise
// identical to the scalar reference order. Aliasing ops never reach a
// kernel, and softmax has none: it runs in the float head.
var kernels = map[string]qKernel{
	"dense":  bind(qDense),
	"conv2d": bind(qConv2D),
	"depthwise_conv2d": bind(func(op *QOp, in, out *tensor.I8, acc []int32, _ []uint32) {
		qDepthwise(op, in, out, acc)
	}),
	"conv1d":    bind(qConv1D),
	"maxpool2d": bindPool(qMaxPool2D),
	"avgpool2d": bindPool(qAvgPool2D),
	"maxpool1d": bindPool(qMaxPool1D),
	"gap2d":     bindPool(qGAP),
}

// bind adapts a compute kernel to the executor: the run's flat arena
// views are wrapped in the scratch's two tensor headers.
func bind(f func(op *QOp, in, out *tensor.I8, acc []int32, vp []uint32)) qKernel {
	return func(op *nn.Op[*QOp], in, out []int8, sc *scratch) {
		sc.in.Data, sc.out.Data = in, out
		f(op.Node, &sc.in, &sc.out, sc.acc, sc.vp)
	}
}

// bindPool is bind for the pooling kernels, which need no scratch rows.
func bindPool(f func(op *QOp, in, out *tensor.I8)) qKernel {
	return func(op *nn.Op[*QOp], in, out []int8, sc *scratch) {
		sc.in.Data, sc.out.Data = in, out
		f(op.Node, &sc.in, &sc.out)
	}
}

// requant converts an int32 accumulator to the quantized output domain
// (the scalar reference; batch requantization goes through simd.RequantI8,
// which is bit-for-bit identical).
func requant(op *QOp, acc int32) int8 {
	v := multiplyByQuantizedMultiplier(acc, op.mult, op.shift) + op.OutQ.ZeroPoint
	return int8(clampI32(v, op.ActMin, op.ActMax))
}

func qDense(op *QOp, in, out *tensor.I8, acc []int32, vp []uint32) {
	nIn := op.InShape.Elems()
	nOut := op.OutShape.Elems()
	row := acc[:nOut]
	copy(row, op.Bias)
	inZP := op.InQ.ZeroPoint
	if op.wPair != nil {
		pairs := simd.PackPairs(vp, in.Data[:nIn], inZP)
		simd.ConvAccI8(row, op.wPair, vp[:pairs], nOut)
		simd.RequantI8(out.Data[:nOut], row, op.mult, op.shift, op.OutQ.ZeroPoint, op.ActMin, op.ActMax)
		return
	}
	for i := 0; i < nIn; i++ {
		v := int32(in.Data[i]) - inZP
		wRow := op.W[i*nOut : (i+1)*nOut]
		for j, wv := range wRow {
			row[j] += v * int32(wv)
		}
	}
	for j, a := range row {
		out.Data[j] = requant(op, a)
	}
}

func convDims(op *QOp) (kernel, stride, pad int) {
	kernel = int(op.Attrs["kernel"])
	stride = int(op.Attrs["stride"])
	if stride < 1 {
		stride = 1
	}
	pad = int(op.Attrs["padding"]) // 0 = valid, 1 = same
	return kernel, stride, pad
}

// samePad computes the leading pad for Same padding.
func samePad(in, kernel, stride, outDim int) int {
	total := (outDim-1)*stride + kernel - in
	if total < 0 {
		total = 0
	}
	return total / 2
}

func qConv2D(op *QOp, in, out *tensor.I8, acc []int32, vp []uint32) {
	h, w, cin := op.InShape[0], op.InShape[1], op.InShape[2]
	oh, ow, filters := op.OutShape[0], op.OutShape[1], op.OutShape[2]
	kernel, stride, pad := convDims(op)
	py, px := 0, 0
	if pad == 1 {
		py = samePad(h, kernel, stride, oh)
		px = samePad(w, kernel, stride, ow)
	}
	inZP := op.InQ.ZeroPoint
	if op.wPairRow != nil && op.wPair != nil && cin == 1 {
		qConv2DCin1(op, in, out, acc, vp)
		return
	}
	if op.wPair != nil {
		// Pack the whole input once, then accumulate [cin x filters]
		// pair panels per valid tap with the tap range hoisted out of
		// the inner loops; requantization batches per output row.
		pp := packInput(vp, in.Data, cin, inZP)
		tapBlock := pp * filters * 2
		rowAcc := acc[:ow*filters]
		for oy := 0; oy < oh; oy++ {
			kyLo, kyHi := 0, kernel
			if d := py - oy*stride; d > 0 {
				kyLo = d
			}
			if d := h + py - oy*stride; d < kyHi {
				kyHi = d
			}
			for ox := 0; ox < ow; ox++ {
				seg := rowAcc[ox*filters : (ox+1)*filters]
				copy(seg, op.Bias)
				kxLo, kxHi := 0, kernel
				if d := px - ox*stride; d > 0 {
					kxLo = d
				}
				if d := w + px - ox*stride; d < kxHi {
					kxHi = d
				}
				for ky := kyLo; ky < kyHi; ky++ {
					iy := oy*stride + ky - py
					for kx := kxLo; kx < kxHi; kx++ {
						ix := ox*stride + kx - px
						tap := ky*kernel + kx
						pix := (iy*w + ix) * pp
						simd.ConvAccI8(seg, op.wPair[tap*tapBlock:(tap+1)*tapBlock], vp[pix:pix+pp], filters)
					}
				}
			}
			simd.RequantI8(out.Data[oy*ow*filters:(oy+1)*ow*filters],
				rowAcc, op.mult, op.shift, op.OutQ.ZeroPoint, op.ActMin, op.ActMax)
		}
		return
	}
	row := acc[:filters]
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			copy(row, op.Bias)
			for ky := 0; ky < kernel; ky++ {
				iy := oy*stride + ky - py
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < kernel; kx++ {
					ix := ox*stride + kx - px
					if ix < 0 || ix >= w {
						continue
					}
					inBase := (iy*w + ix) * cin
					wBase := (ky*kernel + kx) * cin * filters
					for ci := 0; ci < cin; ci++ {
						v := int32(in.Data[inBase+ci]) - inZP
						wRow := op.W[wBase+ci*filters : wBase+(ci+1)*filters]
						for f, wv := range wRow {
							row[f] += v * int32(wv)
						}
					}
				}
			}
			dst := out.Data[(oy*ow+ox)*filters : (oy*ow+ox+1)*filters]
			for f, a := range row {
				dst[f] = requant(op, a)
			}
		}
	}
}

// qConv2DCin1 is the single-input-channel conv2d fast path (the KWS
// head conv). Per-tap panels would hold one pair each, so instead the
// kx taps of one kernel row pair up as if they were channels: each
// (oy, ox, ky) becomes one [kernel x filters] panel over a contiguous
// stretch of the input row. Every input row is packed twice, once per
// pair-alignment phase, so a panel may start at any x offset. Integer
// accumulation is exact, so the regrouped order is bitwise-identical
// to the scalar reference.
func qConv2DCin1(op *QOp, in, out *tensor.I8, acc []int32, vp []uint32) {
	h, w := op.InShape[0], op.InShape[1]
	oh, ow, filters := op.OutShape[0], op.OutShape[1], op.OutShape[2]
	kernel, stride, pad := convDims(op)
	py, px := 0, 0
	if pad == 1 {
		py = samePad(h, kernel, stride, oh)
		px = samePad(w, kernel, stride, ow)
	}
	inZP := op.InQ.ZeroPoint
	// Phase streams: vp[iy*2S .. ] pairs lanes (0,1),(2,3),...;
	// vp[iy*2S+S .. ] pairs lanes (1,2),(3,4),...
	S := (w + 1) / 2
	for iy := 0; iy < h; iy++ {
		simd.PackPairs(vp[iy*2*S:], in.Data[iy*w:(iy+1)*w], inZP)
		if w > 1 {
			simd.PackPairs(vp[iy*2*S+S:], in.Data[iy*w+1:(iy+1)*w], inZP)
		}
	}
	block := (kernel / 2) * filters * 2
	tapBlock := filters * 2 // generic single-pair tap panels
	rowAcc := acc[:ow*filters]
	var one [1]uint32
	for oy := 0; oy < oh; oy++ {
		kyLo, kyHi := 0, kernel
		if d := py - oy*stride; d > 0 {
			kyLo = d
		}
		if d := h + py - oy*stride; d < kyHi {
			kyHi = d
		}
		for ox := 0; ox < ow; ox++ {
			seg := rowAcc[ox*filters : (ox+1)*filters]
			copy(seg, op.Bias)
			kxLo, kxHi := 0, kernel
			if d := px - ox*stride; d > 0 {
				kxLo = d
			}
			if d := w + px - ox*stride; d < kxHi {
				kxHi = d
			}
			if kxLo == 0 && kxHi == kernel {
				ix0 := ox*stride - px
				base := ix0&1*S + ix0>>1
				for ky := kyLo; ky < kyHi; ky++ {
					iy := oy*stride + ky - py
					p0 := iy*2*S + base
					simd.ConvAccI8(seg, op.wPairRow[ky*block:(ky+1)*block], vp[p0:p0+kernel/2], filters)
				}
			} else {
				// x-clipped boundary pixels fall back to single-pair taps.
				for ky := kyLo; ky < kyHi; ky++ {
					iy := oy*stride + ky - py
					for kx := kxLo; kx < kxHi; kx++ {
						ix := ox*stride + kx - px
						one[0] = uint32(uint16(int32(in.Data[iy*w+ix]) - inZP))
						tap := ky*kernel + kx
						simd.ConvAccI8(seg, op.wPair[tap*tapBlock:(tap+1)*tapBlock], one[:], filters)
					}
				}
			}
		}
		simd.RequantI8(out.Data[oy*ow*filters:(oy+1)*ow*filters],
			rowAcc, op.mult, op.shift, op.OutQ.ZeroPoint, op.ActMin, op.ActMax)
	}
}

func qDepthwise(op *QOp, in, out *tensor.I8, acc []int32) {
	h, w, ch := op.InShape[0], op.InShape[1], op.InShape[2]
	oh, ow := op.OutShape[0], op.OutShape[1]
	kernel, stride, pad := convDims(op)
	py, px := 0, 0
	if pad == 1 {
		py = samePad(h, kernel, stride, oh)
		px = samePad(w, kernel, stride, ow)
	}
	inZP := op.InQ.ZeroPoint
	rowAcc := acc[:ow*ch]
	for oy := 0; oy < oh; oy++ {
		kyLo, kyHi := 0, kernel
		if d := py - oy*stride; d > 0 {
			kyLo = d
		}
		if d := h + py - oy*stride; d < kyHi {
			kyHi = d
		}
		for ox := 0; ox < ow; ox++ {
			seg := rowAcc[ox*ch : (ox+1)*ch]
			copy(seg, op.Bias)
			kxLo, kxHi := 0, kernel
			if d := px - ox*stride; d > 0 {
				kxLo = d
			}
			if d := w + px - ox*stride; d < kxHi {
				kxHi = d
			}
			for ky := kyLo; ky < kyHi; ky++ {
				iy := oy*stride + ky - py
				for kx := kxLo; kx < kxHi; kx++ {
					ix := ox*stride + kx - px
					inRow := in.Data[(iy*w+ix)*ch : (iy*w+ix+1)*ch]
					wRow := op.W[(ky*kernel+kx)*ch : (ky*kernel+kx+1)*ch]
					simd.MulAccI8(seg, wRow, inRow, inZP)
				}
			}
		}
		simd.RequantI8(out.Data[oy*ow*ch:(oy+1)*ow*ch],
			rowAcc, op.mult, op.shift, op.OutQ.ZeroPoint, op.ActMin, op.ActMax)
	}
}

func qConv1D(op *QOp, in, out *tensor.I8, acc []int32, vp []uint32) {
	t, cin := op.InShape[0], op.InShape[1]
	ot, filters := op.OutShape[0], op.OutShape[1]
	kernel, stride, pad := convDims(op)
	p := 0
	if pad == 1 {
		p = samePad(t, kernel, stride, ot)
	}
	inZP := op.InQ.ZeroPoint
	row := acc[:filters]
	if op.wPair != nil {
		pp := packInput(vp, in.Data, cin, inZP)
		tapBlock := pp * filters * 2
		for o := 0; o < ot; o++ {
			copy(row, op.Bias)
			kLo, kHi := 0, kernel
			if d := p - o*stride; d > 0 {
				kLo = d
			}
			if d := t + p - o*stride; d < kHi {
				kHi = d
			}
			for k := kLo; k < kHi; k++ {
				i := o*stride + k - p
				simd.ConvAccI8(row, op.wPair[k*tapBlock:(k+1)*tapBlock], vp[i*pp:(i+1)*pp], filters)
			}
			simd.RequantI8(out.Data[o*filters:(o+1)*filters],
				row, op.mult, op.shift, op.OutQ.ZeroPoint, op.ActMin, op.ActMax)
		}
		return
	}
	for o := 0; o < ot; o++ {
		copy(row, op.Bias)
		for k := 0; k < kernel; k++ {
			i := o*stride + k - p
			if i < 0 || i >= t {
				continue
			}
			inBase := i * cin
			wBase := k * cin * filters
			for ci := 0; ci < cin; ci++ {
				v := int32(in.Data[inBase+ci]) - inZP
				wRow := op.W[wBase+ci*filters : wBase+(ci+1)*filters]
				for f, wv := range wRow {
					row[f] += v * int32(wv)
				}
			}
		}
		dst := out.Data[o*filters : (o+1)*filters]
		for f, a := range row {
			dst[f] = requant(op, a)
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

func qMaxPool2D(op *QOp, in, out *tensor.I8) {
	w, ch := op.InShape[1], op.InShape[2]
	oh, ow := op.OutShape[0], op.OutShape[1]
	size, stride := poolDims(op)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < ch; c++ {
				best := int8(-128)
				for ky := 0; ky < size; ky++ {
					for kx := 0; kx < size; kx++ {
						v := in.Data[((oy*stride+ky)*w+(ox*stride+kx))*ch+c]
						if v > best {
							best = v
						}
					}
				}
				out.Data[(oy*ow+ox)*ch+c] = best
			}
		}
	}
}

func qAvgPool2D(op *QOp, in, out *tensor.I8) {
	w, ch := op.InShape[1], op.InShape[2]
	oh, ow := op.OutShape[0], op.OutShape[1]
	size, stride := poolDims(op)
	n := int32(size * size)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < ch; c++ {
				var acc int32
				for ky := 0; ky < size; ky++ {
					for kx := 0; kx < size; kx++ {
						acc += int32(in.Data[((oy*stride+ky)*w+(ox*stride+kx))*ch+c])
					}
				}
				out.Data[(oy*ow+ox)*ch+c] = int8(clampI32(roundDiv(acc, n), -128, 127))
			}
		}
	}
}

func qMaxPool1D(op *QOp, in, out *tensor.I8) {
	ch := op.InShape[1]
	ot := op.OutShape[0]
	size, stride := poolDims(op)
	for o := 0; o < ot; o++ {
		for c := 0; c < ch; c++ {
			best := int8(-128)
			for k := 0; k < size; k++ {
				v := in.Data[(o*stride+k)*ch+c]
				if v > best {
					best = v
				}
			}
			out.Data[o*ch+c] = best
		}
	}
}

func qGAP(op *QOp, in, out *tensor.I8) {
	h, w, ch := op.InShape[0], op.InShape[1], op.InShape[2]
	n := int32(h * w)
	for c := 0; c < ch; c++ {
		var acc int32
		for i := 0; i < h*w; i++ {
			acc += int32(in.Data[i*ch+c])
		}
		out.Data[c] = int8(clampI32(roundDiv(acc, n), -128, 127))
	}
}

// roundDiv divides with round-half-away-from-zero semantics.
func roundDiv(a, b int32) int32 {
	if a >= 0 {
		return (a + b/2) / b
	}
	return (a - b/2) / b
}

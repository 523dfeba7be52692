package nn

import (
	"fmt"

	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

// Padding selects the spatial padding mode of convolution and pooling.
type Padding int

// Padding modes, matching TFLite semantics.
const (
	Valid Padding = iota
	Same
)

func (p Padding) String() string {
	if p == Same {
		return "same"
	}
	return "valid"
}

// convOutDim computes the output length of a strided convolution.
func convOutDim(in, kernel, stride int, pad Padding) int {
	if pad == Same {
		return (in + stride - 1) / stride
	}
	if in < kernel {
		return 0
	}
	return (in-kernel)/stride + 1
}

// padOffset returns the leading pad for Same padding.
func padOffset(in, kernel, stride int, pad Padding) int {
	if pad != Same {
		return 0
	}
	out := convOutDim(in, kernel, stride, pad)
	total := (out-1)*stride + kernel - in
	if total < 0 {
		total = 0
	}
	return total / 2
}

// Conv2D is a 2-D convolution over [H, W, Cin] producing [H', W', Filters].
// Weights are stored HWIO: [K, K, Cin, Filters].
type Conv2D struct {
	Filters int
	Kernel  int
	Stride  int
	Pad     Padding
	Act     Activation

	W, B *tensor.F32
}

// NewConv2D creates a 2-D convolution layer.
func NewConv2D(filters, kernel, stride int, pad Padding, act Activation) *Conv2D {
	if stride < 1 {
		stride = 1
	}
	return &Conv2D{Filters: filters, Kernel: kernel, Stride: stride, Pad: pad, Act: act}
}

// Build allocates parameters for a known input channel count.
func (c *Conv2D) Build(cin int) {
	if c.W != nil && c.W.Shape[2] == cin {
		return
	}
	c.W = tensor.NewF32(c.Kernel, c.Kernel, cin, c.Filters)
	c.B = tensor.NewF32(c.Filters)
}

// Kind implements Layer.
func (c *Conv2D) Kind() string { return "conv2d" }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("conv2d: want [H W C] input, got %v", in)
	}
	oh := convOutDim(in[0], c.Kernel, c.Stride, c.Pad)
	ow := convOutDim(in[1], c.Kernel, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv2d: kernel %d does not fit input %v", c.Kernel, in)
	}
	return tensor.Shape{oh, ow, c.Filters}, nil
}

// InferInto implements Layer: the shared register-tiled convolution
// forward (convForward).
func (c *Conv2D) InferInto(in tensor.Shape, src, dst []float32) {
	y, x := ConvAxes(in[0], in[1], c.Kernel, c.Stride, c.Pad)
	convForward{y: y, x: x, cin: in[2], in: src, out: dst, w: c.W.Data, b: c.B.Data, act: c.Act}.infer()
}

// convForward is the float32 convolution forward of Conv2D and Conv1D
// (a one-row Conv2D) over an HWC input and HWIO weights. Each run of
// output pixels that share a tap window (Axis.Run) is one
// simd.ConvTileF32 call: the valid kx taps of one kernel row times the
// input channels are contiguous in both the input and the weights, so a
// pixel's reduction is one segment per valid kernel row and, per output
// lane, runs in ky, kx, ci order — the classic filter-major loop's, bit
// for bit, whatever the tile width.
type convForward struct {
	y, x    Axis
	cin     int
	in, out []float32
	w, b    []float32
	act     Activation
}

// infer runs the whole layer, output row by output row.
func (c convForward) infer() {
	nf, k, cin := len(c.b), c.x.Kernel, c.cin
	for oy := 0; oy < c.y.Out; oy++ {
		kyLo, kyHi, iy := c.y.Taps(oy)
		for ox, n := 0, 0; ox < c.x.Out; ox += n {
			var kxLo, kxHi, ix int
			n, kxLo, kxHi, ix = c.x.Run(ox, c.x.Out)
			run := c.out[(oy*c.x.Out+ox)*nf:][:n*nf]
			simd.ConvTileF32(run, c.b, c.w[(kyLo*k+kxLo)*cin*nf:], c.in[(iy*c.x.In+ix)*cin:], simd.Tile{
				P: n, N: (kxHi - kxLo) * cin, Rows: kyHi - kyLo,
				PixStride: c.x.Stride * cin, InRowStride: c.x.In * cin, WRowStride: k * cin * nf,
			})
			c.act.applyTo(run)
		}
	}
}

// SetConvWorkers does nothing and returns 0. Convolutions run on the
// calling goroutine; the function remains only because the separate
// benchmark module still calls it.
func SetConvWorkers(n int) int { return 0 }

func (c *Conv2D) backward(in tensor.Shape, x, y, gy, gx []float32, grads []*tensor.F32) {
	h, w, cin := in[0], in[1], in[2]
	oh, ow := convOutDim(h, c.Kernel, c.Stride, c.Pad), convOutDim(w, c.Kernel, c.Stride, c.Pad)
	py := padOffset(h, c.Kernel, c.Stride, c.Pad)
	px := padOffset(w, c.Kernel, c.Stride, c.Pad)
	gw, gb := grads[0].Data, grads[1].Data
	clear(gx)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for f := 0; f < c.Filters; f++ {
				idx := (oy*ow+ox)*c.Filters + f
				g := gy[idx] * c.Act.grad(y[idx])
				if g == 0 {
					continue
				}
				gb[f] += g
				for ky := 0; ky < c.Kernel; ky++ {
					iy := oy*c.Stride + ky - py
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < c.Kernel; kx++ {
						ix := ox*c.Stride + kx - px
						if ix < 0 || ix >= w {
							continue
						}
						inBase := (iy*w + ix) * cin
						wBase := ((ky*c.Kernel + kx) * cin) * c.Filters
						for ci := 0; ci < cin; ci++ {
							gw[wBase+ci*c.Filters+f] += g * x[inBase+ci]
							gx[inBase+ci] += g * c.W.Data[wBase+ci*c.Filters+f]
						}
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.F32 {
	if c.W == nil {
		return nil
	}
	return []*tensor.F32{c.W, c.B}
}

// MACs implements Layer.
func (c *Conv2D) MACs(in tensor.Shape) int64 {
	if len(in) != 3 {
		return 0
	}
	oh := convOutDim(in[0], c.Kernel, c.Stride, c.Pad)
	ow := convOutDim(in[1], c.Kernel, c.Stride, c.Pad)
	return int64(oh) * int64(ow) * int64(c.Filters) * int64(c.Kernel) * int64(c.Kernel) * int64(in[2])
}

// DepthwiseConv2D convolves each input channel with its own kernel
// (depth multiplier 1), the core op of MobileNet and DS-CNN.
// Weights are [K, K, C].
type DepthwiseConv2D struct {
	Kernel int
	Stride int
	Pad    Padding
	Act    Activation

	W, B *tensor.F32
}

// NewDepthwiseConv2D creates a depthwise convolution layer.
func NewDepthwiseConv2D(kernel, stride int, pad Padding, act Activation) *DepthwiseConv2D {
	if stride < 1 {
		stride = 1
	}
	return &DepthwiseConv2D{Kernel: kernel, Stride: stride, Pad: pad, Act: act}
}

// Build allocates parameters for a known channel count.
func (c *DepthwiseConv2D) Build(ch int) {
	if c.W != nil && c.W.Shape[2] == ch {
		return
	}
	c.W = tensor.NewF32(c.Kernel, c.Kernel, ch)
	c.B = tensor.NewF32(ch)
}

// Kind implements Layer.
func (c *DepthwiseConv2D) Kind() string { return "depthwise_conv2d" }

// OutShape implements Layer.
func (c *DepthwiseConv2D) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("depthwise_conv2d: want [H W C] input, got %v", in)
	}
	oh := convOutDim(in[0], c.Kernel, c.Stride, c.Pad)
	ow := convOutDim(in[1], c.Kernel, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("depthwise_conv2d: kernel %d does not fit input %v", c.Kernel, in)
	}
	return tensor.Shape{oh, ow, in[2]}, nil
}

// InferInto implements Layer. Each run of output pixels that share a
// tap window is one simd.DepthwiseF32 call (input row, [K,K,C] weight
// row and output row are all contiguous over the kx taps); per channel
// the tap accumulation order is the channel-major loop's.
func (c *DepthwiseConv2D) InferInto(in tensor.Shape, src, dst []float32) {
	w, ch := in[1], in[2]
	y := NewAxis(in[0], c.Kernel, c.Stride, c.Pad)
	x := NewAxis(w, c.Kernel, c.Stride, c.Pad)
	for oy := 0; oy < y.Out; oy++ {
		kyLo, kyHi, iy := y.Taps(oy)
		row := dst[oy*x.Out*ch : (oy+1)*x.Out*ch]
		for ox, n := 0, 0; ox < x.Out; ox += n {
			var kxLo, kxHi, ix int
			n, kxLo, kxHi, ix = x.Run(ox, x.Out)
			simd.DepthwiseF32(row[ox*ch:], c.B.Data, c.W.Data[(kyLo*c.Kernel+kxLo)*ch:], src[(iy*w+ix)*ch:], simd.Tile{
				P: n, N: kxHi - kxLo, Rows: kyHi - kyLo,
				PixStride: c.Stride * ch, InRowStride: w * ch, WRowStride: c.Kernel * ch,
			})
		}
		c.Act.applyTo(row)
	}
}

func (c *DepthwiseConv2D) backward(in tensor.Shape, x, y, gy, gx []float32, grads []*tensor.F32) {
	h, w, ch := in[0], in[1], in[2]
	oh, ow := convOutDim(h, c.Kernel, c.Stride, c.Pad), convOutDim(w, c.Kernel, c.Stride, c.Pad)
	py := padOffset(h, c.Kernel, c.Stride, c.Pad)
	px := padOffset(w, c.Kernel, c.Stride, c.Pad)
	gw, gb := grads[0].Data, grads[1].Data
	clear(gx)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ci := 0; ci < ch; ci++ {
				idx := (oy*ow+ox)*ch + ci
				g := gy[idx] * c.Act.grad(y[idx])
				if g == 0 {
					continue
				}
				gb[ci] += g
				for ky := 0; ky < c.Kernel; ky++ {
					iy := oy*c.Stride + ky - py
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < c.Kernel; kx++ {
						ix := ox*c.Stride + kx - px
						if ix < 0 || ix >= w {
							continue
						}
						gw[(ky*c.Kernel+kx)*ch+ci] += g * x[(iy*w+ix)*ch+ci]
						gx[(iy*w+ix)*ch+ci] += g * c.W.Data[(ky*c.Kernel+kx)*ch+ci]
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (c *DepthwiseConv2D) Params() []*tensor.F32 {
	if c.W == nil {
		return nil
	}
	return []*tensor.F32{c.W, c.B}
}

// MACs implements Layer.
func (c *DepthwiseConv2D) MACs(in tensor.Shape) int64 {
	if len(in) != 3 {
		return 0
	}
	oh := convOutDim(in[0], c.Kernel, c.Stride, c.Pad)
	ow := convOutDim(in[1], c.Kernel, c.Stride, c.Pad)
	return int64(oh) * int64(ow) * int64(in[2]) * int64(c.Kernel) * int64(c.Kernel)
}

// Conv1D is a 1-D convolution over [T, Cin] producing [T', Filters],
// the workhorse of the paper's EON Tuner keyword-spotting table.
// Weights are [K, Cin, Filters].
type Conv1D struct {
	Filters int
	Kernel  int
	Stride  int
	Pad     Padding
	Act     Activation

	W, B *tensor.F32
}

// NewConv1D creates a 1-D convolution layer.
func NewConv1D(filters, kernel, stride int, pad Padding, act Activation) *Conv1D {
	if stride < 1 {
		stride = 1
	}
	return &Conv1D{Filters: filters, Kernel: kernel, Stride: stride, Pad: pad, Act: act}
}

// Build allocates parameters for a known input channel count.
func (c *Conv1D) Build(cin int) {
	if c.W != nil && c.W.Shape[1] == cin {
		return
	}
	c.W = tensor.NewF32(c.Kernel, cin, c.Filters)
	c.B = tensor.NewF32(c.Filters)
}

// Kind implements Layer.
func (c *Conv1D) Kind() string { return "conv1d" }

// OutShape implements Layer.
func (c *Conv1D) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("conv1d: want [T C] input, got %v", in)
	}
	ot := convOutDim(in[0], c.Kernel, c.Stride, c.Pad)
	if ot <= 0 {
		return nil, fmt.Errorf("conv1d: kernel %d does not fit input %v", c.Kernel, in)
	}
	return tensor.Shape{ot, c.Filters}, nil
}

// InferInto implements Layer: a Conv2D over one input row, on the same
// convForward.
func (c *Conv1D) InferInto(in tensor.Shape, src, dst []float32) {
	convForward{y: NewAxis(1, 1, 1, Valid), x: NewAxis(in[0], c.Kernel, c.Stride, c.Pad), cin: in[1],
		in: src, out: dst, w: c.W.Data, b: c.B.Data, act: c.Act}.infer()
}

func (c *Conv1D) backward(in tensor.Shape, x, y, gy, gx []float32, grads []*tensor.F32) {
	t, cin := in[0], in[1]
	ot := convOutDim(t, c.Kernel, c.Stride, c.Pad)
	p := padOffset(t, c.Kernel, c.Stride, c.Pad)
	gw, gb := grads[0].Data, grads[1].Data
	clear(gx)
	for o := 0; o < ot; o++ {
		for f := 0; f < c.Filters; f++ {
			idx := o*c.Filters + f
			g := gy[idx] * c.Act.grad(y[idx])
			if g == 0 {
				continue
			}
			gb[f] += g
			for k := 0; k < c.Kernel; k++ {
				i := o*c.Stride + k - p
				if i < 0 || i >= t {
					continue
				}
				inBase := i * cin
				wBase := k * cin * c.Filters
				for ci := 0; ci < cin; ci++ {
					gw[wBase+ci*c.Filters+f] += g * x[inBase+ci]
					gx[inBase+ci] += g * c.W.Data[wBase+ci*c.Filters+f]
				}
			}
		}
	}
}

// Params implements Layer.
func (c *Conv1D) Params() []*tensor.F32 {
	if c.W == nil {
		return nil
	}
	return []*tensor.F32{c.W, c.B}
}

// MACs implements Layer.
func (c *Conv1D) MACs(in tensor.Shape) int64 {
	if len(in) != 2 {
		return 0
	}
	ot := convOutDim(in[0], c.Kernel, c.Stride, c.Pad)
	return int64(ot) * int64(c.Filters) * int64(c.Kernel) * int64(in[1])
}

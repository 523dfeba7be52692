// Package kernelref holds the naive reference loops the optimised
// convolution kernels are tested against: one scalar accumulator per
// output element, bias first, then every tap that lands on the input in
// ky, kx, ci order, padding worked out per tap with a bounds test. They
// share no code with internal/nn, internal/quant or internal/simd — not
// even the padding arithmetic — and only tests import them.
package kernelref

// Window is a square sliding window over an H x W x C input.
type Window struct {
	H, W, C        int
	Kernel, Stride int
	Same           bool // TFLite SAME padding; otherwise VALID
}

// outDim is the TFLite output size of one axis (0 when a VALID window
// does not fit).
func (g Window) outDim(in int) int {
	if g.Same {
		return (in + g.Stride - 1) / g.Stride
	}
	if in < g.Kernel {
		return 0
	}
	return (in-g.Kernel)/g.Stride + 1
}

// Out returns the output height and width.
func (g Window) Out() (oh, ow int) { return g.outDim(g.H), g.outDim(g.W) }

// pad is the number of padded positions before the first input of an
// axis: half the total SAME padding, rounded down.
func (g Window) pad(in int) int {
	if !g.Same {
		return 0
	}
	total := (g.outDim(in)-1)*g.Stride + g.Kernel - in
	if total < 0 {
		return 0
	}
	return total / 2
}

// taps calls fn for every tap of output (oy, ox) that lands on the
// input, in ky, kx order.
func (g Window) taps(oy, ox int, fn func(ky, kx, iy, ix int)) {
	py, px := g.pad(g.H), g.pad(g.W)
	for ky := 0; ky < g.Kernel; ky++ {
		iy := oy*g.Stride + ky - py
		if iy < 0 || iy >= g.H {
			continue
		}
		for kx := 0; kx < g.Kernel; kx++ {
			ix := ox*g.Stride + kx - px
			if ix < 0 || ix >= g.W {
				continue
			}
			fn(ky, kx, iy, ix)
		}
	}
}

// Conv2DF32 convolves an HWC input with HWIO weights [K, K, C, nf] and
// returns the [oh, ow, nf] pre-activation output.
func Conv2DF32(g Window, in, w, bias []float32) []float32 {
	nf := len(bias)
	oh, ow := g.Out()
	out := make([]float32, oh*ow*nf)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for f := 0; f < nf; f++ {
				s := bias[f]
				g.taps(oy, ox, func(ky, kx, iy, ix int) {
					for ci := 0; ci < g.C; ci++ {
						s += in[(iy*g.W+ix)*g.C+ci] * w[((ky*g.Kernel+kx)*g.C+ci)*nf+f]
					}
				})
				out[(oy*ow+ox)*nf+f] = s
			}
		}
	}
	return out
}

// DepthwiseF32 convolves every channel of an HWC input with its own
// [K, K, C] kernel (depth multiplier 1).
func DepthwiseF32(g Window, in, w, bias []float32) []float32 {
	oh, ow := g.Out()
	out := make([]float32, oh*ow*g.C)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < g.C; c++ {
				s := bias[c]
				g.taps(oy, ox, func(ky, kx, iy, ix int) {
					s += in[(iy*g.W+ix)*g.C+c] * w[(ky*g.Kernel+kx)*g.C+c]
				})
				out[(oy*ow+ox)*g.C+c] = s
			}
		}
	}
	return out
}

// DenseF32 is the output-major matrix-vector product with W [in][out].
func DenseF32(in, w, bias []float32) []float32 {
	out := make([]float32, len(bias))
	for j := range out {
		s := bias[j]
		for i, v := range in {
			s += v * w[i*len(bias)+j]
		}
		out[j] = s
	}
	return out
}

// Conv2DI8 is Conv2DF32 in the quantized domain: an int32 accumulator
// per output over (in - zp) * w on top of the int32 bias, then requant.
func Conv2DI8(g Window, in, w []int8, bias []int32, zp int32, requant func(int32) int8) []int8 {
	nf := len(bias)
	oh, ow := g.Out()
	out := make([]int8, oh*ow*nf)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for f := 0; f < nf; f++ {
				a := bias[f]
				g.taps(oy, ox, func(ky, kx, iy, ix int) {
					for ci := 0; ci < g.C; ci++ {
						a += (int32(in[(iy*g.W+ix)*g.C+ci]) - zp) * int32(w[((ky*g.Kernel+kx)*g.C+ci)*nf+f])
					}
				})
				out[(oy*ow+ox)*nf+f] = requant(a)
			}
		}
	}
	return out
}

// DepthwiseI8 is DepthwiseF32 in the quantized domain.
func DepthwiseI8(g Window, in, w []int8, bias []int32, zp int32, requant func(int32) int8) []int8 {
	oh, ow := g.Out()
	out := make([]int8, oh*ow*g.C)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < g.C; c++ {
				a := bias[c]
				g.taps(oy, ox, func(ky, kx, iy, ix int) {
					a += (int32(in[(iy*g.W+ix)*g.C+c]) - zp) * int32(w[(ky*g.Kernel+kx)*g.C+c])
				})
				out[(oy*ow+ox)*g.C+c] = requant(a)
			}
		}
	}
	return out
}

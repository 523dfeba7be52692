// Package kernelref holds the naive reference loops the optimised
// kernels are tested against. For convolution, dense and pooling: one
// scalar accumulator per output element, bias first, then every tap that
// lands on the input in ky, kx, ci order, padding worked out per tap with
// a bounds test. For the DSP front ends: a float64 DFT by its definition
// and the image resize computed pixel by pixel. They share no code with
// internal/nn, internal/quant, internal/dsp, internal/fft or
// internal/simd — not even the padding arithmetic — and only tests
// import them.
package kernelref

import "math"

// Window is a square sliding window over an H x W x C input.
type Window struct {
	H, W, C        int
	Kernel, Stride int
	Same           bool // TFLite SAME padding; otherwise VALID
}

// outDim is the TFLite output size of one axis (0 when a VALID window
// does not fit).
func outDim(in, kernel, stride int, same bool) int {
	if same {
		return (in + stride - 1) / stride
	}
	if in < kernel {
		return 0
	}
	return (in-kernel)/stride + 1
}

// padBefore is the number of padded positions before the first input of
// an axis: half the total SAME padding, rounded down.
func padBefore(in, kernel, stride int, same bool) int {
	if !same {
		return 0
	}
	total := (outDim(in, kernel, stride, same)-1)*stride + kernel - in
	if total < 0 {
		return 0
	}
	return total / 2
}

// Out returns the output height and width.
func (g Window) Out() (oh, ow int) {
	return outDim(g.H, g.Kernel, g.Stride, g.Same), outDim(g.W, g.Kernel, g.Stride, g.Same)
}

// taps calls fn for every tap of output (oy, ox) that lands on the
// input, in ky, kx order.
func (g Window) taps(oy, ox int, fn func(ky, kx, iy, ix int)) {
	py, px := padBefore(g.H, g.Kernel, g.Stride, g.Same), padBefore(g.W, g.Kernel, g.Stride, g.Same)
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

// DenseI8 is DenseF32 in the quantized domain: per output an int32
// accumulator over (in - zp) * w on top of the int32 bias, then requant.
func DenseI8(in, w []int8, bias []int32, zp int32, requant func(int32) int8) []int8 {
	out := make([]int8, len(bias))
	for j := range out {
		a := bias[j]
		for i, v := range in {
			a += (int32(v) - zp) * int32(w[i*len(bias)+j])
		}
		out[j] = requant(a)
	}
	return out
}

// Window1D is a sliding window along the T axis of a T x C input.
type Window1D struct {
	T, C           int
	Kernel, Stride int
	Same           bool
}

// Out returns the output length.
func (g Window1D) Out() int { return outDim(g.T, g.Kernel, g.Stride, g.Same) }

// Conv1DI8 convolves a [T, C] input with [K, C, nf] weights along T in
// the quantized domain.
func Conv1DI8(g Window1D, in, w []int8, bias []int32, zp int32, requant func(int32) int8) []int8 {
	nf, ot, p := len(bias), g.Out(), padBefore(g.T, g.Kernel, g.Stride, g.Same)
	out := make([]int8, ot*nf)
	for o := 0; o < ot; o++ {
		for f := 0; f < nf; f++ {
			a := bias[f]
			for k := 0; k < g.Kernel; k++ {
				if i := o*g.Stride + k - p; i >= 0 && i < g.T {
					for ci := 0; ci < g.C; ci++ {
						a += (int32(in[i*g.C+ci]) - zp) * int32(w[(k*g.C+ci)*nf+f])
					}
				}
			}
			out[o*nf+f] = requant(a)
		}
	}
	return out
}

// Pool is a VALID pooling window of KH x KW taps moved by Stride along
// both axes of an H x W x C input. A 1-D pool over [T, C] is the
// H = T, W = 1, KW = 1 case.
type Pool struct {
	H, W, C, KH, KW, Stride int
}

// Out returns the output height and width.
func (g Pool) Out() (oh, ow int) {
	return outDim(g.H, g.KH, g.Stride, false), outDim(g.W, g.KW, g.Stride, false)
}

// reduce calls fn(o, i) for every output element o and, in ky, kx
// order, every input element i of its window.
func (g Pool) reduce(fn func(o, i int)) {
	oh, ow := g.Out()
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < g.C; c++ {
				for ky := 0; ky < g.KH; ky++ {
					for kx := 0; kx < g.KW; kx++ {
						fn((oy*ow+ox)*g.C+c, ((oy*g.Stride+ky)*g.W+ox*g.Stride+kx)*g.C+c)
					}
				}
			}
		}
	}
}

func (g Pool) size() int { oh, ow := g.Out(); return oh * ow * g.C }

// MaxPoolF32 takes each window's maximum, starting from -Inf and
// replacing it only with a strictly greater value (so a NaN never wins
// and of two equal zeros the first stays).
func MaxPoolF32(g Pool, in []float32) []float32 {
	out := make([]float32, g.size())
	for i := range out {
		out[i] = float32(math.Inf(-1))
	}
	g.reduce(func(o, i int) {
		if in[i] > out[o] {
			out[o] = in[i]
		}
	})
	return out
}

// AvgPoolF32 sums each window in float32 from zero and multiplies the
// sum by the float32 reciprocal of the window size.
func AvgPoolF32(g Pool, in []float32) []float32 {
	out := make([]float32, g.size())
	g.reduce(func(o, i int) { out[o] += in[i] })
	for o := range out {
		out[o] *= 1 / float32(g.KH*g.KW)
	}
	return out
}

// GlobalAvgPoolF32 is AvgPoolF32 over the whole H x W plane.
func GlobalAvgPoolF32(h, w, c int, in []float32) []float32 {
	return AvgPoolF32(Pool{H: h, W: w, C: c, KH: h, KW: w, Stride: 1}, in)
}

// MaxPoolI8 takes each window's maximum.
func MaxPoolI8(g Pool, in []int8) []int8 {
	out := make([]int8, g.size())
	for i := range out {
		out[i] = math.MinInt8
	}
	g.reduce(func(o, i int) { out[o] = max(out[o], in[i]) })
	return out
}

// AvgPoolI8 is each window's mean of the raw int8 values, rounded to
// the nearest integer with halves away from zero.
func AvgPoolI8(g Pool, in []int8) []int8 {
	sums := make([]int, g.size())
	g.reduce(func(o, i int) { sums[o] += int(in[i]) })
	out := make([]int8, len(sums))
	for o, s := range sums {
		out[o] = int8(math.Round(float64(s) / float64(g.KH*g.KW)))
	}
	return out
}

// GlobalAvgPoolI8 is AvgPoolI8 over the whole H x W plane.
func GlobalAvgPoolI8(h, w, c int, in []int8) []int8 {
	return AvgPoolI8(Pool{H: h, W: w, C: c, KH: h, KW: w, Stride: 1}, in)
}

// DFTPower returns |X_k|²/n for the n/2+1 bins k of the n-point discrete
// Fourier transform of frame zero-padded to n: X_k = Σ_t x_t·e^(-2πikt/n),
// summed in float64 with the angle reduced to kt mod n.
func DFTPower(frame []float32, n int) []float64 {
	out := make([]float64, n/2+1)
	for k := range out {
		var re, im float64
		for t, v := range frame {
			s, c := math.Sincos(2 * math.Pi * float64(k*t%n) / float64(n))
			re += float64(v) * c
			im -= float64(v) * s
		}
		out[k] = (re*re + im*im) / float64(n)
	}
	return out
}

// ResizeBilinear resizes a row-major H x W x axes image (axes 1 or 3,
// values in [0, 255]) to outH x outW pixel by pixel, as the image block
// defines it: each channel is sampled at the pixel centre mapped back to
// the source, ((o+½)·in/out) - ½ per axis, from the four taps around it,
// the lower tap the floor of the centre, taps clamped to the image, in
// float32: top = a·(1-fx) + b·fx on the upper and the lower tap row, then
// top·(1-fy) + bot·fy. A 1-channel image is replicated into three
// channels; gray folds them to 0.299·r + 0.587·g + 0.114·b. Every output
// is divided by 255.
func ResizeBilinear(src []float32, w, h, axes, outW, outH int, gray bool) []float32 {
	outC := 3
	if gray {
		outC = 1
	}
	out := make([]float32, outW*outH*outC)
	sx := float64(w) / float64(outW)
	sy := float64(h) / float64(outH)
	for y := 0; y < outH; y++ {
		srcY := (float64(y) + 0.5) * sy
		for x := 0; x < outW; x++ {
			srcX := (float64(x) + 0.5) * sx
			var px [3]float32
			for c := 0; c < axes; c++ {
				px[c] = bilinear(src, w, h, axes, srcX, srcY, c)
			}
			if axes == 1 {
				px[1], px[2] = px[0], px[0]
			}
			base := (y*outW + x) * outC
			if gray {
				out[base] = (0.299*px[0] + 0.587*px[1] + 0.114*px[2]) / 255
			} else {
				for c := 0; c < 3; c++ {
					out[base+c] = px[c] / 255
				}
			}
		}
	}
	return out
}

// bilinear samples channel c at continuous pixel coordinates (x, y).
func bilinear(src []float32, w, h, axes int, x, y float64, c int) float32 {
	x -= 0.5
	y -= 0.5
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	get := func(xi, yi int) float32 {
		xi = min(max(xi, 0), w-1)
		yi = min(max(yi, 0), h-1)
		return src[(yi*w+xi)*axes+c]
	}
	top := get(x0, y0)*(1-fx) + get(x0+1, y0)*fx
	bot := get(x0, y0+1)*(1-fx) + get(x0+1, y0+1)*fx
	return top*(1-fy) + bot*fy
}

package nn

import (
	"fmt"
	"math"

	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

// MaxPool2D reduces [H, W, C] spatially by taking window maxima.
type MaxPool2D struct {
	Size   int
	Stride int
}

// NewMaxPool2D creates a max pooling layer; stride defaults to size.
func NewMaxPool2D(size, stride int) *MaxPool2D {
	if stride <= 0 {
		stride = size
	}
	return &MaxPool2D{Size: size, Stride: stride}
}

// Kind implements Layer.
func (p *MaxPool2D) Kind() string { return "maxpool2d" }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("maxpool2d: want [H W C] input, got %v", in)
	}
	oh := convOutDim(in[0], p.Size, p.Stride, Valid)
	ow := convOutDim(in[1], p.Size, p.Stride, Valid)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("maxpool2d: window %d does not fit %v", p.Size, in)
	}
	return tensor.Shape{oh, ow, in[2]}, nil
}

// InferInto implements Layer. Taps are the outer
// loops so each one is a contiguous channel row for simd.MaxF32; per
// channel the comparisons are the channel-major loop's, in its order.
func (p *MaxPool2D) InferInto(in tensor.Shape, src, dst []float32) {
	w, ch := in[1], in[2]
	oh, ow := convOutDim(in[0], p.Size, p.Stride, Valid), convOutDim(w, p.Size, p.Stride, Valid)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			best := dst[(oy*ow+ox)*ch:][:ch]
			for c := range best {
				best[c] = float32(math.Inf(-1))
			}
			for ky := 0; ky < p.Size; ky++ {
				for kx := 0; kx < p.Size; kx++ {
					simd.MaxF32(best, src[((oy*p.Stride+ky)*w+ox*p.Stride+kx)*ch:][:ch])
				}
			}
		}
	}
}

// backward sends each window's gradient to its maximum, recomputed from
// x in the scalar forward's tap order: the first tap that exceeds every
// earlier one and -Inf, or the window's first tap if none does.
func (p *MaxPool2D) backward(in tensor.Shape, x, _, gy, gx []float32, _ []*tensor.F32) {
	w, ch := in[1], in[2]
	oh, ow := convOutDim(in[0], p.Size, p.Stride, Valid), convOutDim(w, p.Size, p.Stride, Valid)
	clear(gx)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < ch; c++ {
				best := float32(math.Inf(-1))
				bestIdx := (oy*p.Stride*w+ox*p.Stride)*ch + c
				for ky := 0; ky < p.Size; ky++ {
					for kx := 0; kx < p.Size; kx++ {
						idx := ((oy*p.Stride+ky)*w+ox*p.Stride+kx)*ch + c
						if x[idx] > best {
							best = x[idx]
							bestIdx = idx
						}
					}
				}
				gx[bestIdx] += gy[(oy*ow+ox)*ch+c]
			}
		}
	}
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*tensor.F32 { return nil }

// MACs implements Layer. Pooling does comparisons, not MACs; counted as 0.
func (p *MaxPool2D) MACs(in tensor.Shape) int64 { return 0 }

// AvgPool2D reduces [H, W, C] spatially by window means.
type AvgPool2D struct {
	Size   int
	Stride int
}

// NewAvgPool2D creates an average pooling layer; stride defaults to size.
func NewAvgPool2D(size, stride int) *AvgPool2D {
	if stride <= 0 {
		stride = size
	}
	return &AvgPool2D{Size: size, Stride: stride}
}

// Kind implements Layer.
func (p *AvgPool2D) Kind() string { return "avgpool2d" }

// OutShape implements Layer.
func (p *AvgPool2D) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("avgpool2d: want [H W C] input, got %v", in)
	}
	oh := convOutDim(in[0], p.Size, p.Stride, Valid)
	ow := convOutDim(in[1], p.Size, p.Stride, Valid)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("avgpool2d: window %d does not fit %v", p.Size, in)
	}
	return tensor.Shape{oh, ow, in[2]}, nil
}

// InferInto implements Layer.
func (p *AvgPool2D) InferInto(in tensor.Shape, src, dst []float32) {
	w, ch := in[1], in[2]
	oh, ow := convOutDim(in[0], p.Size, p.Stride, Valid), convOutDim(w, p.Size, p.Stride, Valid)
	inv := 1 / float32(p.Size*p.Size)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < ch; c++ {
				var s float32
				for ky := 0; ky < p.Size; ky++ {
					for kx := 0; kx < p.Size; kx++ {
						iy := oy*p.Stride + ky
						ix := ox*p.Stride + kx
						s += src[(iy*w+ix)*ch+c]
					}
				}
				dst[(oy*ow+ox)*ch+c] = s * inv
			}
		}
	}
}

func (p *AvgPool2D) backward(in tensor.Shape, _, _, gy, gx []float32, _ []*tensor.F32) {
	w, ch := in[1], in[2]
	oh, ow := convOutDim(in[0], p.Size, p.Stride, Valid), convOutDim(w, p.Size, p.Stride, Valid)
	clear(gx)
	inv := 1 / float32(p.Size*p.Size)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < ch; c++ {
				g := gy[(oy*ow+ox)*ch+c] * inv
				for ky := 0; ky < p.Size; ky++ {
					for kx := 0; kx < p.Size; kx++ {
						iy := oy*p.Stride + ky
						ix := ox*p.Stride + kx
						gx[(iy*w+ix)*ch+c] += g
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (p *AvgPool2D) Params() []*tensor.F32 { return nil }

// MACs implements Layer.
func (p *AvgPool2D) MACs(in tensor.Shape) int64 { return 0 }

// MaxPool1D reduces [T, C] along time.
type MaxPool1D struct {
	Size   int
	Stride int
}

// NewMaxPool1D creates a 1-D max pooling layer; stride defaults to size.
func NewMaxPool1D(size, stride int) *MaxPool1D {
	if stride <= 0 {
		stride = size
	}
	return &MaxPool1D{Size: size, Stride: stride}
}

// Kind implements Layer.
func (p *MaxPool1D) Kind() string { return "maxpool1d" }

// OutShape implements Layer.
func (p *MaxPool1D) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("maxpool1d: want [T C] input, got %v", in)
	}
	ot := convOutDim(in[0], p.Size, p.Stride, Valid)
	if ot <= 0 {
		return nil, fmt.Errorf("maxpool1d: window %d does not fit %v", p.Size, in)
	}
	return tensor.Shape{ot, in[1]}, nil
}

// InferInto implements Layer.
func (p *MaxPool1D) InferInto(in tensor.Shape, src, dst []float32) {
	ch := in[1]
	ot := convOutDim(in[0], p.Size, p.Stride, Valid)
	for o := 0; o < ot; o++ {
		for c := 0; c < ch; c++ {
			best := float32(math.Inf(-1))
			for k := 0; k < p.Size; k++ {
				v := src[(o*p.Stride+k)*ch+c]
				if v > best {
					best = v
				}
			}
			dst[o*ch+c] = best
		}
	}
}

// backward is MaxPool2D's over one row: the first tap that exceeds
// every earlier one and -Inf, or the window's first tap if none does.
func (p *MaxPool1D) backward(in tensor.Shape, x, _, gy, gx []float32, _ []*tensor.F32) {
	ch := in[1]
	ot := convOutDim(in[0], p.Size, p.Stride, Valid)
	clear(gx)
	for o := 0; o < ot; o++ {
		for c := 0; c < ch; c++ {
			best := float32(math.Inf(-1))
			bestIdx := o*p.Stride*ch + c
			for k := 0; k < p.Size; k++ {
				idx := (o*p.Stride+k)*ch + c
				if x[idx] > best {
					best = x[idx]
					bestIdx = idx
				}
			}
			gx[bestIdx] += gy[o*ch+c]
		}
	}
}

// Params implements Layer.
func (p *MaxPool1D) Params() []*tensor.F32 { return nil }

// MACs implements Layer.
func (p *MaxPool1D) MACs(in tensor.Shape) int64 { return 0 }

// GlobalAvgPool2D averages each channel over all spatial positions,
// producing a [C] vector (MobileNet's head).
type GlobalAvgPool2D struct{}

// NewGlobalAvgPool2D creates a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Kind implements Layer.
func (p *GlobalAvgPool2D) Kind() string { return "gap2d" }

// OutShape implements Layer.
func (p *GlobalAvgPool2D) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("gap2d: want [H W C] input, got %v", in)
	}
	return tensor.Shape{in[2]}, nil
}

// InferInto implements Layer.
func (p *GlobalAvgPool2D) InferInto(in tensor.Shape, src, dst []float32) {
	h, w, ch := in[0], in[1], in[2]
	clear(dst)
	for i := 0; i < h*w; i++ {
		for c, v := range src[i*ch : (i+1)*ch] {
			dst[c] += v
		}
	}
	inv := 1 / float32(h*w)
	for c := range dst {
		dst[c] *= inv
	}
}

func (p *GlobalAvgPool2D) backward(in tensor.Shape, _, _, gy, gx []float32, _ []*tensor.F32) {
	h, w, ch := in[0], in[1], in[2]
	inv := 1 / float32(h*w)
	for i := 0; i < h*w; i++ {
		for c := 0; c < ch; c++ {
			gx[i*ch+c] = gy[c] * inv
		}
	}
}

// Params implements Layer.
func (p *GlobalAvgPool2D) Params() []*tensor.F32 { return nil }

// MACs implements Layer.
func (p *GlobalAvgPool2D) MACs(in tensor.Shape) int64 { return 0 }

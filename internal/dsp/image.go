package dsp

import (
	"fmt"
	"math"

	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

func init() {
	Register("image", func(p map[string]float64) (Block, error) { return NewImage(p) })
}

// Image prepares camera data for vision models: bilinear resize to the
// target resolution, optional grayscale conversion, and scaling of pixel
// values into [0, 1]. Used by the paper's VWW (96×96) and image
// classification (32×32) workloads.
type Image struct {
	Width     int
	Height    int
	Grayscale bool
}

// NewImage builds an image block from a parameter map
// (width, height, grayscale ∈ {0,1}).
func NewImage(p map[string]float64) (*Image, error) {
	im := &Image{
		Width:     int(getParam(p, "width", 96)),
		Height:    int(getParam(p, "height", 96)),
		Grayscale: getParam(p, "grayscale", 0) != 0,
	}
	if im.Width <= 0 || im.Height <= 0 {
		return nil, fmt.Errorf("image: width/height must be positive")
	}
	return im, nil
}

// Name implements Block.
func (im *Image) Name() string { return "image" }

// Params implements Block.
func (im *Image) Params() map[string]float64 {
	g := 0.0
	if im.Grayscale {
		g = 1
	}
	return map[string]float64{
		"width":     float64(im.Width),
		"height":    float64(im.Height),
		"grayscale": g,
	}
}

// Channels returns the output channel count.
func (im *Image) Channels() int {
	if im.Grayscale {
		return 1
	}
	return 3
}

// OutputShape implements Block.
func (im *Image) OutputShape(sig Signal) (tensor.Shape, error) {
	if sig.Width <= 0 || sig.Height <= 0 {
		return nil, fmt.Errorf("image: signal has no dimensions")
	}
	if sig.Axes != 1 && sig.Axes != 3 {
		return nil, fmt.Errorf("image: unsupported channel count %d", sig.Axes)
	}
	if len(sig.Data) != sig.Width*sig.Height*sig.Axes {
		return nil, fmt.Errorf("image: data length %d != %dx%dx%d", len(sig.Data), sig.Height, sig.Width, sig.Axes)
	}
	return tensor.Shape{im.Height, im.Width, im.Channels()}, nil
}

// Extract implements Block. Each output value is the bilinear blend of
// its four clamped source taps, (a·(1-fx) + b·fx) along the row for the
// top and the bottom tap row, then top·(1-fy) + bot·fy, in float32 and in
// that order; a 1-channel source is replicated to three channels before
// the optional grayscale weighting, and the result is divided by 255.
//
// The taps are tabulated once per call — per output column the source
// offsets and fx, per output row the source rows and fy — and each
// source row a tap needs is resampled along x once into a row buffer
// that adjacent output rows share, so the blend per value is two
// multiplies and an add per axis.
func (im *Image) Extract(sig Signal) (*tensor.F32, error) {
	shape, err := im.OutputShape(sig)
	if err != nil {
		return nil, err
	}
	out := tensor.NewF32(shape...)
	w, h, axes := im.Width, im.Height, sig.Axes
	rowLen, srcRowLen := w*axes, sig.Width*axes
	idx := make([]int, 2*(w+h))
	x0, x1, y0, y1 := idx[:w], idx[w:2*w], idx[2*w:2*w+h], idx[2*w+h:]
	wts := make([]float32, w+h+2*rowLen)
	fx, fy := wts[:w], wts[w:w+h]
	bufs := [2][]float32{wts[w+h : w+h+rowLen], wts[w+h+rowLen:]}
	bilinearTaps(x0, x1, fx, sig.Width)
	bilinearTaps(y0, y1, fy, sig.Height)
	for x := range x0 {
		x0[x] *= axes
		x1[x] *= axes
	}
	// rows[i] is the source row resampled into bufs[i]; the top tap row
	// lives in bufs[0], the bottom one in bufs[1].
	rows := [2]int{-1, -1}
	load := func(i, y int) {
		resampleRow(bufs[i], sig.Data[y*srcRowLen:(y+1)*srcRowLen], x0, x1, fx, axes)
		rows[i] = y
	}
	outC := im.Channels()
	for y, f := range fy {
		if rows[0] != y0[y] {
			if rows[1] == y0[y] {
				bufs[0], bufs[1] = bufs[1], bufs[0]
				rows[0], rows[1] = rows[1], rows[0]
			} else {
				load(0, y0[y])
			}
		}
		top, bot := bufs[0], bufs[0]
		if y1[y] != y0[y] {
			if rows[1] != y1[y] {
				load(1, y1[y])
			}
			bot = bufs[1]
		}
		g := 1 - f
		dst := out.Data[y*w*outC : (y+1)*w*outC]
		switch {
		case axes == 3 && !im.Grayscale:
			simd.BlendDivF32(dst, top, bot, g, f, 255)
		case axes == 3:
			for x := range dst {
				t, b := top[3*x:3*x+3], bot[3*x:3*x+3]
				r, gr, bl := t[0]*g+b[0]*f, t[1]*g+b[1]*f, t[2]*g+b[2]*f
				dst[x] = (0.299*r + 0.587*gr + 0.114*bl) / 255
			}
		case !im.Grayscale:
			for x, t := range top[:rowLen] {
				v := (t*g + bot[x]*f) / 255
				dst[3*x], dst[3*x+1], dst[3*x+2] = v, v, v
			}
		default:
			for x, t := range top[:rowLen] {
				v := t*g + bot[x]*f
				dst[x] = (0.299*v + 0.587*v + 0.114*v) / 255
			}
		}
	}
	return out, nil
}

// resampleRow blends one source row along x into dst: for each output
// column x and axis c, src[x0[x]+c]·(1-fx[x]) + src[x1[x]+c]·fx[x], with
// x0 and x1 already scaled by the axis count (1 or 3).
func resampleRow(dst, src []float32, x0, x1 []int, fx []float32, axes int) {
	if axes == 1 {
		for x, f := range fx {
			dst[x] = src[x0[x]]*(1-f) + src[x1[x]]*f
		}
		return
	}
	for x, f := range fx {
		a, c, o := src[x0[x]:x0[x]+3], src[x1[x]:x1[x]+3], dst[3*x:3*x+3]
		g := 1 - f
		o[0] = a[0]*g + c[0]*f
		o[1] = a[1]*g + c[1]*f
		o[2] = a[2]*g + c[2]*f
	}
}

// bilinearTaps fills, for each output position o of an axis resampled
// from n source positions to len(f), the clamped source indices i0[o] and
// i1[o] of the taps below and above the pixel centre (o+½)·n/len(f) - ½
// and the weight f[o] of the upper tap. The lower tap is the floor of the
// centre, so an upscale's first positions, whose centres are negative,
// clamp both taps to the first source pixel instead of extrapolating.
func bilinearTaps(i0, i1 []int, f []float32, n int) {
	s := float64(n) / float64(len(f))
	for o := range f {
		c := (float64(o)+0.5)*s - 0.5
		lo := math.Floor(c)
		f[o] = float32(c - lo)
		i0[o] = min(max(int(lo), 0), n-1)
		i1[o] = min(max(int(lo)+1, 0), n-1)
	}
}

// Cost implements Block: 4-tap bilinear per output pixel per channel plus
// the normalization multiply.
func (im *Image) Cost(sig Signal) Cost {
	perPixel := int64(8*sig.Axes + im.Channels())
	return Cost{FloatOps: int64(im.Width*im.Height) * perPixel}
}

// RAM implements Block: output buffer only (source is streamed).
func (im *Image) RAM(sig Signal) int64 {
	return int64(im.Width*im.Height*im.Channels()) * 4
}

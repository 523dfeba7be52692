package fft

import (
	"fmt"
	"math"

	"edgepulse/internal/simd"
)

// RealPlan is a precomputed transform plan for real-input FFTs of a fixed
// power-of-two size. It packs the n real samples into an n/2-point complex
// FFT over split float32 re/im arrays and unpacks the first n/2+1 bins,
// so one transform costs roughly half the butterflies of the generic
// complex path and performs no allocation.
//
// The plan itself is immutable after construction and safe for concurrent
// use; the mutable per-transform state lives in a RealScratch, which each
// goroutine must own exclusively.
type RealPlan struct {
	n int // real input length
	h int // n/2: complex FFT size

	rev []int32 // bit-reversal permutation for the size-h FFT
	// Stage-major complex-FFT twiddles for stages of length 4..h (the
	// length-2 stage is multiplication-free and done by the load):
	// stage with butterfly span L contributes L/2 sequential entries
	// wr = cos(2πj/L), wi = -sin(2πj/L).
	swr, swi []float32
	// Real-unpack twiddles: cr[k] = cos(2πk/n), ci[k] = -sin(2πk/n).
	cr, ci []float32
}

// RealScratch is the reusable working state for one RealPlan transform.
type RealScratch struct {
	re, im []float32
}

// NewRealPlan builds a plan for real frames of length n (a power of two,
// at least 2).
func NewRealPlan(n int) (*RealPlan, error) {
	if !IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("fft: plan size %d is not a power of two >= 2", n)
	}
	h := n / 2
	p := &RealPlan{n: n, h: h}
	p.rev = make([]int32, h)
	for i, j := 1, 0; i < h; i++ {
		bit := h >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		p.rev[i] = int32(j)
	}
	for length := 4; length <= h; length <<= 1 {
		half := length / 2
		for j := 0; j < half; j++ {
			ang := 2 * math.Pi * float64(j) / float64(length)
			p.swr = append(p.swr, float32(math.Cos(ang)))
			p.swi = append(p.swi, float32(-math.Sin(ang)))
		}
	}
	p.cr = make([]float32, h)
	p.ci = make([]float32, h)
	for k := range p.cr {
		ang := 2 * math.Pi * float64(k) / float64(n)
		p.cr[k] = float32(math.Cos(ang))
		p.ci[k] = float32(-math.Sin(ang))
	}
	return p, nil
}

// Size returns the real input length n the plan transforms.
func (p *RealPlan) Size() int { return p.n }

// Bins returns the number of output bins, n/2+1.
func (p *RealPlan) Bins() int { return p.n/2 + 1 }

// Scratch allocates working state for this plan. Each concurrent caller
// needs its own scratch.
func (p *RealPlan) Scratch() *RealScratch {
	return &RealScratch{re: make([]float32, p.h), im: make([]float32, p.h)}
}

// load packs the frame times the window (win nil means no window; both
// zero-padded to n) as x[2t] + i·x[2t+1] into s.re/s.im in bit-reversed
// order and runs the length-2 stage: for even j the bit-reversal partner
// of j+1 is rev[j]+h/2, so the two points that stage combines are packed
// from samples 2·rev[j] and 2·rev[j]+h and are added and subtracted as
// they are read.
func (p *RealPlan) load(frame, win []float32, s *RealScratch) {
	h := p.h
	re, im := s.re[:h], s.im[:h]
	if h == 1 {
		re[0], im[0] = sample(frame, win, 0), sample(frame, win, 1)
		return
	}
	switch {
	case len(frame) == p.n && win == nil:
		for j := 0; j < h; j += 2 {
			i := 2 * int(p.rev[j])
			a, b := frame[i], frame[i+1]
			c, d := frame[i+h], frame[i+h+1]
			re[j], im[j] = a+c, b+d
			re[j+1], im[j+1] = a-c, b-d
		}
	case len(frame) == p.n:
		win = win[:p.n]
		for j := 0; j < h; j += 2 {
			i := 2 * int(p.rev[j])
			a, b := frame[i]*win[i], frame[i+1]*win[i+1]
			c, d := frame[i+h]*win[i+h], frame[i+h+1]*win[i+h+1]
			re[j], im[j] = a+c, b+d
			re[j+1], im[j+1] = a-c, b-d
		}
	default:
		for j := 0; j < h; j += 2 {
			i := 2 * int(p.rev[j])
			a, b := sample(frame, win, i), sample(frame, win, i+1)
			c, d := sample(frame, win, i+h), sample(frame, win, i+h+1)
			re[j], im[j] = a+c, b+d
			re[j+1], im[j+1] = a-c, b-d
		}
	}
}

// stages runs the butterfly stages after the length-2 one, leaving the
// size-h transform in s.re/s.im.
func (p *RealPlan) stages(s *RealScratch) {
	off := 0
	for half := 2; half < p.h; half <<= 1 {
		simd.ButterflyStageF32(s.re, s.im, p.swr[off:off+half], p.swi[off:off+half])
		off += half
	}
}

// sample is frame[k]·win[k], or frame[k] without a window, and zero past
// the end of the frame.
func sample(frame, win []float32, k int) float32 {
	if k >= len(frame) {
		return 0
	}
	if win == nil {
		return frame[k]
	}
	return frame[k] * win[k]
}

// PowerSpectrumInto writes |X_k|²/n for the n/2+1 real-spectrum bins of
// frame into dst. The frame is zero-padded to the plan size; dst must
// have at least Bins() elements.
//
// The unpack follows the standard even/odd split of the packed
// transform Z: Xe[k] = (Z[k]+conj(Z[h-k]))/2, Xo[k] = -i(Z[k]-conj(Z[h-k]))/2
// and X[k] = Xe[k] + W_n^k·Xo[k].
func (p *RealPlan) PowerSpectrumInto(dst, frame []float32, s *RealScratch) error {
	if len(frame) > p.n {
		return fmt.Errorf("fft: frame length %d exceeds plan size %d", len(frame), p.n)
	}
	if len(dst) < p.Bins() {
		return fmt.Errorf("fft: dst length %d < %d bins", len(dst), p.Bins())
	}
	p.WindowedPowerSpectrumInto(dst, frame, nil, s)
	return nil
}

// WindowedPowerSpectrumInto is PowerSpectrumInto of frame multiplied
// sample by sample by win (nil: no window), each product rounded to
// float32 as in a separately windowed copy of the frame. Callers size the
// frame, the window and dst from the plan, so a frame longer than
// Size(), a window shorter than the frame or a dst shorter than Bins() is
// a bug and panics.
func (p *RealPlan) WindowedPowerSpectrumInto(dst, frame, win []float32, s *RealScratch) {
	if len(frame) > p.n || (win != nil && len(win) < len(frame)) || len(dst) < p.Bins() {
		panic("fft: WindowedPowerSpectrumInto geometry")
	}
	p.load(frame, win, s)
	p.stages(s)
	simd.RealPowerF32(dst, s.re, s.im, p.cr, p.ci, 1/float32(p.n))
}

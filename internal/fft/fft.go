// Package fft implements the radix-2 fast Fourier transform and the window
// functions used by the DSP blocks. It is written for the feature-extraction
// workloads of TinyML pipelines: real-valued frames of a few hundred
// samples, power-of-two padded.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// nextPow2 returns the smallest power of two >= n (n must be positive).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Forward computes the in-place decimation-in-time radix-2 FFT of x.
// len(x) must be a power of two.
func Forward(x []complex128) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	transform(x, false)
	return nil
}

// inverse computes the inverse FFT of x in place, including the 1/n
// normalization. len(x) must be a power of two.
func inverse(x []complex128) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	transform(x, true)
	inv := 1 / float64(n)
	for i := range x {
		x[i] *= complex(inv, 0)
	}
	return nil
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// realForward computes the FFT of a real signal, returning the first
// n/2+1 complex bins (the rest are conjugate-symmetric). The input is
// zero-padded to the next power of two if needed.
func realForward(x []float32) ([]complex128, error) {
	n := nextPow2(len(x))
	buf := make([]complex128, n)
	for i, v := range x {
		buf[i] = complex(float64(v), 0)
	}
	if err := Forward(buf); err != nil {
		return nil, err
	}
	return buf[:n/2+1], nil
}

// spectrum computes the magnitude spectrum |X_k| of a real frame: the
// first n/2+1 bins of the zero-padded FFT.
func spectrum(x []float32) ([]float32, error) {
	bins, err := realForward(x)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(bins))
	for i, b := range bins {
		out[i] = float32(cmplx.Abs(b))
	}
	return out, nil
}

// PowerSpectrum computes |X_k|^2 / n for the first n/2+1 bins, matching the
// periodogram estimate used by speech front ends.
func PowerSpectrum(x []float32) ([]float32, error) {
	n := nextPow2(len(x))
	bins, err := realForward(x)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(bins))
	for i, b := range bins {
		m := cmplx.Abs(b)
		out[i] = float32(m * m / float64(n))
	}
	return out, nil
}

// Window is a window function applied to a frame before the FFT.
type Window int

// Supported window functions.
const (
	Rectangular Window = iota
	Hamming
	Hann
)

func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hamming:
		return "hamming"
	case Hann:
		return "hann"
	default:
		return fmt.Sprintf("Window(%d)", int(w))
	}
}

// Coefficients returns the n window coefficients for w.
func (w Window) Coefficients(n int) []float32 {
	c := make([]float32, n)
	switch w {
	case Hamming:
		for i := range c {
			c[i] = float32(0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1)))
		}
	case Hann:
		for i := range c {
			c[i] = float32(0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1)))
		}
	default:
		for i := range c {
			c[i] = 1
		}
	}
	return c
}

// DCTII computes the orthonormal DCT-II of x, returning the first k
// coefficients. This is the transform used to derive MFCCs from log
// filterbank energies.
func DCTII(x []float32, k int) []float32 {
	n := len(x)
	if k > n {
		k = n
	}
	out := make([]float32, k)
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for j := 0; j < k; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += float64(x[i]) * math.Cos(math.Pi/float64(n)*(float64(i)+0.5)*float64(j))
		}
		if j == 0 {
			out[j] = float32(s * scale0)
		} else {
			out[j] = float32(s * scale)
		}
	}
	return out
}

package dsp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"edgepulse/internal/fft"
	"edgepulse/internal/tensor"
)

func init() {
	Register("spectral-analysis", func(p map[string]float64) (Block, error) { return NewSpectral(p) })
	Register("raw", func(p map[string]float64) (Block, error) { return NewRaw(p) })
	Register("flatten", func(p map[string]float64) (Block, error) { return NewFlatten(p) })
}

// Spectral implements the spectral-analysis block used for vibration and
// motion workloads (predictive maintenance, activity recognition): per
// axis it emits RMS, skewness, kurtosis and the log power of the top FFT
// bins.
type Spectral struct {
	FFTSize int
	// NumPeaks is how many spectral power bins to emit per axis.
	NumPeaks int
	// ScaleAxes multiplies raw values before analysis.
	ScaleAxes float64

	// rt caches the FFT plan and pooled window/accumulator scratch.
	rt atomic.Pointer[spectralRT]
}

// spectralRT is the precomputed transform state of a spectral block.
type spectralRT struct {
	fftSize int
	plan    *fft.RealPlan
	pool    sync.Pool // *spectralScratch
}

// spectralScratch is one extraction's working state.
type spectralScratch struct {
	buf   []float32 // mean-removed window
	power []float32 // per-window power spectrum
	acc   []float64 // averaged spectrum accumulator
	fftSc *fft.RealScratch
}

func (s *Spectral) runtime() (*spectralRT, error) {
	if rt := s.rt.Load(); rt != nil && rt.fftSize == s.FFTSize {
		return rt, nil
	}
	plan, err := fft.NewRealPlan(s.FFTSize)
	if err != nil {
		return nil, err
	}
	rt := &spectralRT{fftSize: s.FFTSize, plan: plan}
	rt.pool.New = func() any {
		return &spectralScratch{
			buf:   make([]float32, plan.Size()),
			power: make([]float32, plan.Bins()),
			acc:   make([]float64, plan.Bins()),
			fftSc: plan.Scratch(),
		}
	}
	s.rt.Store(rt)
	return rt, nil
}

// NewSpectral builds a spectral-analysis block from a parameter map.
func NewSpectral(p map[string]float64) (*Spectral, error) {
	s := &Spectral{
		FFTSize:   int(getParam(p, "fft_length", 64)),
		NumPeaks:  int(getParam(p, "num_peaks", 16)),
		ScaleAxes: getParam(p, "scale_axes", 1),
	}
	if !fft.IsPow2(s.FFTSize) {
		return nil, fmt.Errorf("spectral: fft_length %d is not a power of two", s.FFTSize)
	}
	if s.NumPeaks <= 0 || s.NumPeaks > s.FFTSize/2 {
		return nil, fmt.Errorf("spectral: num_peaks %d out of range (1..%d)", s.NumPeaks, s.FFTSize/2)
	}
	return s, nil
}

// Name implements Block.
func (s *Spectral) Name() string { return "spectral-analysis" }

// Params implements Block.
func (s *Spectral) Params() map[string]float64 {
	return map[string]float64{
		"fft_length": float64(s.FFTSize),
		"num_peaks":  float64(s.NumPeaks),
		"scale_axes": s.ScaleAxes,
	}
}

// featuresPerAxis is RMS + skew + kurtosis + NumPeaks spectral powers.
func (s *Spectral) featuresPerAxis() int { return 3 + s.NumPeaks }

// OutputShape implements Block.
func (s *Spectral) OutputShape(sig Signal) (tensor.Shape, error) {
	if sig.Axes <= 0 {
		return nil, fmt.Errorf("spectral: signal has no axes")
	}
	if sig.Frames() < s.FFTSize {
		return nil, fmt.Errorf("spectral: need at least %d samples per axis, have %d", s.FFTSize, sig.Frames())
	}
	return tensor.Shape{sig.Axes * s.featuresPerAxis()}, nil
}

// Extract implements Block.
func (s *Spectral) Extract(sig Signal) (*tensor.F32, error) {
	shape, err := s.OutputShape(sig)
	if err != nil {
		return nil, err
	}
	rt, err := s.runtime()
	if err != nil {
		return nil, err
	}
	out := tensor.NewF32(shape...)
	st := rt.pool.Get().(*spectralScratch)
	fpa := s.featuresPerAxis()
	for a := 0; a < sig.Axes; a++ {
		axis := sig.Axis(a)
		for i := range axis {
			axis[i] *= float32(s.ScaleAxes)
		}
		mean, std, skew, kurt := moments(axis)
		base := a * fpa
		out.Data[base+0] = std // RMS of the mean-removed signal
		out.Data[base+1] = skew
		out.Data[base+2] = kurt
		// Average power spectra over all full windows.
		nWin := len(axis) / s.FFTSize
		for i := range st.acc {
			st.acc[i] = 0
		}
		for w := 0; w < nWin; w++ {
			copy(st.buf, axis[w*s.FFTSize:(w+1)*s.FFTSize])
			for i := range st.buf {
				st.buf[i] -= mean
			}
			if err := rt.plan.PowerSpectrumInto(st.power, st.buf, st.fftSc); err != nil {
				return nil, err
			}
			for i, v := range st.power {
				st.acc[i] += float64(v)
			}
		}
		for i := 0; i < s.NumPeaks; i++ {
			// Skip the DC bin; log-compress the energies.
			v := st.acc[i+1] / float64(nWin)
			out.Data[base+3+i] = float32(math.Log10(v + 1e-12))
		}
	}
	rt.pool.Put(st)
	return out, nil
}

// moments returns mean, standard deviation, skewness and excess kurtosis.
func moments(x []float32) (mean, std, skew, kurt float32) {
	n := float64(len(x))
	if n == 0 {
		return 0, 0, 0, 0
	}
	var m float64
	for _, v := range x {
		m += float64(v)
	}
	m /= n
	var m2, m3, m4 float64
	for _, v := range x {
		d := float64(v) - m
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m3 /= n
	m4 /= n
	sd := math.Sqrt(m2)
	if sd < 1e-12 {
		return float32(m), 0, 0, 0
	}
	return float32(m), float32(sd), float32(m3 / (sd * sd * sd)), float32(m4/(m2*m2) - 3)
}

// Cost implements Block.
func (s *Spectral) Cost(sig Signal) Cost {
	n := int64(sig.Frames())
	if n == 0 {
		return Cost{}
	}
	nWin := n / int64(s.FFTSize)
	perAxis := Cost{
		FloatOps:       n * 6, // moments
		FFTButterflies: fftButterflies(s.FFTSize) * nWin,
		TranscOps:      int64(s.NumPeaks) + 2,
	}
	return perAxis.Scale(int64(sig.Axes))
}

// RAM implements Block.
func (s *Spectral) RAM(sig Signal) int64 {
	shape, err := s.OutputShape(sig)
	if err != nil {
		return 0
	}
	return int64(sig.Frames())*4 + int64(s.FFTSize)*24 + int64(shape.Elems())*4
}

// Raw passes the signal through with optional scaling and decimation —
// the "use the time series directly" block.
type Raw struct {
	Scale    float64
	Decimate int
}

// NewRaw builds a raw block (scale=1, decimate=1 by default).
func NewRaw(p map[string]float64) (*Raw, error) {
	r := &Raw{
		Scale:    getParam(p, "scale_axes", 1),
		Decimate: int(getParam(p, "decimate", 1)),
	}
	if r.Decimate < 1 {
		return nil, fmt.Errorf("raw: decimate must be >= 1")
	}
	return r, nil
}

// Name implements Block.
func (r *Raw) Name() string { return "raw" }

// Params implements Block.
func (r *Raw) Params() map[string]float64 {
	return map[string]float64{"scale_axes": r.Scale, "decimate": float64(r.Decimate)}
}

// OutputShape implements Block.
func (r *Raw) OutputShape(sig Signal) (tensor.Shape, error) {
	if len(sig.Data) == 0 {
		return nil, fmt.Errorf("raw: empty signal")
	}
	n := (len(sig.Data) + r.Decimate - 1) / r.Decimate
	return tensor.Shape{n}, nil
}

// Extract implements Block.
func (r *Raw) Extract(sig Signal) (*tensor.F32, error) {
	shape, err := r.OutputShape(sig)
	if err != nil {
		return nil, err
	}
	out := tensor.NewF32(shape...)
	for i := 0; i < shape[0]; i++ {
		out.Data[i] = sig.Data[i*r.Decimate] * float32(r.Scale)
	}
	return out, nil
}

// Cost implements Block.
func (r *Raw) Cost(sig Signal) Cost {
	return Cost{FloatOps: int64(len(sig.Data) / r.Decimate)}
}

// RAM implements Block.
func (r *Raw) RAM(sig Signal) int64 {
	shape, err := r.OutputShape(sig)
	if err != nil {
		return 0
	}
	return int64(shape.Elems()) * 4
}

// Flatten emits windowed summary statistics per axis (min, max, mean,
// RMS, std), a cheap front end for slow-moving sensor data.
type Flatten struct {
	Scale float64
}

// NewFlatten builds a flatten block.
func NewFlatten(p map[string]float64) (*Flatten, error) {
	return &Flatten{Scale: getParam(p, "scale_axes", 1)}, nil
}

// Name implements Block.
func (f *Flatten) Name() string { return "flatten" }

// Params implements Block.
func (f *Flatten) Params() map[string]float64 {
	return map[string]float64{"scale_axes": f.Scale}
}

// OutputShape implements Block.
func (f *Flatten) OutputShape(sig Signal) (tensor.Shape, error) {
	if sig.Axes <= 0 || sig.Frames() == 0 {
		return nil, fmt.Errorf("flatten: empty signal")
	}
	return tensor.Shape{sig.Axes * 5}, nil
}

// Extract implements Block.
func (f *Flatten) Extract(sig Signal) (*tensor.F32, error) {
	shape, err := f.OutputShape(sig)
	if err != nil {
		return nil, err
	}
	out := tensor.NewF32(shape...)
	for a := 0; a < sig.Axes; a++ {
		axis := sig.Axis(a)
		min, max := axis[0], axis[0]
		var sum, sumSq float64
		for _, v := range axis {
			v *= float32(f.Scale)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += float64(v)
			sumSq += float64(v) * float64(v)
		}
		n := float64(len(axis))
		mean := sum / n
		rms := math.Sqrt(sumSq / n)
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		base := a * 5
		out.Data[base+0] = min * float32(f.Scale)
		out.Data[base+1] = max * float32(f.Scale)
		out.Data[base+2] = float32(mean)
		out.Data[base+3] = float32(rms)
		out.Data[base+4] = float32(math.Sqrt(variance))
	}
	return out, nil
}

// Cost implements Block.
func (f *Flatten) Cost(sig Signal) Cost {
	return Cost{FloatOps: int64(len(sig.Data)) * 4, TranscOps: int64(sig.Axes) * 2}
}

// RAM implements Block.
func (f *Flatten) RAM(sig Signal) int64 {
	return int64(sig.Frames())*4 + int64(sig.Axes*5)*4
}

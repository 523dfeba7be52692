package dsp

import (
	"fmt"
	"math"
	"sync/atomic"

	"edgepulse/internal/fft"
	"edgepulse/internal/tensor"
)

func init() {
	Register("mfe", func(p map[string]float64) (Block, error) { return NewMFE(p) })
	Register("mfcc", func(p map[string]float64) (Block, error) { return NewMFCC(p) })
}

// MFE computes Mel-filterbank energy features (log mel spectrogram), the
// lighter-weight audio front end of the two offered by the platform
// (paper Table 3 explores both MFE and MFCC).
type MFE struct {
	// FrameLength and FrameStride are in seconds, matching the paper's
	// "MFE (0.02, 0.01, 40)" notation.
	FrameLength float64
	FrameStride float64
	NumFilters  int
	FFTSize     int
	LowHz       float64
	HighHz      float64
	// NoiseFloorDB clamps energies this many dB below the maximum.
	NoiseFloorDB float64

	// rt caches the precomputed window/filterbank/FFT-plan state for the
	// last sample rate seen, with pooled per-call scratch.
	rt atomic.Pointer[audioRT]
}

// NewMFE builds an MFE block from a parameter map with sensible defaults
// (frame_length=0.02, frame_stride=0.01, num_filters=40, fft_length=256).
func NewMFE(p map[string]float64) (*MFE, error) {
	m := &MFE{
		FrameLength:  getParam(p, "frame_length", 0.02),
		FrameStride:  getParam(p, "frame_stride", 0.01),
		NumFilters:   int(getParam(p, "num_filters", 40)),
		FFTSize:      int(getParam(p, "fft_length", 256)),
		LowHz:        getParam(p, "low_frequency", 0),
		HighHz:       getParam(p, "high_frequency", 0),
		NoiseFloorDB: getParam(p, "noise_floor_db", 52),
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *MFE) validate() error {
	if m.FrameLength <= 0 || m.FrameStride <= 0 {
		return fmt.Errorf("mfe: frame length/stride must be positive")
	}
	if m.NumFilters <= 0 {
		return fmt.Errorf("mfe: num_filters must be positive")
	}
	if !fft.IsPow2(m.FFTSize) {
		return fmt.Errorf("mfe: fft_length %d is not a power of two", m.FFTSize)
	}
	return nil
}

// Name implements Block.
func (m *MFE) Name() string { return "mfe" }

// Params implements Block.
func (m *MFE) Params() map[string]float64 {
	return map[string]float64{
		"frame_length":   m.FrameLength,
		"frame_stride":   m.FrameStride,
		"num_filters":    float64(m.NumFilters),
		"fft_length":     float64(m.FFTSize),
		"low_frequency":  m.LowHz,
		"high_frequency": m.HighHz,
		"noise_floor_db": m.NoiseFloorDB,
	}
}

// frameSamples converts the second-based config to sample counts. Frames
// longer than the FFT length are truncated to it, matching embedded audio
// front ends where fft_length caps the analysis window.
func (m *MFE) frameSamples(rate int) (frameLen, stride int) {
	frameLen = int(math.Round(m.FrameLength * float64(rate)))
	stride = int(math.Round(m.FrameStride * float64(rate)))
	return frameLen, stride
}

// OutputShape implements Block.
func (m *MFE) OutputShape(sig Signal) (tensor.Shape, error) {
	if sig.Rate <= 0 {
		return nil, fmt.Errorf("mfe: signal has no sample rate")
	}
	frameLen, stride := m.frameSamples(sig.Rate)
	n := frameCount(sig.Frames(), frameLen, stride)
	if n == 0 {
		return nil, fmt.Errorf("mfe: signal too short (%d samples, frame %d)", sig.Frames(), frameLen)
	}
	return tensor.Shape{n, m.NumFilters}, nil
}

// Extract implements Block: window → power spectrum → mel filterbank →
// log with noise floor normalization into [0, 1]. The window
// coefficients, mel filterbank and FFT plan are precomputed once per
// sample rate, and frame/spectrum buffers come from a scratch pool, so
// steady-state extraction allocates only the output tensor.
func (m *MFE) Extract(sig Signal) (*tensor.F32, error) {
	shape, err := m.OutputShape(sig)
	if err != nil {
		return nil, err
	}
	rt, err := runtime(&m.rt, audioKey{
		rate:        sig.Rate,
		frameLength: m.FrameLength,
		frameStride: m.FrameStride,
		numFilters:  m.NumFilters,
		fftSize:     m.FFTSize,
		lowHz:       m.LowHz,
		highHz:      m.HighHz,
		win:         fft.Hamming,
	})
	if err != nil {
		return nil, err
	}
	samples := sig.Data
	if sig.Axes > 1 {
		samples = sig.Axis(0)
	}
	out := tensor.NewF32(shape...)
	st := rt.pool.Get().(*audioScratch)
	nf := m.NumFilters
	for i := 0; i < shape[0]; i++ {
		rt.powerFrame(samples, i*rt.stride, st)
		row := out.Data[i*nf : (i+1)*nf]
		applyFilterbankInto(row, st.power, rt.filters)
		for j, e := range row {
			row[j] = 10 * logSafe(e)
		}
	}
	rt.pool.Put(st)
	normalizeNoiseFloor(out.Data, m.NoiseFloorDB)
	return out, nil
}

// normalizeNoiseFloor maps dB values into [0,1] with a floor `floorDB`
// below the maximum, the same normalization the platform applies so that
// features are quantization-friendly.
func normalizeNoiseFloor(data []float32, floorDB float64) {
	if len(data) == 0 {
		return
	}
	max := data[0]
	for _, v := range data {
		if v > max {
			max = v
		}
	}
	lo := max - float32(floorDB)
	rangeInv := float32(1 / floorDB)
	for i, v := range data {
		x := (v - lo) * rangeInv
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		data[i] = x
	}
}

// Cost implements Block.
func (m *MFE) Cost(sig Signal) Cost {
	frameLen, stride := m.frameSamples(sig.Rate)
	n := int64(frameCount(sig.Frames(), frameLen, stride))
	if n == 0 {
		return Cost{}
	}
	filters := melFilterbank(m.NumFilters, m.FFTSize, sig.Rate, m.LowHz, m.HighHz)
	perFrame := Cost{
		FloatOps:       int64(frameLen) + int64(m.FFTSize/2+1)*2, // windowing + power
		MACs:           filterbankMACs(filters),
		FFTButterflies: fftButterflies(m.FFTSize),
		TranscOps:      int64(m.NumFilters), // log per filter
	}
	c := perFrame.Scale(n)
	c.FloatOps += n * int64(m.NumFilters) * 2 // normalization pass
	return c
}

// RAM implements Block: frame buffer + FFT working buffers + output.
func (m *MFE) RAM(sig Signal) int64 {
	shape, err := m.OutputShape(sig)
	if err != nil {
		return 0
	}
	fftBuf := int64(m.FFTSize) * 8    // split re/im scratch + power bins
	frameBuf := int64(m.FFTSize) * 4  // windowed frame
	out := int64(shape.Elems()) * 4   // feature matrix
	filterTab := int64(m.FFTSize) * 4 // filterbank weights (approx)
	return fftBuf + frameBuf + out + filterTab
}

package dsp

import (
	"fmt"
	"math"
	"sync/atomic"

	"edgepulse/internal/fft"
	"edgepulse/internal/tensor"
)

// MFCC computes Mel-frequency cepstral coefficients: the MFE front end
// followed by a DCT-II and cepstral liftering. This is the preprocessing
// block used by the paper's keyword-spotting evaluation (Table 2).
type MFCC struct {
	FrameLength float64
	FrameStride float64
	NumFilters  int
	NumCoeffs   int
	FFTSize     int
	LowHz       float64
	HighHz      float64
	// CepLifter is the sinusoidal liftering coefficient (0 disables).
	CepLifter int

	// rt caches the precomputed window/filterbank/DCT/FFT-plan state for
	// the last sample rate seen, with pooled per-call scratch.
	rt atomic.Pointer[audioRT]
}

// NewMFCC builds an MFCC block from a parameter map with defaults
// matching the platform (13 coefficients, 32 filters, 256-point FFT).
func NewMFCC(p map[string]float64) (*MFCC, error) {
	m := &MFCC{
		FrameLength: getParam(p, "frame_length", 0.02),
		FrameStride: getParam(p, "frame_stride", 0.01),
		NumFilters:  int(getParam(p, "num_filters", 32)),
		NumCoeffs:   int(getParam(p, "num_cepstral", 13)),
		FFTSize:     int(getParam(p, "fft_length", 256)),
		LowHz:       getParam(p, "low_frequency", 0),
		HighHz:      getParam(p, "high_frequency", 0),
		CepLifter:   int(getParam(p, "cep_lifter", 22)),
	}
	if m.FrameLength <= 0 || m.FrameStride <= 0 {
		return nil, fmt.Errorf("mfcc: frame length/stride must be positive")
	}
	if m.NumCoeffs <= 0 || m.NumFilters < m.NumCoeffs {
		return nil, fmt.Errorf("mfcc: need 0 < num_cepstral (%d) <= num_filters (%d)", m.NumCoeffs, m.NumFilters)
	}
	if !fft.IsPow2(m.FFTSize) {
		return nil, fmt.Errorf("mfcc: fft_length %d is not a power of two", m.FFTSize)
	}
	return m, nil
}

// Name implements Block.
func (m *MFCC) Name() string { return "mfcc" }

// Params implements Block.
func (m *MFCC) Params() map[string]float64 {
	return map[string]float64{
		"frame_length":   m.FrameLength,
		"frame_stride":   m.FrameStride,
		"num_filters":    float64(m.NumFilters),
		"num_cepstral":   float64(m.NumCoeffs),
		"fft_length":     float64(m.FFTSize),
		"low_frequency":  m.LowHz,
		"high_frequency": m.HighHz,
		"cep_lifter":     float64(m.CepLifter),
	}
}

func (m *MFCC) frameSamples(rate int) (frameLen, stride int) {
	frameLen = int(math.Round(m.FrameLength * float64(rate)))
	stride = int(math.Round(m.FrameStride * float64(rate)))
	return frameLen, stride
}

// OutputShape implements Block.
func (m *MFCC) OutputShape(sig Signal) (tensor.Shape, error) {
	if sig.Rate <= 0 {
		return nil, fmt.Errorf("mfcc: signal has no sample rate")
	}
	frameLen, stride := m.frameSamples(sig.Rate)
	n := frameCount(sig.Frames(), frameLen, stride)
	if n == 0 {
		return nil, fmt.Errorf("mfcc: signal too short (%d samples, frame %d)", sig.Frames(), frameLen)
	}
	return tensor.Shape{n, m.NumCoeffs}, nil
}

// Extract implements Block. The window, mel filterbank, DCT matrix,
// lifter and FFT plan are precomputed once per sample rate, and all
// frame/spectrum buffers come from a scratch pool, so steady-state
// extraction allocates only the output tensor.
func (m *MFCC) Extract(sig Signal) (*tensor.F32, error) {
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
		numCoeffs:   m.NumCoeffs,
		cepLifter:   m.CepLifter,
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
	nc := m.NumCoeffs
	for i := 0; i < shape[0]; i++ {
		rt.powerFrame(samples, i*rt.stride, st)
		applyFilterbankInto(st.work, st.power, rt.filters)
		for j, e := range st.work {
			st.work[j] = logSafe(e)
		}
		rt.cepstrum(out.Data[i*nc:(i+1)*nc], st.work)
	}
	rt.pool.Put(st)
	// Standardize to zero mean / unit variance per coefficient so
	// features are well-conditioned for small networks.
	standardizeColumns(out.Data, shape[0], shape[1])
	return out, nil
}

// standardizeColumns normalizes each column of an (rows × cols) matrix to
// zero mean and unit variance. Columns that are (numerically) constant —
// e.g. every analysis frame of a stationary tone is identical — are left
// untouched: standardizing them would only amplify floating-point noise
// while erasing the one value that actually carries information.
func standardizeColumns(data []float32, rows, cols int) {
	for c := 0; c < cols; c++ {
		var mean, m2 float64
		for r := 0; r < rows; r++ {
			mean += float64(data[r*cols+c])
		}
		mean /= float64(rows)
		for r := 0; r < rows; r++ {
			d := float64(data[r*cols+c]) - mean
			m2 += d * d
		}
		std := math.Sqrt(m2 / float64(rows))
		if std <= 1e-4*(math.Abs(mean)+1) {
			continue
		}
		std += 1e-6
		for r := 0; r < rows; r++ {
			data[r*cols+c] = float32((float64(data[r*cols+c]) - mean) / std)
		}
	}
}

// Cost implements Block.
func (m *MFCC) Cost(sig Signal) Cost {
	frameLen, stride := m.frameSamples(sig.Rate)
	n := int64(frameCount(sig.Frames(), frameLen, stride))
	if n == 0 {
		return Cost{}
	}
	filters := melFilterbank(m.NumFilters, m.FFTSize, sig.Rate, m.LowHz, m.HighHz)
	perFrame := Cost{
		FloatOps:       int64(frameLen) + int64(m.FFTSize/2+1)*2,
		MACs:           filterbankMACs(filters) + int64(m.NumFilters*m.NumCoeffs), // filterbank + DCT
		FFTButterflies: fftButterflies(m.FFTSize),
		TranscOps:      int64(m.NumFilters) + int64(m.NumFilters*m.NumCoeffs)/8, // log + cos table amortized
	}
	c := perFrame.Scale(n)
	c.FloatOps += n * int64(m.NumCoeffs) * 4 // liftering + standardization
	return c
}

// RAM implements Block.
func (m *MFCC) RAM(sig Signal) int64 {
	shape, err := m.OutputShape(sig)
	if err != nil {
		return 0
	}
	fftBuf := int64(m.FFTSize) * 8 // split re/im scratch + power bins
	frameBuf := int64(m.FFTSize) * 4
	out := int64(shape.Elems()) * 4
	work := int64(m.NumFilters) * 8
	dctTab := int64(m.NumFilters*m.NumCoeffs) * 4
	return fftBuf + frameBuf + out + work + dctTab
}

package dsp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"edgepulse/internal/fft"
)

// audioKey fingerprints everything an audio front-end runtime depends
// on; a cached runtime is reused only while the key matches, so mutating
// a block's parameters (or feeding a new sample rate) rebuilds it.
type audioKey struct {
	rate        int
	frameLength float64
	frameStride float64
	numFilters  int
	fftSize     int
	lowHz       float64
	highHz      float64
	win         fft.Window
	// Cepstral stage (MFCC only; zero for MFE).
	numCoeffs int
	cepLifter int
}

// audioRT is the precomputed per-rate state of an audio front end: frame
// geometry, window coefficients, the sparse mel filterbank and a planned
// real FFT, plus a pool of per-call scratch. It is immutable after
// construction and safe to share across goroutines.
type audioRT struct {
	key      audioKey
	frameLen int // configured frame in samples
	stride   int
	eff      int // analysis window: min(frameLen, fftSize)
	window   []float32
	filters  []melFilter
	plan     *fft.RealPlan
	// Cepstral tables (MFCC only): dct[j*numFilters+i] = cos(π/n·(i+½)·j)
	// with the orthonormal scale kept separate so the accumulation
	// matches the reference DCT-II bit for bit.
	dct      []float64
	dctScale []float64
	lifter   []float32
	pool     sync.Pool // *audioScratch
}

// audioScratch is one call's working state.
type audioScratch struct {
	power []float32 // plan.Bins() power spectrum
	work  []float32 // numFilters intermediate energies
	fftSc *fft.RealScratch
}

func newAudioRT(key audioKey) (*audioRT, error) {
	plan, err := fft.NewRealPlan(key.fftSize)
	if err != nil {
		return nil, err
	}
	rt := &audioRT{key: key, plan: plan}
	rt.frameLen = int(math.Round(key.frameLength * float64(key.rate)))
	rt.stride = int(math.Round(key.frameStride * float64(key.rate)))
	rt.eff = rt.frameLen
	if rt.eff > key.fftSize {
		rt.eff = key.fftSize
	}
	if rt.eff <= 0 || rt.stride <= 0 {
		return nil, fmt.Errorf("dsp: frame %d / stride %d samples invalid at %d Hz", rt.frameLen, rt.stride, key.rate)
	}
	rt.window = key.win.Coefficients(rt.eff)
	rt.filters = melFilterbank(key.numFilters, key.fftSize, key.rate, key.lowHz, key.highHz)
	if key.numCoeffs > 0 {
		n := key.numFilters
		rt.dct = make([]float64, key.numCoeffs*n)
		rt.dctScale = make([]float64, key.numCoeffs)
		scale0 := math.Sqrt(1 / float64(n))
		scale := math.Sqrt(2 / float64(n))
		for j := 0; j < key.numCoeffs; j++ {
			rt.dctScale[j] = scale
			if j == 0 {
				rt.dctScale[j] = scale0
			}
			for i := 0; i < n; i++ {
				rt.dct[j*n+i] = math.Cos(math.Pi / float64(n) * (float64(i) + 0.5) * float64(j))
			}
		}
		rt.lifter = make([]float32, key.numCoeffs)
		for i := range rt.lifter {
			if key.cepLifter > 0 {
				rt.lifter[i] = float32(1 + float64(key.cepLifter)/2*math.Sin(math.Pi*float64(i)/float64(key.cepLifter)))
			} else {
				rt.lifter[i] = 1
			}
		}
	}
	rt.pool.New = func() any {
		return &audioScratch{
			power: make([]float32, plan.Bins()),
			work:  make([]float32, key.numFilters),
			fftSc: plan.Scratch(),
		}
	}
	return rt, nil
}

// powerFrame computes the power spectrum of the windowed analysis frame
// at sample offset off into s.power; the window is applied as the FFT
// loads the frame.
func (rt *audioRT) powerFrame(samples []float32, off int, s *audioScratch) {
	rt.plan.WindowedPowerSpectrumInto(s.power, samples[off:off+rt.eff], rt.window, s.fftSc)
}

// runtime returns the cached runtime for key, building it on first use
// or whenever the key changes.
func runtime(cache *atomic.Pointer[audioRT], key audioKey) (*audioRT, error) {
	if rt := cache.Load(); rt != nil && rt.key == key {
		return rt, nil
	}
	rt, err := newAudioRT(key)
	if err != nil {
		return nil, err
	}
	cache.Store(rt)
	return rt, nil
}

// cepstrum writes the liftered orthonormal DCT-II of the log filterbank
// energies logE into row (one coefficient per element).
func (rt *audioRT) cepstrum(row, logE []float32) {
	nf := len(logE)
	for j := range row {
		var s float64
		for k, c := range rt.dct[j*nf : (j+1)*nf] {
			s += float64(logE[k]) * c
		}
		row[j] = float32(s*rt.dctScale[j]) * rt.lifter[j]
	}
}

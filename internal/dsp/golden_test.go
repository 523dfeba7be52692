package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"edgepulse/internal/fft"
	"edgepulse/internal/tensor"
)

// refMFE replicates the pre-plan MFE pipeline (complex128 FFT via
// powerFrames, per-call filterbank) as the golden reference.
func refMFE(m *MFE, sig Signal) (*tensor.F32, error) {
	shape, err := m.OutputShape(sig)
	if err != nil {
		return nil, err
	}
	frameLen, stride := m.frameSamples(sig.Rate)
	samples := sig.Data
	if sig.Axes > 1 {
		samples = sig.Axis(0)
	}
	frames, err := powerFrames(samples, frameLen, stride, m.FFTSize, fft.Hamming)
	if err != nil {
		return nil, err
	}
	filters := melFilterbank(m.NumFilters, m.FFTSize, sig.Rate, m.LowHz, m.HighHz)
	out := tensor.NewF32(shape...)
	for i, ps := range frames {
		energies := applyFilterbank(ps, filters)
		for j, e := range energies {
			out.Data[i*m.NumFilters+j] = 10 * logSafe(e)
		}
	}
	normalizeNoiseFloor(out.Data, m.NoiseFloorDB)
	return out, nil
}

// refMFCC replicates the pre-plan MFCC pipeline with the float64 DCT.
func refMFCC(m *MFCC, sig Signal) (*tensor.F32, error) {
	shape, err := m.OutputShape(sig)
	if err != nil {
		return nil, err
	}
	frameLen, stride := m.frameSamples(sig.Rate)
	samples := sig.Data
	if sig.Axes > 1 {
		samples = sig.Axis(0)
	}
	frames, err := powerFrames(samples, frameLen, stride, m.FFTSize, fft.Hamming)
	if err != nil {
		return nil, err
	}
	filters := melFilterbank(m.NumFilters, m.FFTSize, sig.Rate, m.LowHz, m.HighHz)
	lifter := make([]float32, m.NumCoeffs)
	for i := range lifter {
		if m.CepLifter > 0 {
			lifter[i] = float32(1 + float64(m.CepLifter)/2*math.Sin(math.Pi*float64(i)/float64(m.CepLifter)))
		} else {
			lifter[i] = 1
		}
	}
	out := tensor.NewF32(shape...)
	logE := make([]float32, m.NumFilters)
	for i, ps := range frames {
		energies := applyFilterbank(ps, filters)
		for j, e := range energies {
			logE[j] = logSafe(e)
		}
		coeffs := fft.DCTII(logE, m.NumCoeffs)
		for j, c := range coeffs {
			out.Data[i*m.NumCoeffs+j] = c * lifter[j]
		}
	}
	standardizeColumns(out.Data, shape[0], shape[1])
	return out, nil
}

// noiseSignal builds a deterministic broadband test signal (noise plus
// chirpy tones) so no feature column is degenerate.
func noiseSignal(rng *rand.Rand, n, rate, axes int) Signal {
	data := make([]float32, n*axes)
	for i := range data {
		t := float64(i/axes) / float64(rate)
		data[i] = float32(rng.NormFloat64()*0.2 +
			0.5*math.Sin(2*math.Pi*(300+200*t)*t) +
			0.3*math.Sin(2*math.Pi*1700*t))
	}
	return Signal{Data: data, Rate: rate, Axes: axes}
}

// TestMFEGoldenAgainstReference proves the precomputed-plan extraction
// matches the historical complex128 pipeline within float32 tolerance.
func TestMFEGoldenAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sig := noiseSignal(rng, 16000, 16000, 1)
	m, err := NewMFE(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Extract(sig)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refMFE(m, sig)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("shape %v != %v", got.Shape, want.Shape)
	}
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > 1e-3 {
			t.Fatalf("elem %d: got %g want %g (|d|=%g)", i, got.Data[i], want.Data[i], d)
		}
	}
}

func TestMFCCGoldenAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	sig := noiseSignal(rng, 16000, 16000, 1)
	m, err := NewMFCC(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Extract(sig)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refMFCC(m, sig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > 2e-3 {
			t.Fatalf("elem %d: got %g want %g (|d|=%g)", i, got.Data[i], want.Data[i], d)
		}
	}
}

// TestExtractSteadyStateAllocs pins the per-extraction allocation budget
// after warmup: only the output tensor should be allocated.
func TestExtractSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	sig := noiseSignal(rng, 16000, 16000, 1)
	mfe, _ := NewMFE(nil)
	mfcc, _ := NewMFCC(nil)
	for _, tc := range []struct {
		name  string
		block Block
	}{{"mfe", mfe}, {"mfcc", mfcc}} {
		if _, err := tc.block.Extract(sig); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tc.block.Extract(sig); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 10 {
			t.Errorf("%s Extract allocates %v per run, want <= 10", tc.name, allocs)
		}
	}
}

// TestExtractConcurrentSharedBlock runs concurrent extractions on one
// shared block (as concurrent classify requests do) and checks results
// against the serial answer: pooled scratch must not alias across calls.
func TestExtractConcurrentSharedBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	sigs := make([]Signal, 4)
	wants := make([]*tensor.F32, len(sigs))
	m, _ := NewMFE(nil)
	for i := range sigs {
		sigs[i] = noiseSignal(rng, 8000, 16000, 1)
		w, err := m.Extract(sigs[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				k := (g + iter) % len(sigs)
				got, err := m.Extract(sigs[k])
				if err != nil {
					select {
					case fail <- err.Error():
					default:
					}
					return
				}
				for i := range wants[k].Data {
					if got.Data[i] != wants[k].Data[i] {
						select {
						case fail <- "concurrent extraction diverged from serial":
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	if msg, ok := <-fail; ok {
		t.Fatal(msg)
	}
}

// TestRuntimeRebuildOnRateOrParamChange ensures the cached runtime is
// keyed on sample rate and parameters, not constructed once and reused
// blindly.
func TestRuntimeRebuildOnRateOrParamChange(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m, _ := NewMFE(nil)
	sig16 := noiseSignal(rng, 16000, 16000, 1)
	if _, err := m.Extract(sig16); err != nil {
		t.Fatal(err)
	}
	sig8 := noiseSignal(rng, 8000, 8000, 1)
	got, err := m.Extract(sig8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refMFE(m, sig8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > 1e-3 {
			t.Fatalf("after rate change, elem %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
	// Mutating a parameter must invalidate the cached runtime too.
	m.NumFilters = 20
	got2, err := m.Extract(sig8)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Shape[1] != 20 {
		t.Fatalf("stale runtime: shape %v after NumFilters change", got2.Shape)
	}
}

// applyFilterbank computes the filterbank energies of a power spectrum.
func applyFilterbank(power []float32, filters []melFilter) []float32 {
	out := make([]float32, len(filters))
	applyFilterbankInto(out, power, filters)
	return out
}

// powerFrames slices sig (single axis) into windowed power spectra.
// Returns one power spectrum per frame. Frames longer than fftSize are
// truncated to fftSize (the stride still advances by the configured
// amount, so frame count is unchanged).
func powerFrames(samples []float32, frameLen, stride, fftSize int, win fft.Window) ([][]float32, error) {
	n := frameCount(len(samples), frameLen, stride)
	eff := frameLen
	if eff > fftSize {
		eff = fftSize
	}
	coeffs := win.Coefficients(eff)
	frames := make([][]float32, n)
	buf := make([]float32, fftSize)
	for i := 0; i < n; i++ {
		off := i * stride
		for j := 0; j < fftSize; j++ {
			if j < eff {
				buf[j] = samples[off+j] * coeffs[j]
			} else {
				buf[j] = 0
			}
		}
		ps, err := fft.PowerSpectrum(buf)
		if err != nil {
			return nil, err
		}
		frames[i] = ps
	}
	return frames, nil
}

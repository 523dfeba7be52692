package fft

import (
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/kernelref"
	"edgepulse/internal/simd"
)

func TestNewRealPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12, -8} {
		if _, err := NewRealPlan(n); err == nil {
			t.Errorf("NewRealPlan(%d) accepted", n)
		}
	}
}

// TestRealPlanMatchesComplexPowerSpectrum is the golden-value check: the
// planned float32 real FFT must agree with the reference complex128 path
// across sizes, random signals and zero-padded short frames.
func TestRealPlanMatchesComplexPowerSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 4, 16, 64, 256, 512} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Scratch()
		for _, frameLen := range []int{n, n / 2, n - 1, 1} {
			if frameLen < 1 {
				continue
			}
			frame := make([]float32, frameLen)
			for i := range frame {
				frame[i] = float32(rng.NormFloat64())
			}
			padded := make([]float32, n)
			copy(padded, frame)
			want, err := PowerSpectrum(padded)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float32, p.Bins())
			if err := p.PowerSpectrumInto(got, frame, s); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d: %d bins, want %d", n, len(got), len(want))
			}
			for k := range want {
				d := math.Abs(float64(got[k]) - float64(want[k]))
				if d > 1e-4*(1+math.Abs(float64(want[k]))) {
					t.Errorf("n=%d frame=%d bin %d: got %g want %g", n, frameLen, k, got[k], want[k])
				}
			}
		}
	}
}

func TestRealPlanSingleTone(t *testing.T) {
	// A unit cosine at bin k puts power (n/2)²/n = n/4 in bin k.
	const n, k = 256, 11
	p, err := NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]float32, n)
	for i := range frame {
		frame[i] = float32(math.Cos(2 * math.Pi * float64(k) * float64(i) / n))
	}
	out := make([]float32, p.Bins())
	if err := p.PowerSpectrumInto(out, frame, p.Scratch()); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if i == k {
			if math.Abs(float64(v)-n/4) > 1e-3 {
				t.Errorf("bin %d power %g, want %g", i, v, float64(n)/4)
			}
		} else if v > 1e-3 {
			t.Errorf("bin %d power %g, want ~0", i, v)
		}
	}
}

// FuzzRealFFT holds the planned real FFT to a float64 DFT by definition
// (kernelref.DFTPower) on power-of-two sizes 4 to 1024, frames of any
// length up to the size, a random window or none, and amplitudes over
// twelve octaves either way; and the vector path to the portable one bit
// for bit. The reference transforms the same float32 products of sample
// and window, so only the FFT's own rounding is measured: every bin must
// lie within 4·log2(n)·2⁻²⁴ of the windowed frame's energy E = Σ(x·w)²
// (the power of any one bin is at most E, by Parseval).
func FuzzRealFFT(f *testing.F) {
	f.Add(int64(1), uint8(7), uint16(512), true, int8(0))
	f.Add(int64(2), uint8(7), uint16(256), true, int8(-9))
	f.Add(int64(3), uint8(0), uint16(3), false, int8(12))
	f.Add(int64(4), uint8(8), uint16(1000), false, int8(0))
	f.Add(int64(5), uint8(3), uint16(0), true, int8(1))
	f.Fuzz(func(t *testing.T, seed int64, logN uint8, frameLen uint16, windowed bool, octave int8) {
		n := 4 << (logN % 9)
		rng := rand.New(rand.NewSource(seed))
		frame := make([]float32, int(frameLen)%(n+1))
		amp := math.Ldexp(1, int(octave)%13)
		for i := range frame {
			frame[i] = float32(rng.NormFloat64() * amp)
		}
		var win []float32
		xw := append([]float32(nil), frame...)
		if windowed {
			win = make([]float32, len(frame))
			for i := range win {
				win[i] = rng.Float32()
				xw[i] = frame[i] * win[i]
			}
		}
		var energy float64
		for _, v := range xw {
			energy += float64(v) * float64(v)
		}
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		prev := simd.Enabled()
		defer simd.SetEnabled(prev)
		var got [2][]float32
		for i, on := range []bool{true, false} {
			simd.SetEnabled(on)
			got[i] = make([]float32, p.Bins())
			if win == nil {
				if err := p.PowerSpectrumInto(got[i], frame, p.Scratch()); err != nil {
					t.Fatal(err)
				}
			} else {
				p.WindowedPowerSpectrumInto(got[i], frame, win, p.Scratch())
			}
		}
		tol := 4 * math.Log2(float64(n)) * 0x1p-24 * energy
		for k, want := range kernelref.DFTPower(xw, n) {
			if math.Float32bits(got[0][k]) != math.Float32bits(got[1][k]) {
				t.Fatalf("n=%d frame=%d bin %d: simd %g, portable %g", n, len(frame), k, got[0][k], got[1][k])
			}
			if d := math.Abs(float64(got[0][k]) - want); d > tol {
				t.Fatalf("n=%d frame=%d bin %d: %g, DFT %g (|d| %g > %g)", n, len(frame), k, got[0][k], want, d, tol)
			}
		}
	})
}

// The classic test signals: an impulse has a flat spectrum, a constant
// (DC) puts all its energy in bin 0, and the power spectrum scales with
// the square of the signal — exactly for a power-of-two gain, since then
// every rounding in the transform scales with it.

func TestRealPlanImpulseIsFlat(t *testing.T) {
	for _, n := range []int{4, 64, 512} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range []int{0, 1, n / 2, n - 1} {
			frame := make([]float32, n)
			frame[pos] = 3
			dst := make([]float32, p.Bins())
			if err := p.PowerSpectrumInto(dst, frame, p.Scratch()); err != nil {
				t.Fatal(err)
			}
			want := 9 / float64(n)
			for k, v := range dst {
				if math.Abs(float64(v)-want) > 1e-6*want {
					t.Fatalf("n=%d impulse at %d: bin %d = %g, want %g", n, pos, k, v, want)
				}
			}
		}
	}
}

func TestRealPlanDCOnlyInBinZero(t *testing.T) {
	for _, n := range []int{4, 64, 512} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]float32, n)
		for i := range frame {
			frame[i] = -1.5
		}
		dst := make([]float32, p.Bins())
		if err := p.PowerSpectrumInto(dst, frame, p.Scratch()); err != nil {
			t.Fatal(err)
		}
		energy := 2.25 * float64(n)
		if math.Abs(float64(dst[0])-energy) > 1e-6*energy {
			t.Errorf("n=%d: bin 0 = %g, want %g", n, dst[0], energy)
		}
		for k, v := range dst[1:] {
			if float64(v) > 1e-6*energy {
				t.Errorf("n=%d: bin %d = %g, want ~0", n, k+1, v)
			}
		}
	}
}

func TestRealPlanPowerScalesQuadratically(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 512
	p, err := NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	frame, win := make([]float32, 400), Hann.Coefficients(400)
	for i := range frame {
		frame[i] = float32(rng.NormFloat64())
	}
	base := make([]float32, p.Bins())
	p.WindowedPowerSpectrumInto(base, frame, win, p.Scratch())
	var energy float64
	for _, v := range base {
		energy += float64(v)
	}
	for _, k := range []float32{0.25, 4, 3, -0.7} {
		scaled := make([]float32, len(frame))
		for i, v := range frame {
			scaled[i] = k * v
		}
		got := make([]float32, p.Bins())
		p.WindowedPowerSpectrumInto(got, scaled, win, p.Scratch())
		exact := k == 0.25 || k == 4
		for b := range got {
			want := k * k * base[b]
			if exact && got[b] != want {
				t.Fatalf("gain %g bin %d: %g, want exactly %g", k, b, got[b], want)
			}
			if d := math.Abs(float64(got[b] - want)); d > 1e-6*float64(k*k)*energy {
				t.Fatalf("gain %g bin %d: %g, want %g", k, b, got[b], want)
			}
		}
	}
}

func TestRealPlanArgumentErrors(t *testing.T) {
	p, err := NewRealPlan(64)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Scratch()
	dst := make([]float32, p.Bins())
	if err := p.PowerSpectrumInto(dst, make([]float32, 65), s); err == nil {
		t.Error("accepted over-long frame")
	}
	if err := p.PowerSpectrumInto(make([]float32, 3), make([]float32, 64), s); err == nil {
		t.Error("accepted short dst")
	}
	for name, f := range map[string]func(){
		"long frame":   func() { p.WindowedPowerSpectrumInto(dst, make([]float32, 65), nil, s) },
		"short window": func() { p.WindowedPowerSpectrumInto(dst, make([]float32, 64), make([]float32, 63), s) },
		"short dst":    func() { p.WindowedPowerSpectrumInto(make([]float32, 32), make([]float32, 64), nil, s) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("windowed: accepted %s", name)
				}
			}()
			f()
		}()
	}
}

func TestRealPlanNoAllocs(t *testing.T) {
	p, err := NewRealPlan(256)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Scratch()
	frame := make([]float32, 256)
	dst := make([]float32, p.Bins())
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.PowerSpectrumInto(dst, frame, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PowerSpectrumInto allocates %v per run, want 0", allocs)
	}
}

// BenchmarkRFFTPlan256 vs BenchmarkComplexFFT256 quantifies the planned
// real-path speedup over the generic complex128 transform.
func BenchmarkRFFTPlan256(b *testing.B) {
	p, err := NewRealPlan(256)
	if err != nil {
		b.Fatal(err)
	}
	s := p.Scratch()
	frame := make([]float32, 256)
	for i := range frame {
		frame[i] = float32(i % 31)
	}
	dst := make([]float32, p.Bins())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PowerSpectrumInto(dst, frame, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComplexFFT256(b *testing.B) {
	frame := make([]float32, 256)
	for i := range frame {
		frame[i] = float32(i % 31)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PowerSpectrum(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMFCCStagesKWS times the real FFT's stages over the 49 frames
// of a 1 s keyword-spotting MFCC extraction (16 kHz, 512-point Hamming
// frames every 320 samples); internal/dsp's benchmark of the same name
// times the whole spectrum and the stages after it.
func BenchmarkMFCCStagesKWS(b *testing.B) {
	const n, stride = 512, 320
	p, err := NewRealPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	samples := make([]float32, 16000)
	for i := range samples {
		samples[i] = float32(rng.NormFloat64())
	}
	win := Hamming.Coefficients(n)
	frames := (len(samples)-n)/stride + 1
	s := p.Scratch()
	dst := make([]float32, p.Bins())
	for _, st := range []struct {
		name string
		run  func(frame []float32)
	}{
		{"load", func(frame []float32) { p.load(frame, win, s) }},
		{"butterflies", func([]float32) { p.stages(s) }},
		{"power", func([]float32) { simd.RealPowerF32(dst, s.re, s.im, p.cr, p.ci, 1/float32(n)) }},
	} {
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for f := 0; f < frames; f++ {
					st.run(samples[f*stride : f*stride+n])
				}
			}
		})
	}
}

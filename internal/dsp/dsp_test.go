package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sine returns a mono signal with the given tone.
func sine(rate int, seconds float64, freq float64, amp float32) Signal {
	n := int(seconds * float64(rate))
	data := make([]float32, n)
	for i := range data {
		data[i] = amp * float32(math.Sin(2*math.Pi*freq*float64(i)/float64(rate)))
	}
	return Signal{Data: data, Rate: rate, Axes: 1}
}

func TestSignalAxis(t *testing.T) {
	s := Signal{Data: []float32{1, 10, 2, 20, 3, 30}, Axes: 2, Rate: 100}
	if s.Frames() != 3 {
		t.Fatalf("Frames = %d", s.Frames())
	}
	a0 := s.Axis(0)
	a1 := s.Axis(1)
	for i, want := range []float32{1, 2, 3} {
		if a0[i] != want {
			t.Errorf("axis0[%d] = %g", i, a0[i])
		}
	}
	for i, want := range []float32{10, 20, 30} {
		if a1[i] != want {
			t.Errorf("axis1[%d] = %g", i, a1[i])
		}
	}
}

func TestCostAddScale(t *testing.T) {
	a := Cost{FloatOps: 1, MACs: 2, FFTButterflies: 3, TranscOps: 4}
	b := a.Add(a).Scale(2)
	if b.FloatOps != 4 || b.MACs != 8 || b.FFTButterflies != 12 || b.TranscOps != 16 {
		t.Fatalf("got %+v", b)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := map[string]bool{"mfe": false, "mfcc": false, "spectral-analysis": false, "raw": false, "flatten": false, "image": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("block %q not registered", n)
		}
	}
	if _, err := New("nope", nil); err == nil {
		t.Error("New accepted unknown block")
	}
	b, err := New("mfe", map[string]float64{"num_filters": 20})
	if err != nil {
		t.Fatal(err)
	}
	if b.Params()["num_filters"] != 20 {
		t.Error("params not passed through")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("mfe", nil)
}

func TestMFEShapeAndRange(t *testing.T) {
	sig := sine(16000, 1.0, 440, 0.5)
	m, err := NewMFE(map[string]float64{"frame_length": 0.02, "frame_stride": 0.01, "num_filters": 40, "fft_length": 512})
	if err != nil {
		t.Fatal(err)
	}
	shape, err := m.OutputShape(sig)
	if err != nil {
		t.Fatal(err)
	}
	// (16000-320)/160+1 = 99 frames
	if shape[0] != 99 || shape[1] != 40 {
		t.Fatalf("shape = %v, want [99x40]", shape)
	}
	feat, err := m.Extract(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !feat.Shape.Equal(shape) {
		t.Fatalf("extract shape %v != declared %v", feat.Shape, shape)
	}
	for i, v := range feat.Data {
		if v < 0 || v > 1 {
			t.Fatalf("feature %d = %g outside [0,1]", i, v)
		}
	}
}

func TestMFEToneSelectsCorrectFilter(t *testing.T) {
	// A 2 kHz tone must put most energy in the filter covering 2 kHz,
	// not in the lowest or highest filters.
	sig := sine(16000, 0.5, 2000, 0.8)
	m, _ := NewMFE(map[string]float64{"num_filters": 32, "fft_length": 256})
	feat, err := m.Extract(sig)
	if err != nil {
		t.Fatal(err)
	}
	cols := 32
	colEnergy := make([]float64, cols)
	rows := feat.Shape[0]
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			colEnergy[c] += float64(feat.Data[r*cols+c])
		}
	}
	best := 0
	for c := range colEnergy {
		if colEnergy[c] > colEnergy[best] {
			best = c
		}
	}
	if best < 5 || best > 28 {
		t.Errorf("2kHz tone peaked in filter %d, expected a mid filter", best)
	}
}

// TestBinCentredSinePeaksInItsMelFilter: a sine on the centre of FFT
// bin k has its largest power in bin k, and its largest mel energy in the
// filter whose centre is nearest that bin, at the three sample rates the
// platform's audio front ends see. The expected filter comes from the mel
// scale itself (HTK, 0 Hz to Nyquist), not from the filterbank.
func TestBinCentredSinePeaksInItsMelFilter(t *testing.T) {
	const n, filters = 512, 32
	for _, rate := range []int{8000, 16000, 44100} {
		hiMel := 2595 * math.Log10(1+float64(rate)/2/700)
		for _, want := range []int{6, 15, 24} {
			mel := hiMel * float64(want+1) / (filters + 1)
			centre := 700 * (math.Pow(10, mel/2595) - 1) / (float64(rate) / 2) * (n / 2)
			k := int(math.Round(centre))
			secs := float64(n) / float64(rate)
			m, err := NewMFE(map[string]float64{"frame_length": secs, "frame_stride": secs, "num_filters": filters, "fft_length": n})
			if err != nil {
				t.Fatal(err)
			}
			sig := sine(rate, 4*secs, float64(k)*float64(rate)/n, 0.5)
			feat, err := m.Extract(sig)
			if err != nil {
				t.Fatal(err)
			}
			rt := m.rt.Load()
			st := rt.pool.Get().(*audioScratch)
			rt.powerFrame(sig.Data, 0, st)
			if got := argmax(st.power); got != k {
				t.Errorf("%d Hz, bin %d: power peaks in bin %d", rate, k, got)
			}
			rt.pool.Put(st)
			for r := 0; r < feat.Shape[0]; r++ {
				if got := argmax(feat.Data[r*filters : (r+1)*filters]); got != want {
					t.Errorf("%d Hz, bin %d (centre of filter %d at %.2f): frame %d peaks in filter %d", rate, k, want, centre, r, got)
				}
			}
		}
	}
}

func argmax(x []float32) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

func TestMFEValidation(t *testing.T) {
	if _, err := NewMFE(map[string]float64{"fft_length": 300}); err == nil {
		t.Error("accepted non-pow2 fft")
	}
	if _, err := NewMFE(map[string]float64{"frame_length": -1}); err == nil {
		t.Error("accepted negative frame")
	}
	if _, err := NewMFE(map[string]float64{"num_filters": 0}); err == nil {
		t.Error("accepted zero filters")
	}
	m, _ := NewMFE(nil)
	if _, err := m.OutputShape(Signal{Data: make([]float32, 10), Rate: 16000, Axes: 1}); err == nil {
		t.Error("accepted too-short signal")
	}
	if _, err := m.OutputShape(Signal{Data: make([]float32, 100), Axes: 1}); err == nil {
		t.Error("accepted zero rate")
	}
	// Frames longer than the FFT length are truncated, not rejected.
	m2, _ := NewMFE(map[string]float64{"frame_length": 0.05, "fft_length": 256})
	if _, err := m2.Extract(sine(16000, 1, 100, 1)); err != nil {
		t.Errorf("truncating extract failed: %v", err)
	}
}

func TestMFCCShapeAndDeterminism(t *testing.T) {
	sig := sine(16000, 1.0, 700, 0.5)
	m, err := NewMFCC(map[string]float64{"frame_length": 0.02, "frame_stride": 0.01, "num_cepstral": 13, "num_filters": 32})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Extract(sig)
	if err != nil {
		t.Fatal(err)
	}
	if a.Shape[0] != 99 || a.Shape[1] != 13 {
		t.Fatalf("shape = %v", a.Shape)
	}
	b, _ := m.Extract(sig)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("extraction not deterministic")
		}
	}
}

func TestMFCCDistinguishesTones(t *testing.T) {
	m, _ := NewMFCC(nil)
	low, err := m.Extract(sine(16000, 0.5, 300, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	high, err := m.Extract(sine(16000, 0.5, 4000, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	var dist float64
	for i := range low.Data {
		d := float64(low.Data[i] - high.Data[i])
		dist += d * d
	}
	if math.Sqrt(dist) < 1 {
		t.Errorf("MFCCs of 300Hz and 4kHz tones too close: %g", math.Sqrt(dist))
	}
}

func TestMFCCValidation(t *testing.T) {
	if _, err := NewMFCC(map[string]float64{"num_cepstral": 40, "num_filters": 13}); err == nil {
		t.Error("accepted coeffs > filters")
	}
	if _, err := NewMFCC(map[string]float64{"fft_length": 100}); err == nil {
		t.Error("accepted non-pow2 fft")
	}
	if _, err := NewMFCC(map[string]float64{"frame_stride": 0}); err == nil {
		t.Error("accepted zero stride")
	}
}

func TestMelScaleRoundTrip(t *testing.T) {
	f := func(hz float64) bool {
		hz = math.Abs(math.Mod(hz, 8000))
		back := melInverse(melScale(hz))
		return math.Abs(back-hz) < 1e-6*(1+hz)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMelFilterbankCoverage(t *testing.T) {
	filters := melFilterbank(40, 256, 16000, 0, 0)
	if len(filters) != 40 {
		t.Fatalf("got %d filters", len(filters))
	}
	// Every filter should have non-negative weights <= 1.
	for i, f := range filters {
		for j, w := range f.weights {
			if w < 0 || w > 1.0001 {
				t.Errorf("filter %d weight %d = %g", i, j, w)
			}
		}
	}
	// The union of filters should cover a good portion of the upper bins.
	covered := map[int]bool{}
	for _, f := range filters {
		for j := range f.weights {
			covered[f.start+j] = true
		}
	}
	if len(covered) < 100 {
		t.Errorf("filterbank covers only %d of 129 bins", len(covered))
	}
}

func TestSpectralFeatures(t *testing.T) {
	// 3-axis signal: one sine axis, one noisy axis, one constant axis.
	rate, n := 100, 512
	rng := rand.New(rand.NewSource(3))
	data := make([]float32, n*3)
	for i := 0; i < n; i++ {
		data[i*3+0] = float32(math.Sin(2 * math.Pi * 10 * float64(i) / float64(rate)))
		data[i*3+1] = float32(rng.NormFloat64())
		data[i*3+2] = 5
	}
	sig := Signal{Data: data, Rate: rate, Axes: 3}
	s, err := NewSpectral(map[string]float64{"fft_length": 64, "num_peaks": 8})
	if err != nil {
		t.Fatal(err)
	}
	feat, err := s.Extract(sig)
	if err != nil {
		t.Fatal(err)
	}
	fpa := s.featuresPerAxis()
	if len(feat.Data) != 3*fpa {
		t.Fatalf("got %d features, want %d", len(feat.Data), 3*fpa)
	}
	// Constant axis: zero std.
	if feat.Data[2*fpa] != 0 {
		t.Errorf("constant axis std = %g, want 0", feat.Data[2*fpa])
	}
	// Sine axis std ~ 0.707.
	if math.Abs(float64(feat.Data[0])-0.707) > 0.05 {
		t.Errorf("sine axis std = %g, want ~0.707", feat.Data[0])
	}
}

func TestSpectralValidation(t *testing.T) {
	if _, err := NewSpectral(map[string]float64{"fft_length": 63}); err == nil {
		t.Error("accepted non-pow2")
	}
	if _, err := NewSpectral(map[string]float64{"num_peaks": 0}); err == nil {
		t.Error("accepted zero peaks")
	}
	if _, err := NewSpectral(map[string]float64{"num_peaks": 99, "fft_length": 64}); err == nil {
		t.Error("accepted peaks > fft/2")
	}
	s, _ := NewSpectral(nil)
	if _, err := s.OutputShape(Signal{Data: make([]float32, 10), Axes: 1, Rate: 100}); err == nil {
		t.Error("accepted short signal")
	}
}

func TestRawBlock(t *testing.T) {
	r, err := NewRaw(map[string]float64{"scale_axes": 2, "decimate": 2})
	if err != nil {
		t.Fatal(err)
	}
	sig := Signal{Data: []float32{1, 2, 3, 4, 5}, Rate: 10, Axes: 1}
	out, err := r.Extract(sig)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 6, 10}
	if len(out.Data) != 3 {
		t.Fatalf("len = %d", len(out.Data))
	}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("out[%d] = %g, want %g", i, out.Data[i], want[i])
		}
	}
	if _, err := NewRaw(map[string]float64{"decimate": 0}); err == nil {
		t.Error("accepted decimate=0")
	}
}

func TestFlattenBlock(t *testing.T) {
	f, _ := NewFlatten(nil)
	sig := Signal{Data: []float32{1, 2, 3, 4}, Rate: 10, Axes: 1}
	out, err := f.Extract(sig)
	if err != nil {
		t.Fatal(err)
	}
	// min=1 max=4 mean=2.5 rms=sqrt(7.5) std=sqrt(1.25)
	if out.Data[0] != 1 || out.Data[1] != 4 {
		t.Errorf("min/max = %g/%g", out.Data[0], out.Data[1])
	}
	if math.Abs(float64(out.Data[2])-2.5) > 1e-6 {
		t.Errorf("mean = %g", out.Data[2])
	}
	if math.Abs(float64(out.Data[3])-math.Sqrt(7.5)) > 1e-5 {
		t.Errorf("rms = %g", out.Data[3])
	}
	if math.Abs(float64(out.Data[4])-math.Sqrt(1.25)) > 1e-5 {
		t.Errorf("std = %g", out.Data[4])
	}
}

func TestImageBlockResize(t *testing.T) {
	// 4x4 RGB image downscaled to 2x2.
	src := Signal{Width: 4, Height: 4, Axes: 3, Data: make([]float32, 4*4*3)}
	for i := range src.Data {
		src.Data[i] = 128
	}
	im, err := NewImage(map[string]float64{"width": 2, "height": 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := im.Extract(src)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal([]int{2, 2, 3}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	for i, v := range out.Data {
		if math.Abs(float64(v)-128.0/255) > 1e-5 {
			t.Errorf("pixel %d = %g, want %g", i, v, 128.0/255)
		}
	}
}

func TestImageGrayscale(t *testing.T) {
	src := Signal{Width: 2, Height: 2, Axes: 3, Data: make([]float32, 12)}
	for p := 0; p < 4; p++ {
		src.Data[p*3+0] = 255 // pure red
	}
	im, _ := NewImage(map[string]float64{"width": 2, "height": 2, "grayscale": 1})
	out, err := im.Extract(src)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal([]int{2, 2, 1}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	for _, v := range out.Data {
		if math.Abs(float64(v)-0.299) > 1e-4 {
			t.Errorf("gray = %g, want 0.299", v)
		}
	}
}

func TestImageUpscaleGradientMonotone(t *testing.T) {
	// Horizontal gradient must stay monotone after upscale.
	src := Signal{Width: 4, Height: 1, Axes: 1, Data: []float32{0, 85, 170, 255}}
	im, _ := NewImage(map[string]float64{"width": 8, "height": 1})
	out, err := im.Extract(src)
	if err != nil {
		t.Fatal(err)
	}
	for x := 1; x < 8; x++ {
		if out.Data[x*3] < out.Data[(x-1)*3] {
			t.Errorf("gradient not monotone at %d: %g < %g", x, out.Data[x*3], out.Data[(x-1)*3])
		}
	}
}

func TestImageValidation(t *testing.T) {
	if _, err := NewImage(map[string]float64{"width": 0}); err == nil {
		t.Error("accepted zero width")
	}
	im, _ := NewImage(nil)
	if _, err := im.OutputShape(Signal{Width: 2, Height: 2, Axes: 4, Data: make([]float32, 16)}); err == nil {
		t.Error("accepted 4 channels")
	}
	if _, err := im.OutputShape(Signal{Width: 2, Height: 2, Axes: 3, Data: make([]float32, 5)}); err == nil {
		t.Error("accepted wrong data length")
	}
	if _, err := im.OutputShape(Signal{Axes: 3}); err == nil {
		t.Error("accepted missing dims")
	}
}

func TestCostsArePositive(t *testing.T) {
	sig := sine(16000, 1, 440, 1)
	img := Signal{Width: 64, Height: 64, Axes: 3, Data: make([]float32, 64*64*3)}
	blocks := []struct {
		b   Block
		sig Signal
	}{}
	mfe, _ := NewMFE(nil)
	mfcc, _ := NewMFCC(nil)
	spec, _ := NewSpectral(nil)
	raw, _ := NewRaw(nil)
	fl, _ := NewFlatten(nil)
	im, _ := NewImage(map[string]float64{"width": 32, "height": 32})
	blocks = append(blocks,
		struct {
			b   Block
			sig Signal
		}{mfe, sig}, struct {
			b   Block
			sig Signal
		}{mfcc, sig}, struct {
			b   Block
			sig Signal
		}{spec, sig}, struct {
			b   Block
			sig Signal
		}{raw, sig}, struct {
			b   Block
			sig Signal
		}{fl, sig}, struct {
			b   Block
			sig Signal
		}{im, img})
	for _, tc := range blocks {
		c := tc.b.Cost(tc.sig)
		total := c.FloatOps + c.MACs + c.FFTButterflies + c.TranscOps
		if total <= 0 {
			t.Errorf("%s: zero cost", tc.b.Name())
		}
		if tc.b.RAM(tc.sig) <= 0 {
			t.Errorf("%s: zero RAM", tc.b.Name())
		}
	}
}

func TestFrameCount(t *testing.T) {
	cases := []struct {
		n, fl, st, want int
	}{
		{16000, 320, 160, 99},
		{100, 200, 50, 0},
		{320, 320, 160, 1},
		{480, 320, 160, 2},
		{100, 0, 10, 0},
		{100, 10, 0, 0},
	}
	for _, c := range cases {
		if got := frameCount(c.n, c.fl, c.st); got != c.want {
			t.Errorf("frameCount(%d,%d,%d) = %d, want %d", c.n, c.fl, c.st, got, c.want)
		}
	}
}

func TestStandardizeColumns(t *testing.T) {
	data := []float32{1, 10, 2, 20, 3, 30}
	standardizeColumns(data, 3, 2)
	for c := 0; c < 2; c++ {
		var mean float64
		for r := 0; r < 3; r++ {
			mean += float64(data[r*2+c])
		}
		if math.Abs(mean/3) > 1e-5 {
			t.Errorf("col %d mean = %g", c, mean/3)
		}
	}
}

func BenchmarkMFCC1s16k(b *testing.B) {
	sig := sine(16000, 1, 440, 0.5)
	m, _ := NewMFCC(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Extract(sig)
	}
}

func BenchmarkMFE1s16k(b *testing.B) {
	sig := sine(16000, 1, 440, 0.5)
	m, _ := NewMFE(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Extract(sig)
	}
}

func BenchmarkImageResize96(b *testing.B) {
	src := Signal{Width: 160, Height: 120, Axes: 3, Data: make([]float32, 160*120*3)}
	im, _ := NewImage(map[string]float64{"width": 96, "height": 96})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		im.Extract(src)
	}
}

// BenchmarkMFCCStagesKWS splits a 1 s keyword-spotting MFCC extraction
// (16 kHz, 32 ms frames every 20 ms, 512-point FFT, 32 filters, 10
// coefficients: 49 frames) into its stages, each timed over all frames
// on inputs the previous stage produced. "spectrum" is the windowed
// power spectrum; internal/fft's benchmark of the same name splits it
// into load, butterflies and power.
func BenchmarkMFCCStagesKWS(b *testing.B) {
	m, err := NewMFCC(map[string]float64{"frame_length": 0.032, "frame_stride": 0.02, "num_filters": 32, "num_cepstral": 10, "fft_length": 512})
	if err != nil {
		b.Fatal(err)
	}
	sig := noiseSignal(rand.New(rand.NewSource(1)), 16000, 16000, 1)
	if _, err := m.Extract(sig); err != nil {
		b.Fatal(err)
	}
	rt := m.rt.Load()
	st := rt.pool.Get().(*audioScratch)
	defer rt.pool.Put(st)
	frames, nf, nc := frameCount(len(sig.Data), rt.frameLen, rt.stride), m.NumFilters, m.NumCoeffs
	power := make([]float32, frames*len(st.power))
	energy := make([]float32, frames*nf)
	logE := make([]float32, frames*nf)
	coeffs := make([]float32, frames*nc)
	for i := 0; i < frames; i++ {
		rt.powerFrame(sig.Data, i*rt.stride, st)
		copy(power[i*len(st.power):], st.power)
		applyFilterbankInto(energy[i*nf:], st.power, rt.filters)
		for j, e := range energy[i*nf : (i+1)*nf] {
			logE[i*nf+j] = logSafe(e)
		}
		rt.cepstrum(coeffs[i*nc:(i+1)*nc], logE[i*nf:(i+1)*nf])
	}
	stages := []struct {
		name string
		run  func()
	}{
		{"spectrum", func() {
			for i := 0; i < frames; i++ {
				rt.powerFrame(sig.Data, i*rt.stride, st)
			}
		}},
		{"filterbank", func() {
			for i := 0; i < frames; i++ {
				applyFilterbankInto(st.work, power[i*len(st.power):(i+1)*len(st.power)], rt.filters)
			}
		}},
		{"log10", func() {
			for i := 0; i < frames; i++ {
				for j, e := range energy[i*nf : (i+1)*nf] {
					st.work[j] = logSafe(e)
				}
			}
		}},
		{"dct", func() {
			for i := 0; i < frames; i++ {
				rt.cepstrum(coeffs[i*nc:(i+1)*nc], logE[i*nf:(i+1)*nf])
			}
		}},
		{"standardize", func() { standardizeColumns(coeffs, frames, nc) }},
		{"extract", func() {
			if _, err := m.Extract(sig); err != nil {
				b.Fatal(err)
			}
		}},
	}
	for _, s := range stages {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.run()
			}
		})
	}
}

package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	cases := map[int]bool{
		-4: false, 0: false, 1: true, 2: true, 3: false,
		4: true, 255: false, 256: true, 1024: true,
	}
	for n, want := range cases {
		if got := IsPow2(n); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 256: 256, 257: 512}
	for n, want := range cases {
		if got := nextPow2(n); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestForwardRejectsNonPow2(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err == nil {
		t.Fatal("Forward accepted length 3")
	}
	if err := inverse(make([]complex128, 12)); err == nil {
		t.Fatal("inverse accepted length 12")
	}
}

func TestForwardImpulse(t *testing.T) {
	// FFT of a unit impulse is flat ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestForwardSingleTone(t *testing.T) {
	// A pure cosine at bin k concentrates energy at bins k and n-k.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(k)*float64(i)/n), 0)
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k || i == n-k {
			if math.Abs(mag-n/2) > 1e-9 {
				t.Errorf("bin %d magnitude = %g, want %g", i, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude = %g, want ~0", i, mag)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(7)) // 4..512
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := Forward(x); err != nil {
			return false
		}
		if err := inverse(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 128
		a := complex(rng.NormFloat64(), 0)
		x := make([]complex128, n)
		y := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = a*x[i] + y[i]
		}
		Forward(x)
		Forward(y)
		Forward(sum)
		for i := range x {
			if cmplx.Abs(sum[i]-(a*x[i]+y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/n) sum |X|^2
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 256
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		Forward(x)
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= n
		return math.Abs(timeEnergy-freqEnergy) < 1e-6*(1+timeEnergy)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRealForwardLength(t *testing.T) {
	bins, err := realForward(make([]float32, 300)) // pads to 512
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 257 {
		t.Fatalf("got %d bins, want 257", len(bins))
	}
}

func TestSpectrumDC(t *testing.T) {
	x := make([]float32, 16)
	for i := range x {
		x[i] = 2
	}
	spec, err := spectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(spec[0])-32) > 1e-6 {
		t.Errorf("DC bin = %g, want 32", spec[0])
	}
	for i := 1; i < len(spec); i++ {
		if spec[i] > 1e-6 {
			t.Errorf("bin %d = %g, want 0", i, spec[i])
		}
	}
}

func TestPowerSpectrumMatchesSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float32, 128)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	spec, _ := spectrum(x)
	pow, _ := PowerSpectrum(x)
	for i := range spec {
		want := float64(spec[i]) * float64(spec[i]) / 128
		if math.Abs(float64(pow[i])-want) > 1e-4*(1+want) {
			t.Errorf("bin %d: power %g, want %g", i, pow[i], want)
		}
	}
}

func TestWindowCoefficients(t *testing.T) {
	for _, w := range []Window{Rectangular, Hamming, Hann} {
		c := w.Coefficients(64)
		if len(c) != 64 {
			t.Fatalf("%v: got %d coeffs", w, len(c))
		}
		for i, v := range c {
			if v < 0 || v > 1.0001 {
				t.Errorf("%v coeff %d = %g out of [0,1]", w, i, v)
			}
		}
	}
	// Hann endpoints are zero; Hamming endpoints are 0.08.
	hann := Hann.Coefficients(64)
	if hann[0] > 1e-6 {
		t.Errorf("hann[0] = %g, want 0", hann[0])
	}
	ham := Hamming.Coefficients(64)
	if math.Abs(float64(ham[0])-0.08) > 1e-6 {
		t.Errorf("hamming[0] = %g, want 0.08", ham[0])
	}
}

func TestWindowStrings(t *testing.T) {
	if Rectangular.String() != "rectangular" || Hamming.String() != "hamming" || Hann.String() != "hann" {
		t.Error("window String() mismatch")
	}
	if Window(99).String() == "" {
		t.Error("unknown window should still format")
	}
}

func TestDCTIIConstantSignal(t *testing.T) {
	// DCT-II of a constant signal has all energy in coefficient 0.
	x := []float32{3, 3, 3, 3, 3, 3, 3, 3}
	c := DCTII(x, 8)
	want := 3 * math.Sqrt(8)
	if math.Abs(float64(c[0])-want) > 1e-5 {
		t.Errorf("c0 = %g, want %g", c[0], want)
	}
	for i := 1; i < len(c); i++ {
		if math.Abs(float64(c[i])) > 1e-5 {
			t.Errorf("c%d = %g, want 0", i, c[i])
		}
	}
}

func TestDCTIIOrthonormalEnergy(t *testing.T) {
	// Orthonormal DCT preserves energy when all coefficients are kept.
	rng := rand.New(rand.NewSource(11))
	x := make([]float32, 40)
	var in float64
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		in += float64(x[i]) * float64(x[i])
	}
	c := DCTII(x, 40)
	var out float64
	for _, v := range c {
		out += float64(v) * float64(v)
	}
	if math.Abs(in-out) > 1e-4*(1+in) {
		t.Errorf("energy in %g != out %g", in, out)
	}
}

func TestDCTIIKTruncation(t *testing.T) {
	x := make([]float32, 16)
	if got := len(DCTII(x, 5)); got != 5 {
		t.Errorf("got %d coeffs, want 5", got)
	}
	if got := len(DCTII(x, 99)); got != 16 {
		t.Errorf("got %d coeffs, want clamp to 16", got)
	}
}

func BenchmarkFFT256(b *testing.B) {
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(float64(i%17), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkSpectrum512(b *testing.B) {
	x := make([]float32, 512)
	for i := range x {
		x[i] = float32(i % 31)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spectrum(x)
	}
}

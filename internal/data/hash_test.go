package data

import (
	"math"
	"testing"

	"edgepulse/internal/dsp"
)

// TestSampleIDsPinned pins the content-addressed sample ID: every
// persisted registry and every deduplicating ingest path keys on it, so
// a change to how hash feeds SHA-256 must not move a single ID. The
// lengths straddle the encoder's block size, and the values include
// bit patterns (NaN, -0, ±Inf, subnormals) a float comparison would
// blur.
func TestSampleIDsPinned(t *testing.T) {
	signal := func(n int) []float32 {
		out := make([]float32, n)
		specials := []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32}
		for i := range out {
			if i%97 == 3 {
				out[i] = specials[(i/97)%len(specials)]
				continue
			}
			out[i] = float32(math.Sin(float64(i)*0.37)) * float32(1+i%11)
		}
		return out
	}
	cases := []struct {
		n          int
		rate, axes int
		want       string
	}{
		{0, 0, 0, "33455a4e3f7832a0"},
		{1, 16000, 1, "c2aea449cc30157b"},
		{1023, 100, 3, "b7f594d03f54c414"},
		{1024, 16000, 1, "8def54c048fd8824"},
		{1025, 16000, 1, "f0511fee944cc3f7"},
		{16000, 16000, 1, "d0cf9399b8313250"},
		{160 * 120 * 3, 0, 3, "5302482fbc307580"},
	}
	for _, c := range cases {
		s := &Sample{Name: "take.wav", Label: "yes", Signal: dsp.Signal{Data: signal(c.n), Rate: c.rate, Axes: c.axes}}
		if got := s.hash(); got != c.want {
			t.Errorf("%d values at %d Hz x %d: ID %s, want %s", c.n, c.rate, c.axes, got, c.want)
		}
	}
}

func BenchmarkSampleHash(b *testing.B) {
	s := &Sample{Name: "take.wav", Label: "yes", Signal: dsp.Signal{Data: make([]float32, 16000), Rate: 16000, Axes: 1}}
	for i := range s.Signal.Data {
		s.Signal.Data[i] = float32(i%200) - 100
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.hash()
	}
}

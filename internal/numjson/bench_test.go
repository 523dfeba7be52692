package numjson_test

import (
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/numjson"
	"edgepulse/internal/simd/simdtest"
	"edgepulse/internal/synth"
)

// BenchmarkAppendFloat32 formats one second of 16 kHz audio — what a
// classify body or a stream push holds — as a JSON array, on three kinds
// of sample: a synthetic keyword (the repository benchmark's input),
// int16 PCM scaled to ±1 (what a microphone produces; k/32768 is as
// long in shortest float32 digits as any other sample), and any finite
// bit pattern (every exponent, nine digits mostly). Each beside strconv
// in encoding/json's layout, which is what AppendFloats called until it
// had a float32 formatter.
func BenchmarkAppendFloat32(b *testing.B) {
	const n = 16000
	rng := rand.New(rand.NewSource(1))
	sig, err := synth.Keyword("yes", n, 1.0, 0.05, rng)
	if err != nil {
		b.Fatal(err)
	}
	pcm, anyBits := make([]float32, n), make([]float32, 0, n)
	for i := range pcm {
		pcm[i] = float32(int16(math.Round(float64(sig.Data[i])*32767))) / 32768
	}
	for len(anyBits) < n {
		if v := math.Float32frombits(rng.Uint32()); v == v && !math.IsInf(float64(v), 0) {
			anyBits = append(anyBits, v)
		}
	}
	dst := make([]byte, 0, 24*n)
	for _, in := range []struct {
		name string
		vals []float32
	}{{"Keyword", sig.Data}, {"PCM16", pcm}, {"AnyBits", anyBits}} {
		perFloat := func(b *testing.B, out []byte) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/float")
			b.ReportMetric(float64(len(out))/n, "B/float")
		}
		b.Run(in.name+"/Schubfach", func(b *testing.B) {
			var out []byte
			for i := 0; i < b.N; i++ {
				if out, err = numjson.AppendFloats(dst, in.vals); err != nil {
					b.Fatal(err)
				}
			}
			perFloat(b, out)
		})
		b.Run(in.name+"/Strconv", func(b *testing.B) {
			var out []byte
			for i := 0; i < b.N; i++ {
				out = append(dst, '[')
				for j, v := range in.vals {
					if j > 0 {
						out = append(out, ',')
					}
					out = numjson.AppendFloat32Strconv(out, math.Float32bits(v))
				}
				out = append(out, ']')
			}
			perFloat(b, out)
		})
	}
}

// keywordBodies is one second of 16 kHz audio, the synthetic keyword of
// BenchmarkAppendFloat32, in the two shapes it travels in: a classify
// body's float32 array, and a signed acquisition document's values — the
// same samples widened to float64, 16 or 17 digits, one row each.
func keywordBodies(b *testing.B) (samples []float32, body32, rows []byte) {
	sig, err := synth.Keyword("yes", 16000, 1.0, 0.05, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	if body32, err = numjson.AppendFloats(nil, sig.Data); err != nil {
		b.Fatal(err)
	}
	return sig.Data, body32, appendRows(nil, sig.Data)
}

// appendRows writes samples as ingest.SignJSON writes an acquisition's
// values: one float64 row each.
func appendRows(dst []byte, samples []float32) []byte {
	dst = append(dst, '[')
	for i, v := range samples {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, _ = numjson.AppendFloats(dst, []float64{float64(v)})
	}
	return append(dst, ']')
}

func nsPerFloat(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/float")
}

// BenchmarkAppendFloats writes the bodies of BenchmarkScanFloats:
// Keyword32 as a classify body (the float32 formatter), Acquisition64
// row by row as ingest.SignJSON does (the float64 formatter).
func BenchmarkAppendFloats(b *testing.B) {
	samples, body32, rows := keywordBodies(b)
	b.Run("Keyword32", func(b *testing.B) {
		dst := make([]byte, 0, len(body32))
		for i := 0; i < b.N; i++ {
			if out, err := numjson.AppendFloats(dst, samples); err != nil || len(out) != len(body32) {
				b.Fatalf("wrote %d bytes of %d (%v)", len(out), len(body32), err)
			}
		}
		nsPerFloat(b, len(samples))
	})
	b.Run("Acquisition64", func(b *testing.B) {
		dst := make([]byte, 0, len(rows))
		for i := 0; i < b.N; i++ {
			if out := appendRows(dst, samples); len(out) != len(rows) {
				b.Fatalf("wrote %d bytes of %d", len(out), len(rows))
			}
		}
		nsPerFloat(b, len(samples))
	})
}

// BenchmarkScanFloats reads the keyword back from JSON: Keyword32 as a
// classify body's float32 array (9 digits at most: the exact path) on
// each simd tier — avx512 (simd.ParseF32's kernel where the host has
// it), avx2 and go (ScanFloat alone); AnyBits32 as an array of any
// finite float32 bit patterns, mostly nine digits with an exponent,
// which the kernel declines token by token, so that what falling back
// costs shows; and Acquisition64 as a signed acquisition document's
// values, scanned row by row into one array as ingest.Verify does (the
// Eisel–Lemire tier).
func BenchmarkScanFloats(b *testing.B) {
	samples, body32, rows := keywordBodies(b)
	n := len(samples)
	anyBits := make([]float32, 0, n)
	rng := rand.New(rand.NewSource(1))
	for len(anyBits) < n {
		if v := math.Float32frombits(rng.Uint32()); v == v && !math.IsInf(float64(v), 0) {
			anyBits = append(anyBits, v)
		}
	}
	anyBody, err := numjson.AppendFloats(nil, anyBits)
	if err != nil {
		b.Fatal(err)
	}
	scan32 := func(body []byte) func(b *testing.B) {
		return func(b *testing.B) {
			out := make([]float32, 0, numjson.MaxFloats(body))
			for i := 0; i < b.N; i++ {
				if got, _, ok := numjson.ScanFloats(body, 0, out); !ok || len(got) != n {
					b.Fatalf("scanned %d of %d (ok=%v)", len(got), n, ok)
				}
			}
			nsPerFloat(b, n)
		}
	}
	b.Run("Keyword32", func(b *testing.B) { simdtest.ForEachTier(b, scan32(body32)) })
	b.Run("AnyBits32", scan32(anyBody))
	b.Run("Acquisition64", func(b *testing.B) {
		flat := make([]float64, 0, n)
		row := func(i int) (int, bool) {
			var ok bool
			flat, i, ok = numjson.ScanFloats(rows, i, flat)
			return i, ok
		}
		for i := 0; i < b.N; i++ {
			flat = flat[:0]
			if _, ok := numjson.Array(rows, 0, row); !ok || len(flat) != n {
				b.Fatalf("scanned %d of %d (ok=%v)", len(flat), n, ok)
			}
		}
		nsPerFloat(b, n)
	})
}

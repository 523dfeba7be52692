package numjson_test

import (
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/numjson"
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

// BenchmarkScanFloats reads one second of 16 kHz audio back from JSON,
// the synthetic keyword of BenchmarkAppendFloat32: Keyword32 as a
// classify body's float32 array (9 digits at most: the exact path),
// Acquisition64 as a signed acquisition document's values — the same
// samples widened to float64, 16 or 17 digits, one row each, scanned
// row by row into one array as ingest.Verify does (the Eisel–Lemire
// tier).
func BenchmarkScanFloats(b *testing.B) {
	const n = 16000
	sig, err := synth.Keyword("yes", n, 1.0, 0.05, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	body32, err := numjson.AppendFloats(nil, sig.Data)
	if err != nil {
		b.Fatal(err)
	}
	rows := []byte{'['}
	for i, v := range sig.Data {
		if i > 0 {
			rows = append(rows, ',')
		}
		rows, _ = numjson.AppendFloats(rows, []float64{float64(v)})
	}
	rows = append(rows, ']')
	perFloat := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/float")
	}

	b.Run("Keyword32", func(b *testing.B) {
		out := make([]float32, 0, n)
		for i := 0; i < b.N; i++ {
			if got, _, ok := numjson.ScanFloats(body32, 0, out); !ok || len(got) != n {
				b.Fatalf("scanned %d of %d (ok=%v)", len(got), n, ok)
			}
		}
		perFloat(b)
	})
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
		perFloat(b)
	})
}

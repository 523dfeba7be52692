//go:build exhaustive

package numjson

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"edgepulse/internal/simd"
)

// exhaustFloat32 runs a check on every one of the 2^32 float32 bit
// patterns and returns how many failed, stopping after 20. The 512 sign
// × exponent blocks of 2^23 patterns are shared out over GOMAXPROCS
// goroutines, each with the check newCheck gives it (and whatever buffers
// that keeps), which sees a block's patterns in order.
func exhaustFloat32(newCheck func() func(b uint32) bool) int64 {
	var next, diffs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check := newCheck()
			for {
				block := next.Add(1) - 1
				if block >= 512 || diffs.Load() > 20 {
					return
				}
				for frac := uint32(0); frac < 1<<23; frac++ {
					if !check(uint32(block)<<23|frac) && diffs.Add(1) > 20 {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return diffs.Load()
}

// exhaustiveTiers are avx512, where ShortestF32 and ParseF32 run their
// kernels, and go, their reference: numjson's avx2 tier is its go tier.
var exhaustiveTiers = []simd.Tier{simd.TierAVX512, simd.TierGo}

// TestAppendFloat32Exhaustive holds the float32 formatter to strconv on
// every one of the 2^32 float32 bit patterns, on both tiers: the same
// bytes in the layout encoding/json chooses, through AppendFloats in
// batches — where the avx512 tier runs, its kernel writes every record —
// and through AppendFloat(…, 32) one value at a time, and a refusal
// exactly for NaN and ±Inf.
//
//	go test -tags exhaustive -run Exhaustive ./internal/numjson
//
// This one takes about 8 min of wall time per tier on two cores (strconv,
// its reference, is most of it), the float32 scan's 4 (5 on the Go tier), the float64
// formatter's 9 (strconv's float64 digits are the slower half) and the
// float64 scan's 6: give the four -timeout 60m.
func TestAppendFloat32Exhaustive(t *testing.T) {
	for _, tier := range exhaustiveTiers {
		t.Run(tier.String(), func(t *testing.T) {
			defer simd.SetTier(tier)()
			diffs := exhaustFloat32(func() func(uint32) bool {
				var c float32Checker
				return func(b uint32) bool {
					if msg := c.check(b, false); msg != "" {
						t.Error(msg)
						return false
					}
					return true
				}
			})
			t.Logf("%d mismatches", diffs)
		})
	}
}

// TestScanFloat32Exhaustive reads every finite float32 back: written by
// AppendFloats in batches of checkBatch, as a classify body's array, and
// scanned by ScanFloats into the same bits, on both tiers. The array sits
// between 16 bytes of whitespace and 128, with room for eight values more
// than it holds, so that where the avx512 tier runs, simd.ParseF32's
// kernel reads every token it takes — all the plain ones of up to 16
// bytes — inside an array, and ScanFloat the rest.
func TestScanFloat32Exhaustive(t *testing.T) {
	const lead, pad = 16, 128
	for _, tier := range exhaustiveTiers {
		t.Run(tier.String(), func(t *testing.T) {
			defer simd.SetTier(tier)()
			diffs := exhaustFloat32(func() func(uint32) bool {
				vals, back := make([]float32, 0, checkBatch), make([]float32, 0, checkBatch+8)
				body := make([]byte, lead, lead+16*checkBatch+pad)
				for k := range body {
					body[k] = ' '
				}
				return func(b uint32) bool {
					if b>>23&0xff == 0xff {
						return true // NaN and ±Inf have no JSON spelling
					}
					if vals = append(vals, math.Float32frombits(b)); len(vals) < checkBatch {
						return true
					}
					defer func() { vals = vals[:0] }()
					data, err := AppendFloats(body[:lead], vals)
					if err != nil {
						t.Error(err)
						return false
					}
					end := len(data)
					data = append(data, body[:pad]...)
					got, next, ok := ScanFloats(data, lead, back[:0])
					if !ok || next != end || len(got) != len(vals) {
						t.Errorf("batch ending %#08x: scanned %d of %d values (ok=%v, next=%d of %d)", b, len(got), len(vals), ok, next, end)
						return false
					}
					for k, v := range vals {
						if math.Float32bits(got[k]) != math.Float32bits(v) {
							t.Errorf("%#08x: read back %#08x", math.Float32bits(v), math.Float32bits(got[k]))
							return false
						}
					}
					return true
				}
			})
			t.Logf("%d mismatches", diffs)
		})
	}
}

// TestAppendFloat64OfFloat32Exhaustive holds the float64 formatter to
// strconv on every finite float32 widened to float64 — every value a
// float32 device puts into an acquisition document: AppendFloat(…, 64)
// writes the bytes of the strconv path, whether the value is in the
// power table (from 2^-97 up) or not.
func TestAppendFloat64OfFloat32Exhaustive(t *testing.T) {
	diffs := exhaustFloat32(func() func(uint32) bool {
		var got, want []byte
		return func(b uint32) bool {
			if b>>23&0xff == 0xff {
				return true // NaN and ±Inf have no JSON spelling
			}
			v := float64(math.Float32frombits(b))
			got = AppendFloat(got[:0], v, 64)
			if want = appendFloat64Strconv(want[:0], v); string(got) != string(want) {
				t.Errorf("%#08x: %s, strconv %s", b, got, want)
				return false
			}
			return true
		}
	})
	t.Logf("%d mismatches", diffs)
}

// TestScanFloat64OfFloat32Exhaustive holds ScanFloat at bitSize 64 to
// the round trip on every finite float32 widened to float64 and written
// by AppendFloat(…, 64), as ingest.SignJSON writes an acquisition's
// values: the float64 read back has the same bits. strconv guarantees
// that round trip, so this is ScanFloat agreeing with strconv on every
// value a float32 device can send — through the exact path, the
// Eisel–Lemire tier or strconv itself.
func TestScanFloat64OfFloat32Exhaustive(t *testing.T) {
	diffs := exhaustFloat32(func() func(uint32) bool {
		var tok []byte
		return func(b uint32) bool {
			if b>>23&0xff == 0xff {
				return true // NaN and ±Inf have no JSON spelling
			}
			v := float64(math.Float32frombits(b))
			tok = AppendFloat(tok[:0], v, 64)
			back, next, ok := ScanFloat(tok, 0, 64)
			if !ok || next != len(tok) || math.Float64bits(back) != math.Float64bits(v) {
				t.Errorf("%#08x: wrote %s, read back %#x (ok=%v, next=%d), want %#x",
					b, tok, math.Float64bits(back), ok, next, math.Float64bits(v))
				return false
			}
			return true
		}
	})
	t.Logf("%d mismatches", diffs)
}

package simd

import (
	"math"
	"math/big"
	"testing"
)

// requantBig is Requant.Apply as its comment defines it, in integers
// that cannot overflow and with each rounding step written out: the
// doubling high multiply ⌊(a·2^ls·Mult + nudge) / 2^31⌋ with the nudge
// 2^30 for a product >= 0 and 1-2^30 below, the rounding right shift
// ⌊(high + 2^(rs-1)) / 2^rs⌋, int32 saturation, the zero point added
// with int32 wrap, the clamp.
func requantBig(q Requant, a int32) int8 {
	ls, rs := uint(max(q.Shift, 0)), uint(max(-q.Shift, 0))
	prod := big.NewInt(int64(a))
	prod.Mul(prod.Lsh(prod, ls), big.NewInt(int64(q.Mult)))
	nudge := int64(1) << 30
	if prod.Sign() < 0 {
		nudge = 1 - nudge
	}
	high := prod.Add(prod, big.NewInt(nudge))
	high.Rsh(high, 31) // Rsh of a negative big.Int rounds down, as >> does
	if rs > 0 {
		high.Add(high, new(big.Int).Lsh(big.NewInt(1), rs-1))
		high.Rsh(high, rs)
	}
	sat := int32(math.MaxInt32)
	switch {
	case high.Cmp(big.NewInt(math.MinInt32)) < 0:
		sat = math.MinInt32
	case high.Cmp(big.NewInt(math.MaxInt32)) <= 0:
		sat = int32(high.Int64())
	}
	return int8(min(max(sat+q.ZP, q.Lo), q.Hi))
}

// FuzzRequantI8 holds the three requantizations in this package — the
// scalar Requant.Apply, RequantI8's vector path and the copy of it that
// DepthwiseI8 runs on its accumulator registers — to requantBig over the
// parameter space a quantized model can produce: a Q31 multiplier
// (non-negative), shifts of both signs, any zero point, any int8 clamp,
// and accumulators that include the int32 extremes. Under a left shift
// the accumulator is one that survives it, which is TFLite's
// precondition too.
func FuzzRequantI8(f *testing.F) {
	f.Add(int32(1412090957), int8(-6), int32(-4), int8(-128), int8(127), int32(12345), int32(-99999))
	f.Add(int32(math.MaxInt32), int8(0), int32(-5), int8(-7), int8(127), int32(math.MinInt32), int32(math.MaxInt32))
	f.Add(int32(1<<30), int8(-1), int32(127), int8(0), int8(64), int32(102), int32(-101))
	f.Add(int32(1500000000), int8(2), int32(5), int8(-128), int8(127), int32(1<<29-1), int32(-(1 << 29)))
	f.Add(int32(1999999999), int8(-31), int32(math.MinInt32), int8(-128), int8(127), int32(1<<30), int32(-(1 << 30)))
	f.Fuzz(func(t *testing.T, mult int32, shift int8, zp int32, lo, hi int8, a0, a1 int32) {
		if mult < 0 {
			mult = ^mult
		}
		q := Requant{Mult: mult, Shift: int(shift) % 32, ZP: zp, Lo: int32(min(lo, hi)), Hi: int32(max(lo, hi))}
		// Two runs of eight for the vector path and a tail for the scalar one.
		accs := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1, 1 << 30, -(1 << 30), a0, a1}
		for len(accs) < 19 {
			accs = append(accs, accs[len(accs)-1]*31+accs[len(accs)-2]) // wraps: spreads a0, a1 over int32
		}
		want := make([]int8, len(accs))
		for i := range accs {
			if q.Shift > 0 {
				accs[i] >>= q.Shift
			}
			want[i] = requantBig(q, accs[i])
			if got := q.Apply(accs[i]); got != want[i] {
				t.Fatalf("%+v.Apply(%d) = %d, want %d", q, accs[i], got, want[i])
			}
		}
		zeros := make([]int8, len(accs))
		withSIMD(t, func(t *testing.T, on bool) {
			got := make([]int8, len(accs))
			RequantI8(got, accs, q)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("RequantI8 %+v acc=%d: %d, want %d (simd=%v avx512=%v)", q, accs[i], got[i], want[i], on, haveAVX512)
				}
			}
			// One pixel, one tap of weight zero: the accumulators are the
			// biases, requantized where DepthwiseI8 keeps them.
			clear(got)
			DepthwiseI8(got, accs, zeros, zeros, Tile{P: 1, N: 1, Rows: 1}, 0, q)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("DepthwiseI8 %+v acc=%d: %d, want %d (simd=%v avx512=%v)", q, accs[i], got[i], want[i], on, haveAVX512)
				}
			}
		})
	})
}

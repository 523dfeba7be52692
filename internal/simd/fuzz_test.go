package simd_test

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	. "edgepulse/internal/simd"
	"edgepulse/internal/simd/simdtest"
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
		zeroW, zeroIn := make([]int16, 2*len(accs)), make([]uint32, len(accs))
		simdtest.ForEachTier(t, func(t *testing.T) {
			got := make([]int8, len(accs))
			RequantI8(got, accs, q)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("RequantI8 %+v acc=%d: %d, want %d", q, accs[i], got[i], want[i])
				}
			}
			// One pixel, one tap pair of weight zero: the accumulators are
			// the biases, requantized where DepthwiseI8 keeps them.
			clear(got)
			DepthwiseI8(got, accs, zeroW, zeroIn, Tile{P: 1, N: 1, Rows: 1, WRowStride: len(accs)}, q)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("DepthwiseI8 %+v acc=%d: %d, want %d", q, accs[i], got[i], want[i])
				}
			}
		})
	})
}

// scalarMinMax and scalarAbsMax are the loops tensor.F32's MinMax and
// AbsMax ran before they called this package: the references
// MinMaxF32 and AbsMaxF32 are held to.
func scalarMinMax(x []float32) (lo, hi float32) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func scalarAbsMax(x []float32) float32 {
	var m float32
	for _, v := range x {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// sameExtreme reports a reduction result equal to the scalar loop's: the
// same bits from the Go reference, and from the assembly equal under ==
// (only a zero's sign may differ) or NaN together.
func sameExtreme(got, want float32) bool {
	if ActiveTier() == TierGo {
		return math.Float32bits(got) == math.Float32bits(want)
	}
	return got == want || got != got && want != want
}

// reductionInput builds a fuzz input of n%71 floats, from data's bits
// where it reaches and small integers (zeros among them) after, with one
// special value — NaN of either sign, a zero, an infinity — at index at.
func reductionInput(data []byte, n, at, special uint8) []float32 {
	specials := []float32{float32(math.NaN()), float32(math.Copysign(math.NaN(), -1)),
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1))}
	x := make([]float32, int(n)%71)
	for i := range x {
		if 4*i+4 <= len(data) {
			x[i] = math.Float32frombits(uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24)
		} else {
			x[i] = float32(i%7 - 3)
		}
	}
	if len(x) > 0 {
		x[int(at)%len(x)] = specials[int(special)%len(specials)]
	}
	return x
}

func addReductionSeeds(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{}, uint8(70), uint8(0), uint8(0))                // NaN at index 0
	f.Add([]byte{}, uint8(70), uint8(40), uint8(1))               // -NaN in the vector body
	f.Add([]byte{}, uint8(33), uint8(32), uint8(0))               // NaN in the scalar tail
	f.Add([]byte{}, uint8(64), uint8(5), uint8(3))                // -0 among zeros
	f.Add([]byte{}, uint8(17), uint8(9), uint8(4))                // +Inf
	f.Add([]byte{0, 0, 0x80, 0xff}, uint8(8), uint8(7), uint8(5)) // -Inf at 0 and at 7
	// An extreme, then a NaN later in its accumulator lane: 32 floats on
	// in the four-register loop, 8 on in the one-register loop.
	for _, c := range []struct{ n, pos, gap int }{{70, 3, 32}, {48, 33, 8}} {
		for _, bits := range []uint32{0xf149f2ca, 0x7149f2ca} { // -1e30, 1e30
			data := make([]byte, 4*c.n)
			for i := 0; i < c.n; i++ {
				data[4*i+3] = 0x3f // 0.5 and its neighbours
			}
			binary.LittleEndian.PutUint32(data[4*c.pos:], bits)
			f.Add(data, uint8(c.n), uint8(c.pos+c.gap), uint8(0))
		}
	}
}

// FuzzMinMaxF32 holds MinMaxF32, on every tier, to the scalar loop
// on lengths 0-70 with NaN, zeros and infinities anywhere.
func FuzzMinMaxF32(f *testing.F) {
	addReductionSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, n, at, special uint8) {
		x := reductionInput(data, n, at, special)
		wantLo, wantHi := scalarMinMax(x)
		simdtest.ForEachTier(t, func(t *testing.T) {
			lo, hi := MinMaxF32(x)
			if !sameExtreme(lo, wantLo) || !sameExtreme(hi, wantHi) {
				t.Fatalf("MinMaxF32(%v) = %v, %v, want %v, %v", x, lo, hi, wantLo, wantHi)
			}
		})
	})
}

// FuzzAbsMaxF32 holds AbsMaxF32, on every tier, to the scalar loop
// bit for bit on the same inputs.
func FuzzAbsMaxF32(f *testing.F) {
	addReductionSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, n, at, special uint8) {
		x := reductionInput(data, n, at, special)
		want := scalarAbsMax(x)
		simdtest.ForEachTier(t, func(t *testing.T) {
			if got := AbsMaxF32(x); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("AbsMaxF32(%v) = %v, want %v", x, got, want)
			}
		})
	})
}

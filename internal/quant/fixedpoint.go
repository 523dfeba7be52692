package quant

import "math"

// quantizeMultiplier decomposes a positive real multiplier into a Q31
// fixed-point mantissa and a left shift (negative = right shift), the
// representation integer-only inference kernels use for requantization.
func quantizeMultiplier(real float64) (mult int32, shift int) {
	if real <= 0 {
		return 0, 0
	}
	frac, exp := math.Frexp(real) // real = frac * 2^exp, frac in [0.5, 1)
	q := int64(math.Round(frac * (1 << 31)))
	if q == 1<<31 { // rounding overflow
		q /= 2
		exp++
	}
	return int32(q), exp
}

func clampI32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

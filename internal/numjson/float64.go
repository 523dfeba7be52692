package numjson

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// The float64 formatter: float32.go's Schubfach at float64 width. The
// value c·2^q and the two ends of its rounding interval are scaled by
// 10^-k as there, with the power now 128 bits wide — (pow10Trunc,
// pow10lo) plus one — and each end a 64×128-bit multiply rounded to odd.
// The table is the float32 formatter's, so it serves the k whose 10^-k
// lies in 10^-31…10^45: every value from 2^-97 (6.3e-30) to below 2^159
// (7.3e47), which takes in every float32 from 2^-97 up widened to
// float64, the values of a signed acquisition document. The rest —
// smaller, larger, subnormal, and NaN and the infinities, whose exponent
// field puts them far outside — go to strconv. TestAppendFloat64Sweep
// checks the table's edges and random values of the whole range against
// strconv, TestAppendFloat64OfFloat32Exhaustive (-tags exhaustive) every
// float32.

// rop128 is roundToOdd with a 128-bit power ghi·2^64 + glo: the integer
// part of g·cp·2^-128, with its lowest bit set if the fraction dropped is
// 2^-63 or more. g exceeds 10^-k·2^-r by at most one unit, which adds
// at most cp·2^-128 < 2^-69 to the fraction: an integer product gets no
// sticky bit.
func rop128(ghi, glo, cp uint64) uint64 {
	hi, mid := bits.Mul64(ghi, cp)
	x, _ := bits.Mul64(glo, cp)
	mid, carry := bits.Add64(mid, x, 0)
	y := hi + carry
	if mid > 1 {
		y |= 1
	}
	return y
}

// shortest64 is shortest32 for the finite, nonzero float64 with mantissa
// field frac and exponent field exp, and reports false where 10^-k is
// outside the power table.
func shortest64(frac, exp uint64) (d uint64, k int, ok bool) {
	const (
		mantBits = 52
		bias     = 1023 + mantBits
	)
	c, q := frac, 1-bias // subnormal
	if exp != 0 {
		c, q = frac|1<<mantBits, int(exp)-bias
	}
	if 0 <= -q && -q <= mantBits && c&(1<<-q-1) == 0 {
		// An integer below 2^53: its own digits are the answer.
		d = c >> -q
	} else if d, k, ok = schubfach64(c, q, frac == 0 && exp > 1); !ok {
		return 0, 0, false
	}
	for d%10 == 0 {
		d /= 10
		k++
	}
	return d, k, true
}

// schubfach64 is schubfach32 for c·2^q with c < 2^53, or false where the
// table does not hold 10^-k.
func schubfach64(c uint64, q int, lowerCloser bool) (d uint64, k int, ok bool) {
	k = q * 1262611 >> 22 // ⌊log10 2^q⌋
	cbl := 4*c - 2
	if lowerCloser {
		k = (q*1262611 - 524031) >> 22 // ⌊log10 ¾·2^q⌋
		cbl++
	}
	if -k < pow10MinExp || -k > pow10MaxExp {
		return 0, 0, false
	}
	// As in schubfach32, h ∈ [1, 4]; 4c+2 < 2^55, so the shifted ends fit
	// in 64 bits.
	h := uint(q + -k*1741647>>19 + 1) // r + 128 = ⌊log2 10^-k⌋ + 1
	glo, carry := bits.Add64(pow10lo[-k-pow10MinExp], 1, 0)
	ghi := pow10Trunc(-k) + carry
	vbl := rop128(ghi, glo, cbl<<h)
	vb := rop128(ghi, glo, 4*c<<h)
	vbr := rop128(ghi, glo, (4*c+2)<<h)
	odd := c & 1
	lower, upper := vbl+odd, vbr-odd

	s := vb / 4
	if s >= 10 {
		sp := s / 10
		if below, above := lower <= 40*sp, 40*sp+40 <= upper; below != above {
			if above {
				sp++
			}
			return sp, k + 1, true
		}
	}
	if below, above := lower <= 4*s, 4*s+4 <= upper; below != above {
		if above {
			s++
		}
		return s, k, true
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k, true
}

// maxFloat64Len bounds the text appendFloat64 writes itself: the longest
// is a sign, 0.00000 and 17 digits.
const maxFloat64Len = 25

// decimalLen64 is the number of digits of d < 10^17, d != 0.
func decimalLen64(d uint64) int {
	switch {
	case d >= 1e16:
		return 17
	case d >= 1e8:
		return 8 + decimalLen(uint32(d/1e8))
	}
	return decimalLen(uint32(d))
}

// putDigits64 writes the digits of d < 10^17 so that they end before
// buf[end]: the low eight, if there are more, and then the rest, in
// 32-bit arithmetic.
func putDigits64(buf []byte, end int, d uint64) {
	if d >= 1e8 {
		lo := uint32(d % 1e8)
		d /= 1e8
		for range 4 {
			p := lo % 100 * 2
			lo /= 100
			end -= 2
			buf[end+1] = digitPairs[p+1]
			buf[end] = digitPairs[p]
		}
	}
	putDigits(buf, end, uint32(d))
}

// appendFloat64 appends f as encoding/json writes a float64: the
// shortest decimal that reads back as f, fixed for 1e-6 <= |f| < 1e21
// and d.ddde±x otherwise. The layout is appendFloat32's, written out
// again at 64 bits: as one generic function the float32 instantiation
// measured 5–6% slower.
func appendFloat64(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	exp, frac := b>>52&0x7ff, b&(1<<52-1)
	var d uint64
	k := 0
	if exp|frac != 0 {
		var ok bool
		if d, k, ok = shortest64(frac, exp); !ok {
			return appendFloat64Strconv(dst, f)
		}
	}
	start := len(dst)
	dst = slices.Grow(dst, maxFloat64Len)
	buf := dst[start : start+maxFloat64Len]
	i := 0
	if b>>63 != 0 {
		buf[0] = '-'
		i = 1
	}
	if d == 0 { // ±0
		buf[i] = '0'
		return dst[:start+i+1]
	}
	n := decimalLen64(d)
	// In the table's range every exponent has two digits at most.
	switch e10 := k + n - 1; {
	case e10 < -6 || e10 >= 21:
		// d.ddde±x
		putDigits64(buf, i+n+1, d)
		buf[i] = buf[i+1]
		i++
		if n > 1 {
			buf[i] = '.'
			i += n
		}
		buf[i] = 'e'
		if e10 < 0 {
			buf[i+1] = '-'
			e10 = -e10
		} else {
			buf[i+1] = '+'
		}
		i += 2
		if e10 >= 10 {
			buf[i] = digitPairs[e10*2]
			i++
		}
		buf[i] = digitPairs[e10*2+1]
		i++
	case e10 < 0:
		// 0.000ddd
		buf[i], buf[i+1] = '0', '.'
		i += 2
		for z := e10 + 1; z < 0; z++ {
			buf[i] = '0'
			i++
		}
		i += n
		putDigits64(buf, i, d)
	case k >= 0:
		// ddd000
		i += n
		putDigits64(buf, i, d)
		for ; k > 0; k-- {
			buf[i] = '0'
			i++
		}
	default:
		// dd.ddd
		putDigits64(buf, i+n+1, d)
		for point := i + e10 + 1; i < point; i++ {
			buf[i] = buf[i+1]
		}
		buf[i] = '.'
		i = i + n - e10
	}
	return dst[:start+i]
}

// appendFloat64Strconv is appendFloat64 by strconv's shortest digits in
// the layout encoding/json's floatEncoder chooses: the formatter's
// fallback, and its reference in the tests.
func appendFloat64Strconv(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

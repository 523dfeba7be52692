package simd

// ShortestF32 writes, for each float32 of vals, its shortest decimal —
// the digits strconv.FormatFloat(v, 'e', -1, 32) writes — as a record
// of two words. With D = d·10^(9-n) the nine digits of the shortest
// decimal d of n significant digits, and e10 the decimal exponent of its
// first digit (|v| = d1.d2…dn·10^e10):
//
//	digits[i] = the ASCII digits d2…d9 of D, d2 in the low byte
//	heads[i]  = '0'+d1 | n<<8 | uint8(e10)<<16 | sign<<24
//
// so the bytes of digits[i] stored little-endian follow d1 in reading
// order, and the zeros D ends in are '0' bytes. ±0 is "0": d1 = '0', n = 1,
// e10 = 0. NaN and the infinities have n = 0, no other bit but the sign
// set in heads[i], and digits[i] = 0.
//
// pow10 is the caller's table of 64-bit powers of ten for the Schubfach
// multiplies: pow10[31-k] = ⌈10^-k·2^-r⌉ in [2^63, 2^64), for the k of
// every float32 (-45…31), as numjson keeps it; the kernel reads it in
// place.
//
// The record is Schubfach and digit arithmetic with no branch on the
// value, and the avx512 tier runs it eight floats to a ZMM register: the
// 64×32-bit multiplies are two VPMULUDQ each, the power a VPGATHERQQ,
// the choices between candidate decimals mask blends, the digits SWAR
// in each 64-bit lane and the count of significant digits a VPLZCNTQ.
// Elsewhere ShortestF32 writes nothing and reports false, and the caller
// runs its own reference (numjson's record32), which the kernel matches
// bit for bit on every one of the 2^32 patterns.
func ShortestF32(digits []uint64, heads []uint32, vals []float32, pow10 []uint64) bool {
	if ActiveTier() != TierAVX512 {
		return false
	}
	if len(pow10) < 31+45+1 { // pow10[31-k] for k = -45…31
		panic("simd: ShortestF32 power table too short")
	}
	digits, heads = digits[:len(vals)], heads[:len(vals)]
	n8 := len(vals) &^ 7
	if n8 > 0 {
		shortestF32AVX512(digits[:n8], heads[:n8], vals[:n8], &pow10[0])
	}
	if rest := len(vals) - n8; rest > 0 {
		var (
			v [8]float32
			d [8]uint64
			h [8]uint32
		)
		copy(v[:], vals[n8:])
		shortestF32AVX512(d[:], h[:], v[:], &pow10[0])
		copy(digits[n8:], d[:rest])
		copy(heads[n8:], h[:rest])
	}
	return true
}

package simd

// ParseF32 reads float32s from the comma-separated number tokens that
// start at data[i], the reverse of ShortestF32: it takes tokens of the
// form -?(0|[1-9][0-9]*)(\.[0-9]+)? of at most 16 bytes, each followed
// directly by a comma, stores their values in dst in order and returns
// how many it took and the position after the last comma taken (i when
// it took none). Each value is the one numjson's ScanFloat reads from
// the token at bitSize 32, by the same arithmetic as its exact path:
// float64(m) / 10^f for the token's digits m < 2^53 and the f digits
// after its point — one VCVTUQQ2PD and one VDIVPD a lane, the IEEE
// operations Go's conversion and division are — then the sign and the
// rounding to float32 (VCVTPD2PS).
//
// It stops before the first token that is anything else: an exponent,
// whitespace, a 17th byte, a mantissa of 2^53 or more, a float64 that
// ScanFloat's double-rounding test sends to strconv, the array's last
// element (followed by ']'), or any byte that is not a number. The
// caller reads that token itself and may call again after it. So the
// tokens ParseF32 takes are exactly those ScanFloat would take with the
// same bits and a comma after them; everything else, including every
// error, stays the caller's.
//
// The avx512 tier reads eight tokens a step: a VPCMPEQB comma mask over
// 128 bytes gives their ends, each token's 16 bytes are right-aligned in
// a 128-bit lane, checked against the grammar by byte masks, closed up
// over the point by VPSHUFB and reduced to one integer by VPMADDUBSW and
// VPMADDWD. It steps while dst has room for eight values (it may write
// all eight of a step, past n) and data holds 128 bytes from the next
// token, so the last tokens of data are the caller's, as are tokens
// ending in data's first 16 bytes. It also needs AVX-512 DQ
// (VCVTUQQ2PD) and BMI1/BMI2. Elsewhere ParseF32 takes nothing and
// reports false, and the caller reads every token itself (numjson's
// ScanFloat is the reference the kernel matches).
func ParseF32(dst []float32, data []byte, i int) (n, next int, ok bool) {
	if !haveParseF32 || ActiveTier() != TierAVX512 {
		return 0, i, false
	}
	if i < 0 || i > len(data) {
		panic("simd: ParseF32 start out of range")
	}
	n, next = parseF32AVX512(dst, data, i)
	return n, next, true
}

package numjson

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"edgepulse/internal/simd"
)

// The float32 formatter: Schubfach (Giulietti, "The Schubfach way to
// render doubles", 2020) specialised to binary32, writing
// encoding/json's layout directly. A finite float32 is c·2^q; the
// decimals that read back as it are those of its rounding interval,
// from halfway to the float below to halfway to the one above. With
// k = ⌊log10 2^q⌋ the interval holds at least one and at most ten
// multiples of 10^k, so the shortest decimal is a multiple of 10^(k+1)
// if one is inside and otherwise the multiple of 10^k nearest the value.
// The value and both ends of the interval are scaled by 10^-k with one
// 64×32-bit multiply each, against a 64-bit ⌈10^-k·2^-r⌉, and rounded
// to odd: the sticky bit keeps the two bits below the integer part
// exact enough for every comparison made on them. TestPow10TableMatchesBigInt
// checks the table, TestAppendFloat32Exhaustive (-tags exhaustive) every
// one of the 2^32 bit patterns against strconv, on both tiers below.
// float64.go runs the same algorithm on float64s, over the same powers
// widened to 128 bits.
//
// A float32 is written in two stages. The record stage spells its
// shortest decimal out in a fixed form (simd.ShortestF32 documents it):
// the nine ASCII digits of d·10^(9-n), n the count of significant
// digits, and the decimal exponent. It is arithmetic with no branch on
// the value, so where the avx512 tier runs, simd.ShortestF32 does it
// eight floats to a ZMM register; elsewhere record32 does, the
// reference the kernel is held to. The layout stage, layoutFloats32,
// writes encoding/json's text from the records with whole-word stores.

// pow10f32[k-pow10MinExp] is ⌈10^k·2^-r⌉ for the r that puts it in
// [2^63, 2^64): r = ⌊log2 10^k⌋ - 63. Literals, so that no start-up work
// builds them. ScanFloat's float64 tier reads the same table through
// pow10Trunc.
const pow10MinExp, pow10MaxExp = -31, 45

var pow10f32 = [pow10MaxExp - pow10MinExp + 1]uint64{
	0x81ceb32c4b43fcf5, // 1e-31
	0xa2425ff75e14fc32, // 1e-30
	0xcad2f7f5359a3b3f, // 1e-29
	0xfd87b5f28300ca0e, // 1e-28
	0x9e74d1b791e07e49, // 1e-27
	0xc612062576589ddb, // 1e-26
	0xf79687aed3eec552, // 1e-25
	0x9abe14cd44753b53, // 1e-24
	0xc16d9a0095928a28, // 1e-23
	0xf1c90080baf72cb2, // 1e-22
	0x971da05074da7bef, // 1e-21
	0xbce5086492111aeb, // 1e-20
	0xec1e4a7db69561a6, // 1e-19
	0x9392ee8e921d5d08, // 1e-18
	0xb877aa3236a4b44a, // 1e-17
	0xe69594bec44de15c, // 1e-16
	0x901d7cf73ab0acda, // 1e-15
	0xb424dc35095cd810, // 1e-14
	0xe12e13424bb40e14, // 1e-13
	0x8cbccc096f5088cc, // 1e-12
	0xafebff0bcb24aaff, // 1e-11
	0xdbe6fecebdedd5bf, // 1e-10
	0x89705f4136b4a598, // 1e-9
	0xabcc77118461cefd, // 1e-8
	0xd6bf94d5e57a42bd, // 1e-7
	0x8637bd05af6c69b6, // 1e-6
	0xa7c5ac471b478424, // 1e-5
	0xd1b71758e219652c, // 1e-4
	0x83126e978d4fdf3c, // 1e-3
	0xa3d70a3d70a3d70b, // 1e-2
	0xcccccccccccccccd, // 1e-1
	0x8000000000000000, // 1e0
	0xa000000000000000, // 1e1
	0xc800000000000000, // 1e2
	0xfa00000000000000, // 1e3
	0x9c40000000000000, // 1e4
	0xc350000000000000, // 1e5
	0xf424000000000000, // 1e6
	0x9896800000000000, // 1e7
	0xbebc200000000000, // 1e8
	0xee6b280000000000, // 1e9
	0x9502f90000000000, // 1e10
	0xba43b74000000000, // 1e11
	0xe8d4a51000000000, // 1e12
	0x9184e72a00000000, // 1e13
	0xb5e620f480000000, // 1e14
	0xe35fa931a0000000, // 1e15
	0x8e1bc9bf04000000, // 1e16
	0xb1a2bc2ec5000000, // 1e17
	0xde0b6b3a76400000, // 1e18
	0x8ac7230489e80000, // 1e19
	0xad78ebc5ac620000, // 1e20
	0xd8d726b7177a8000, // 1e21
	0x878678326eac9000, // 1e22
	0xa968163f0a57b400, // 1e23
	0xd3c21bcecceda100, // 1e24
	0x84595161401484a0, // 1e25
	0xa56fa5b99019a5c8, // 1e26
	0xcecb8f27f4200f3a, // 1e27
	0x813f3978f8940985, // 1e28
	0xa18f07d736b90be6, // 1e29
	0xc9f2c9cd04674edf, // 1e30
	0xfc6f7c4045812297, // 1e31
	0x9dc5ada82b70b59e, // 1e32
	0xc5371912364ce306, // 1e33
	0xf684df56c3e01bc7, // 1e34
	0x9a130b963a6c115d, // 1e35
	0xc097ce7bc90715b4, // 1e36
	0xf0bdc21abb48db21, // 1e37
	0x96769950b50d88f5, // 1e38
	0xbc143fa4e250eb32, // 1e39
	0xeb194f8e1ae525fe, // 1e40
	0x92efd1b8d0cf37bf, // 1e41
	0xb7abc627050305ae, // 1e42
	0xe596b7b0c643c71a, // 1e43
	0x8f7e32ce7bea5c70, // 1e44
	0xb35dbf821ae4f38c, // 1e45
}

// pow10lo[k-pow10MinExp] is the next 64 bits of 10^k·2^-r, truncated:
// pow10Trunc(k)·2^64 + pow10lo[k-pow10MinExp] is ⌊10^k·2^-(r-64)⌋, the
// 128-bit power the float64 formatter and the wide multiply of
// ScanFloat's float64 tier use. Zero for 10^0…10^27, exact up to 10^45
// (5^45 fits in 128 bits).
var pow10lo = [pow10MaxExp - pow10MinExp + 1]uint64{
	0x80eacf948770ced7, // 1e-31
	0xa1258379a94d028d, // 1e-30
	0x096ee45813a04330, // 1e-29
	0x8bca9d6e188853fc, // 1e-28
	0x775ea264cf55347d, // 1e-27
	0x95364afe032a819d, // 1e-26
	0x3a83ddbd83f52204, // 1e-25
	0xc4926a9672793542, // 1e-24
	0x75b7053c0f178293, // 1e-23
	0x5324c68b12dd6338, // 1e-22
	0xd3f6fc16ebca5e03, // 1e-21
	0x88f4bb1ca6bcf584, // 1e-20
	0x2b31e9e3d06c32e5, // 1e-19
	0x3aff322e62439fcf, // 1e-18
	0x09befeb9fad487c2, // 1e-17
	0x4c2ebe687989a9b3, // 1e-16
	0x0f9d37014bf60a10, // 1e-15
	0x538484c19ef38c94, // 1e-14
	0x2865a5f206b06fb9, // 1e-13
	0xf93f87b7442e45d3, // 1e-12
	0xf78f69a51539d748, // 1e-11
	0xb573440e5a884d1b, // 1e-10
	0x31680a88f8953030, // 1e-9
	0xfdc20d2b36ba7c3d, // 1e-8
	0x3d32907604691b4c, // 1e-7
	0xa63f9a49c2c1b10f, // 1e-6
	0x0fcf80dc33721d53, // 1e-5
	0xd3c36113404ea4a8, // 1e-4
	0x645a1cac083126e9, // 1e-3
	0x3d70a3d70a3d70a3, // 1e-2
	0xcccccccccccccccc, // 1e-1
	0x0000000000000000, // 1e0
	0x0000000000000000, // 1e1
	0x0000000000000000, // 1e2
	0x0000000000000000, // 1e3
	0x0000000000000000, // 1e4
	0x0000000000000000, // 1e5
	0x0000000000000000, // 1e6
	0x0000000000000000, // 1e7
	0x0000000000000000, // 1e8
	0x0000000000000000, // 1e9
	0x0000000000000000, // 1e10
	0x0000000000000000, // 1e11
	0x0000000000000000, // 1e12
	0x0000000000000000, // 1e13
	0x0000000000000000, // 1e14
	0x0000000000000000, // 1e15
	0x0000000000000000, // 1e16
	0x0000000000000000, // 1e17
	0x0000000000000000, // 1e18
	0x0000000000000000, // 1e19
	0x0000000000000000, // 1e20
	0x0000000000000000, // 1e21
	0x0000000000000000, // 1e22
	0x0000000000000000, // 1e23
	0x0000000000000000, // 1e24
	0x0000000000000000, // 1e25
	0x0000000000000000, // 1e26
	0x0000000000000000, // 1e27
	0x4000000000000000, // 1e28
	0x5000000000000000, // 1e29
	0xa400000000000000, // 1e30
	0x4d00000000000000, // 1e31
	0xf020000000000000, // 1e32
	0x6c28000000000000, // 1e33
	0xc732000000000000, // 1e34
	0x3c7f400000000000, // 1e35
	0x4b9f100000000000, // 1e36
	0x1e86d40000000000, // 1e37
	0x1314448000000000, // 1e38
	0x17d955a000000000, // 1e39
	0x5dcfab0800000000, // 1e40
	0x5aa1cae500000000, // 1e41
	0xf14a3d9e40000000, // 1e42
	0x6d9ccd05d0000000, // 1e43
	0xe4820023a2000000, // 1e44
	0xdda2802c8a800000, // 1e45
}

// pow10Trunc is ⌊10^k·2^-r⌋, the power Eisel–Lemire multiplies by: the
// table's entry, less one where it was rounded up — everywhere but
// 10^0…10^27, whose 5^k fits in 64 bits.
func pow10Trunc(k int) uint64 {
	p := pow10f32[k-pow10MinExp]
	if k < 0 || k > 27 {
		p--
	}
	return p
}

// roundToOdd is the integer part of g·cp·2^-64 with its lowest bit set
// if anything nonzero was dropped below it; cp < 2^32.
func roundToOdd(g uint64, cp uint32) uint32 {
	hi, lo := bits.Mul64(g, uint64(cp))
	y := uint32(hi)
	if lo>>32 > 1 {
		y |= 1
	}
	return y
}

// schubfach32 returns a shortest decimal d·10^k that reads back as c·2^q
// — the one nearest the value where several are as short — with d
// possibly ending in zeros. At a power of two (lowerCloser) the float
// below is half as far away as the one above.
func schubfach32(c uint32, q int, lowerCloser bool) (d uint32, k int) {
	k = q * 1262611 >> 22 // ⌊log10 2^q⌋
	cbl := 4*c - 2
	if lowerCloser {
		k = (q*1262611 - 524031) >> 22 // ⌊log10 ¾·2^q⌋
		cbl++
	}
	// cbl, 4c and 4c+2 are the interval's lower end, the value and its
	// upper end in quarters of 2^q. With 10^-k = g·2^r, shifting them by
	// h = q + r + 64 ∈ [1, 4] before the multiply leaves the three, in
	// quarters of 10^k, in the high word of the product.
	h := uint(q + -k*1741647>>19 + 1) // r + 64 = ⌊log2 10^-k⌋ + 1
	g := pow10f32[31-k]
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, 4*c<<h)
	vbr := roundToOdd(g, (4*c+2)<<h)
	// The ends are inside when c is even: round half to even reads them
	// back as c.
	odd := c & 1
	lower, upper := vbl+odd, vbr-odd

	s := vb / 4
	if s >= 10 {
		// A multiple of 10^(k+1) inside: at most one of the two around
		// the value is.
		sp := s / 10
		if below, above := lower <= 40*sp, 40*sp+40 <= upper; below != above {
			if above {
				sp++
			}
			return sp, k + 1
		}
	}
	if below, above := lower <= 4*s, 4*s+4 <= upper; below != above {
		if above {
			s++
		}
		return s, k
	}
	// Both neighbours are inside: the nearer one, the even one at a tie.
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// decimalLen is the number of digits of d < 10^9, d != 0.
func decimalLen(d uint32) int {
	switch {
	case d >= 100000000:
		return 9
	case d >= 10000000:
		return 8
	case d >= 1000000:
		return 7
	case d >= 100000:
		return 6
	case d >= 10000:
		return 5
	case d >= 1000:
		return 4
	case d >= 100:
		return 3
	case d >= 10:
		return 2
	}
	return 1
}

// putDigits writes the n digits of d so that they end before buf[end].
func putDigits(buf []byte, end int, d uint32) {
	for d >= 100 {
		p := d % 100 * 2
		d /= 100
		end -= 2
		buf[end+1] = digitPairs[p+1]
		buf[end] = digitPairs[p]
	}
	if d >= 10 {
		buf[end-1] = digitPairs[d*2+1]
		buf[end-2] = digitPairs[d*2]
		return
	}
	buf[end-1] = byte('0' + d)
}

// --- Record stage ---

// ascii8 is "00000000" as a little-endian word, zeroPoint "0.000000".
const ascii8, zeroPoint = 0x3030303030303030, 0x3030303030302e30

// pow10u32[i] is 10^i.
var pow10u32 = [10]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// record32 is the record stage's reference: the record of the float32
// with bits b, in simd.ShortestF32's form, which the kernel writes for
// the same bits.
func record32(b uint32) (digits uint64, head uint32) {
	const (
		mantBits = 23
		bias     = 127 + mantBits
	)
	exp, frac := b>>23&0xff, b&(1<<mantBits-1)
	head = b >> 31 << 24
	switch {
	case exp == 0xff:
		return 0, head // no significant digits: not finite
	case exp|frac == 0:
		return ascii8, head | 1<<8 | '0'
	}
	c, q := frac, 1-bias // subnormal
	if exp != 0 {
		c, q = frac|1<<mantBits, int(exp)-bias
	}
	var d uint32
	k := 0
	if 0 <= -q && -q <= mantBits && c&(1<<-q-1) == 0 {
		// An integer below 2^24: its own digits are the answer.
		d = c >> -q
	} else {
		d, k = schubfach32(c, q, frac == 0 && exp > 1)
	}
	n := decimalLen(d)
	full := d * pow10u32[9-n] // nine digits: [10^8, 10^9)
	lead := full / 1e8
	digits = swarDigits(full - lead*1e8)
	// The zeros d ends in are '0' bytes at the top of digits.
	sig := 9 - bits.LeadingZeros64(digits^ascii8)/8
	return digits, head | uint32(uint8(int8(k+n-1)))<<16 | uint32(sig)<<8 | '0' + lead
}

// swarDigits spells x < 10^8 as eight ASCII digits, the most significant
// in the low byte, dividing in every lane of a word at once: x into two
// halves of four digits (a uint32 each), each half into two pairs (a
// uint16 each), each pair into two digits (a byte each). Every quotient
// is a multiply and a shift, exact below the bound of its lane, and no
// lane's product reaches the next lane.
func swarDigits(x uint32) uint64 {
	hi := x / 1e4
	y := uint64(hi) | uint64(x-hi*1e4)<<32
	q := y * 5243 >> 19 & 0x0000007f0000007f // /100 per uint32 lane, below 10^4
	y = q | (y-q*100)<<16
	q = y * 103 >> 10 & 0x000f000f000f000f // /10 per uint16 lane, below 100
	return (q | (y-q*10)<<8) + ascii8
}

// records32 writes the records of vals: the avx512 kernel where it runs,
// record32 elsewhere.
func records32(digits []uint64, heads []uint32, vals []float32) {
	if simd.ShortestF32(digits, heads, vals, pow10f32[:]) {
		return
	}
	digits = digits[:len(vals)]
	heads = heads[:len(vals)]
	for i, v := range vals {
		digits[i], heads[i] = record32(math.Float32bits(v))
	}
}

// --- Layout stage ---

// float32Slot is the room layoutFloats32 needs per record: it stores
// whole words, some of them past the text, up to 26 bytes from where a
// record starts (a sign, 1e20's 21 digits and a comma are 23 of them).
const float32Slot = 32

// float32Block is how many floats AppendFloats takes through each stage
// at a time.
const float32Block = 64

// layoutFloats32 writes the records as encoding/json writes the floats —
// fixed for 1e-6 <= |v| < 1e21 and d.ddde±x otherwise — each followed by
// a comma, from buf[0]; buf holds float32Slot bytes per record. It
// returns the bytes written and how many records it wrote: all, or those
// before the first that is not finite.
//
// Nine digits always follow the first digit's position, so every layout
// is a few stores that write more than they keep: the digits of the
// integer part and of the fraction are one word each, and the zeros an
// integer ends in are the record's own.
func layoutFloats32(buf []byte, digits []uint64, heads []uint32) (i, done int) {
	digits = digits[:len(heads)]
	for j, h := range heads {
		sig := int(h >> 8 & 0xff)
		if sig == 0 {
			return i, j
		}
		w, lead := digits[j], byte(h)
		b := buf[i : i+float32Slot]
		b[0] = '-'
		o := int(h >> 24) // past the sign
		switch e10 := int(int8(h >> 16)); {
		case e10 < -6 || e10 >= 21:
			// d.ddde±x
			b[o], b[o+1] = lead, '.'
			binary.LittleEndian.PutUint64(b[o+2:], w)
			o++
			if sig > 1 {
				o += sig
			}
			b[o], b[o+1] = 'e', '+'
			if e10 < 0 {
				b[o+1] = '-'
				e10 = -e10
			}
			// strconv writes e-07 here and encoding/json takes the zero out
			// again: one digit below ten.
			if e10 >= 10 {
				b[o+2], b[o+3] = digitPairs[e10*2], digitPairs[e10*2+1]
				o += 4
			} else {
				b[o+2] = byte('0' + e10)
				o += 3
			}
		case e10 < 0:
			// 0.000ddd
			binary.LittleEndian.PutUint64(b[o:], zeroPoint)
			o += 1 - e10
			b[o] = lead
			binary.LittleEndian.PutUint64(b[o+1:], w)
			o += sig
		case e10 >= sig-1:
			// ddd000: the record's digits, then more zeros past the ninth.
			b[o] = lead
			binary.LittleEndian.PutUint64(b[o+1:], w)
			if e10 >= 9 {
				binary.LittleEndian.PutUint64(b[o+9:], ascii8)
				binary.LittleEndian.PutUint64(b[o+17:], ascii8)
			}
			o += e10 + 1
		default:
			// dd.ddd: the digits, then the fraction's again one place on,
			// behind the point.
			b[o] = lead
			binary.LittleEndian.PutUint64(b[o+1:], w)
			b[o+e10+1] = '.'
			binary.LittleEndian.PutUint64(b[o+e10+2:], w>>(8*e10))
			o += sig + 1
		}
		b[o] = ','
		i += o + 1
	}
	return i, len(heads)
}

// appendFloats32 is AppendFloats for a non-nil []float32: blocks of
// float32Block floats, each through the record stage and then the
// layout, written in place where dst has the room for a block's slots
// and through a buffer on the stack where it has not.
func appendFloats32(dst []byte, vals []float32) ([]byte, error) {
	dst = append(dst, '[')
	if len(vals) == 0 {
		return append(dst, ']'), nil
	}
	var (
		digits [float32Block]uint64
		heads  [float32Block]uint32
		spare  [float32Block * float32Slot]byte
	)
	for len(vals) > 0 {
		blk := vals[:min(len(vals), float32Block)]
		vals = vals[len(blk):]
		records32(digits[:], heads[:], blk)
		need, start := len(blk)*float32Slot, len(dst)
		var n, done int
		if cap(dst)-start >= need {
			n, done = layoutFloats32(dst[start:start+need], digits[:], heads[:len(blk)])
			dst = dst[:start+n]
		} else {
			n, done = layoutFloats32(spare[:need], digits[:], heads[:len(blk)])
			dst = append(dst, spare[:n]...)
		}
		if done < len(blk) {
			return dst, unsupportedValue(blk[done])
		}
	}
	dst[len(dst)-1] = ']' // in place of the last comma
	return dst, nil
}

// appendFloat32 appends the float32 with the given bits as encoding/json
// writes it, through the same record and layout as AppendFloats, and
// reports false, appending nothing, for NaN and the infinities.
func appendFloat32(dst []byte, b uint32) ([]byte, bool) {
	digits, head := record32(b)
	start := len(dst)
	dst = slices.Grow(dst, float32Slot)
	n, done := layoutFloats32(dst[start:start+float32Slot], []uint64{digits}, []uint32{head})
	if done == 0 {
		return dst[:start], false
	}
	return dst[:start+n-1], true // less the comma
}

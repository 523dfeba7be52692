// Package numjson reads and writes the one kind of JSON this platform
// moves in bulk: an object whose weight is arrays of numbers — a classify
// body, a stream push, a signed acquisition document. At 16 000 floats a
// body, encoding/json spends more time on such a document than the DSP
// and the model spend on its contents; the functions here do the same
// work in one pass over the bytes.
//
// They do not define a second format. The scanners accept a strict
// subset of what encoding/json accepts — exact keys, each at most once,
// plain strings, no null — and report ok=false for everything else, so a
// caller decodes those inputs with encoding/json and what is accepted,
// what is refused and with which message stays encoding/json's decision.
// Where a scanner does accept, the value is the one encoding/json
// stores, bit for bit. AppendFloat writes the bytes json.Marshal writes.
//
// Both widths are formatted by this package's own Schubfach formatter.
// A float32 — a sample of a classify body or a stream push, 16 000 to a
// request and the largest share of one — takes one 64-bit power of ten
// and three multiplies (float32.go), in two stages: a record of its
// shortest decimal (nine ASCII digits, the count of significant ones,
// the exponent), which on AVX-512 hosts internal/simd's kernel writes
// for eight floats at once, and a layout that writes encoding/json's
// text from the record with whole-word stores. AppendFloats runs blocks
// of 64 floats through both, in under a seventh of the time strconv
// takes; with only 2^32 values its equality with strconv is checked on
// every one of them, on both tiers (TestAppendFloat32Exhaustive). A float64
// — a row of a signed acquisition document, which ingest.SignJSON writes
// on the device side of an upload — takes the same powers widened to
// 128 bits and six multiplies (float64.go). The powers cover
// 10^-31…10^45, which serves every float64 from 2^-97 to below 2^159 and
// so every float32 sample widened from 2^-97 up; the rest (and NaN and
// the infinities) go to strconv.AppendFloat, the formatters' reference
// in the tests.
//
// Numbers are read in three tiers (ScanFloat). Most tokens of either
// width take the exact path: a mantissa below 2^53 times or over an
// exact power of ten. A float64 the exact path cannot take — a float32
// sample widened to float64 mostly prints 17 digits, past 2^53, so
// nearly every value of an acquisition document is one — goes through
// Eisel–Lemire over the formatters' powers: one 64×64-bit multiply, and
// a second by the power's low word where the first leaves a carry open.
// Everything else goes to strconv.ParseFloat: more than 19 significant
// digits, an exponent outside the table, a decimal too near a rounding
// boundary for 128 bits of power to settle (in practice one that is a
// float64 itself), and a float32 token that the exact path's double
// rounding could get wrong. The middle tier is float64's alone: float32
// tokens keep to the exact path and strconv. A float32 array — a classify
// body, a batch window, a stream push — has its exact path run eight
// tokens at a time on AVX-512 hosts: ScanFloats hands runs of plain
// tokens (no exponent, at most 16 bytes) to internal/simd's ParseF32,
// which does ScanFloat's arithmetic in every 64-bit lane and stops
// before any token ScanFloat would treat otherwise; ScanFloat reads that
// one. Its equality with the Go tier is checked on every float32 written
// as an array (TestScanFloat32Exhaustive) and by FuzzScanFloats32.
//
// The package is a leaf: it knows no DTO and no route.
package numjson

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"unicode/utf8"

	"edgepulse/internal/simd"
)

// Float is the element type of a numeric array.
type Float interface{ float32 | float64 }

// bitSize is strconv's name for T.
func bitSize[T Float]() int {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return 32
	}
	return 64
}

// --- Structure ---

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

func hasPrefix(data []byte, prefix string) bool {
	return len(data) >= len(prefix) && string(data[:len(prefix)]) == prefix
}

// Body is Object for a whole input: one object with nothing but
// whitespace around it.
func Body(data []byte, keys []string, value func(k, i int) (int, bool)) bool {
	i, ok := Object(data, skipSpace(data, 0), keys, value)
	return ok && skipSpace(data, i) == len(data)
}

// Object walks the JSON object at data[i]. Its members may come in any
// order and each is optional, but a key must be one of keys — given
// quoted, as they are spelled on the wire (`"features"`) — and appear at
// most once. For the member keys[k], Object calls value(k, i) with the
// position of the member's value, which is inside data; value returns
// the position after it, or false to decline. Object returns the position
// after the closing brace. An unknown, repeated, escaped or case-folded
// key declines the input: encoding/json has rules for each.
func Object(data []byte, i int, keys []string, value func(k, i int) (int, bool)) (int, bool) {
	if i >= len(data) || data[i] != '{' {
		return i, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	var seen uint64 // bit k: keys[k] has appeared (no caller has 64 keys)
	for {
		k := 0
		for k < len(keys) && !hasPrefix(data[i:], keys[k]) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			return i, false
		}
		seen |= 1 << k
		i = skipSpace(data, i+len(keys[k]))
		if i >= len(data) || data[i] != ':' {
			return i, false
		}
		if i = skipSpace(data, i+1); i >= len(data) {
			return i, false
		}
		var ok, done bool
		if i, ok = value(k, i); !ok {
			return i, false
		}
		if i, done, ok = afterElement(data, i, '}'); done || !ok {
			return i, ok
		}
	}
}

// Array walks the JSON array at data[i], calling elem with the position
// of each element; elem returns the position after it, or false to
// decline. Array returns the position after the closing bracket. null in
// place of the array declines.
func Array(data []byte, i int, elem func(i int) (int, bool)) (int, bool) {
	if i >= len(data) || data[i] != '[' {
		return i, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return i + 1, true
	}
	for {
		var ok, done bool
		if i, ok = elem(i); !ok {
			return i, false
		}
		if i, done, ok = afterElement(data, i, ']'); done || !ok {
			return i, ok
		}
	}
}

// afterElement reads what follows a member or an element ending at i:
// either the closing byte (done; next is the position after it) or a
// comma (next is the position of what follows, which is inside data).
func afterElement(data []byte, i int, closing byte) (next int, done, ok bool) {
	i = skipSpace(data, i)
	if i >= len(data) {
		return i, false, false
	}
	switch data[i] {
	case closing:
		return i + 1, true, true
	case ',':
		i = skipSpace(data, i+1)
		return i, false, i < len(data)
	}
	return i, false, false
}

// --- Scalars ---

// ScanString reads the JSON string at data[i] and returns its contents
// — a stretch of data, not a copy — and the position after the closing
// quote. It takes plain strings only: one with an escape, a control
// byte or invalid UTF-8, all of which encoding/json rewrites or refuses,
// declines.
func ScanString(data []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return nil, i, false
	}
	start, ascii := i+1, true
	for i = start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			s = data[start:i]
			return s, i + 1, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, i, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, i, false
}

// ScanBool reads true or false at data[i].
func ScanBool(data []byte, i int) (v bool, next int, ok bool) {
	switch rest := data[i:]; {
	case hasPrefix(rest, "true"):
		return true, i + len("true"), true
	case hasPrefix(rest, "false"):
		return false, i + len("false"), true
	}
	return false, i, false
}

// ScanInt reads the JSON number at data[i] as the int64 encoding/json
// stores: an integer literal — no fraction, no exponent — of at most 18
// digits, so it cannot overflow.
func ScanInt(data []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	first := i
	for ; i < len(data) && isDigit(data[i]); i++ {
		if i-first == 18 {
			return 0, i, false
		}
		v = v*10 + int64(data[i]-'0')
	}
	switch {
	case i == first:
		return 0, i, false
	case data[first] == '0' && i-first > 1:
		return 0, i, false // a leading zero is not JSON
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		return 0, i, false // a float literal: encoding/json refuses it for an int
	}
	if neg {
		v = -v
	}
	return v, i, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// --- Numbers ---

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// ScanFloat parses the JSON number at data[i] and returns the position
// after it. The result converts to the value strconv.ParseFloat(token,
// bitSize) returns — which is what encoding/json stores in a float32
// (bitSize 32) or a float64 (bitSize 64). It reports false for anything
// that is not a JSON number or does not fit the type; the byte after the
// token is the caller's to check.
//
// Most tokens take the exact path: a decimal mantissa below 2^53 and a
// power of ten up to 22 are both exact float64s, so one multiply or
// divide gives the correctly rounded float64 of the decimal (Clinger).
// For bitSize 64 that is the answer. Rounding it again to float32 can
// only go wrong if a float32 midpoint lies between the decimal and its
// float64, and then the float64 — at most half an ulp from the decimal —
// is the midpoint itself: its 29 bits below float32 precision read
// 1000…0. Those tokens (and their two neighbours, for margin) go to
// strconv, as do mantissas and exponents beyond the exact range. A
// non-zero value of the exact path lies in [1e-22, 2^53·1e22], well
// inside float32's normal range, so the midpoint test needs no subnormal
// or overflow case.
//
// A float64 beyond the exact range with at most 19 significant digits
// and a power of ten in the formatters' table (10^-31…10^45) goes
// through eiselLemire64 next; only what that declines reaches strconv.
// Either way the bits are strconv's.
func ScanFloat(data []byte, i, bitSize int) (float64, int, bool) {
	start := i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	// mant collects every digit and wraps beyond 19 significant ones;
	// exact says whether mant and exp10 still are the token.
	var mant uint64
	exp10 := 0

	// Integer part: 0, or a non-zero digit and more digits.
	intStart := i
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		for ; i < len(data) && isDigit(data[i]); i++ {
			mant = mant*10 + uint64(data[i]-'0')
		}
	default:
		return 0, i, false
	}
	digits := i - intStart
	// Fraction: a point and at least one digit.
	if i < len(data) && data[i] == '.' {
		i++
		first := i
		for ; i < len(data) && isDigit(data[i]); i++ {
			mant = mant*10 + uint64(data[i]-'0')
		}
		if i == first {
			return 0, i, false
		}
		digits += i - first
		exp10 = first - i
	}
	if digits > 19 {
		// Zeros ahead of the first significant digit (0.000123…) add
		// nothing to mant. Counted only here, and from start: counting them
		// in the loops above, or from intStart, costs the float32 path
		// 8–10%.
		digits -= leadingZeros(data[start:i])
	}
	exact := digits <= 19
	// Exponent: e or E, an optional sign and at least one digit.
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		expNeg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			expNeg = data[i] == '-'
			i++
		}
		first, e := i, 0
		for ; i < len(data) && isDigit(data[i]); i++ {
			if e < 10000 {
				e = e*10 + int(data[i]-'0')
			} else {
				exact = false
			}
		}
		if i == first {
			return 0, i, false
		}
		if expNeg {
			e = -e
		}
		exp10 += e
	}

	if exact && mant < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(mant)
		if exp10 < 0 {
			f /= pow10[-exp10]
		} else {
			f *= pow10[exp10]
		}
		const below = 1<<29 - 1 // the float64 bits float32 drops
		if bitSize == 64 || (math.Float64bits(f)&below)-(1<<28-1) > 2 {
			if neg {
				f = -f
			}
			return f, i, true
		}
	}
	if bitSize == 64 && exact && mant != 0 && pow10MinExp <= exp10 && exp10 <= pow10MaxExp {
		if f, ok := eiselLemire64(mant, exp10, neg); ok {
			return f, i, true
		}
	}
	f, err := strconv.ParseFloat(string(data[start:i]), bitSize)
	return f, i, err == nil
}

// leadingZeros counts the zeros of the number text m (a sign, digits and
// at most one point) ahead of its first non-zero digit.
func leadingZeros(m []byte) int {
	n := 0
	for _, c := range m {
		if c == '0' {
			n++
		} else if c != '.' && c != '-' {
			break
		}
	}
	return n
}

// eiselLemire64 is the float64 nearest mant·10^exp10, for mant != 0 and
// exp10 within pow10f32, by Lemire's algorithm ("Number parsing at a
// gigabyte per second", 2021) — strconv's eiselLemire64 over the same
// 128-bit truncated powers. mant, shifted up to 64 bits, times the power
// leaves the 53 bits of the float64 and a rounding bit at the top of the
// high word. The part of 10^exp10 the 64-bit power drops adds less than
// mant to the low word, so where that could carry into the bits that are
// kept, the product takes in the next 64 bits of the power too
// (pow10lo). It declines where even that leaves the carry open, where
// the product sits too close to a halfway point to tell the rounding,
// and where the result would be subnormal or overflow (which no exp10 of
// the table reaches). Where it answers, the answer is strconv's.
func eiselLemire64(mant uint64, exp10 int, neg bool) (float64, bool) {
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	// ⌊log2 10^exp10⌋ as the formatter computes it, plus the product's 64
	// bits and the bias.
	exp2 := uint64(exp10*1741647>>19+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(mant, pow10Trunc(exp10))
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		wide, below := bits.Mul64(mant, pow10lo[exp10-pow10MinExp])
		var carry uint64
		lo, carry = bits.Add64(lo, wide, 0)
		hi += carry
		if hi&0x1FF == 0x1FF && lo+1 == 0 && below+mant < mant {
			return 0, false // the 128-bit power still leaves the carry open
		}
	}
	msb := hi >> 63
	m := hi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false // maybe a tie whose even neighbour is below
	}
	m += m & 1 // round half up, which only that tie gets wrong
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, or infinite
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// ScanFloats appends the numbers of the JSON array at data[i] to out and
// returns the position after the array. null in place of the array or of
// a number declines. (It is Array with ScanFloat for elem, written out:
// this loop runs once per sample.)
//
// A float32 array is read by simd.ParseF32 where it runs, eight plain
// tokens at a time into out's spare capacity (callers reserve it with
// MaxFloats; a step may write up to seven slots past what it takes,
// which append would later overwrite); each token it stops at is read here by ScanFloat, and the
// kernel is called again after it (scanFloats32). What is taken, refused
// and returned is ScanFloat's either way.
func ScanFloats[T Float](data []byte, i int, out []T) ([]T, int, bool) {
	if i >= len(data) || data[i] != '[' {
		return out, i, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return out, i + 1, true
	}
	if out32, is32 := any(&out).(*[]float32); is32 {
		var ok bool
		*out32, i, ok = scanFloats32(data, i, *out32)
		return out, i, ok
	}
	return scanFloats(data, i, out)
}

// scanFloats is ScanFloats' loop from the first element on.
func scanFloats[T Float](data []byte, i int, out []T) ([]T, int, bool) {
	bits := bitSize[T]()
	for {
		f, next, ok := ScanFloat(data, i, bits)
		if !ok {
			return out, i, false
		}
		out = append(out, T(f))
		i = skipSpace(data, next)
		if i >= len(data) {
			return out, i, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return out, i + 1, true
		default:
			return out, i, false
		}
	}
}

// scanFloats32 is scanFloats for float32 with simd.ParseF32 ahead of
// the elements it reads itself. Where the kernel keeps stopping short of
// a step of eight — an array of exponents or long tokens — the loop
// waits 1, 3, 7, … up to 63 elements between calls, and calls it after
// every element again once one call takes eight.
func scanFloats32(data []byte, i int, out []float32) ([]float32, int, bool) {
	kernel, idle, wait := true, 0, 0
	for {
		if wait > 0 {
			wait--
		} else if kernel {
			var n int
			n, i, kernel = simd.ParseF32(out[len(out):cap(out)], data, i)
			out = out[:len(out)+n]
			i = skipSpace(data, i)
			if idle = min(2*idle+1, 63); n >= 8 {
				idle = 0
			}
			wait = idle
		}
		f, next, ok := ScanFloat(data, i, 32)
		if !ok {
			return out, i, false
		}
		out = append(out, float32(f))
		i = skipSpace(data, next)
		if i >= len(data) {
			return out, i, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return out, i + 1, true
		default:
			return out, i, false
		}
	}
}

// MaxFloats bounds the numbers the arrays in data can hold, for
// reserving their storage before a scan: each number but the first
// follows a comma, and takes at least two bytes with it (which keeps an
// input of nothing but commas from reserving more than a legitimate one
// of its size would).
func MaxFloats(data []byte) int {
	return min(bytes.Count(data, []byte{','}), len(data)/2) + 1
}

// --- Encoding ---

// AppendFloat formats a finite float as encoding/json does: the shortest
// decimal that round-trips at bitSize, in ES6 style — exponent form
// below 1e-6 and from 1e21, with a two-digit exponent's leading zero
// dropped (e-07 → e-7). At bitSize 32 it formats float32(f). Either
// width goes through the package's own formatter, a float64 outside
// 2^-97…2^159 through strconv.
func AppendFloat(dst []byte, f float64, bitSize int) []byte {
	if bitSize == 32 {
		if out, ok := appendFloat32(dst, math.Float32bits(float32(f))); ok {
			return out
		}
		// Not finite, so outside the contract; strconv spells NaN and the
		// infinities alike at either width.
	}
	return appendFloat64(dst, f)
}

// AppendFloats appends vals as a JSON array, null for a nil slice. NaN
// and infinities are refused with encoding/json's
// *json.UnsupportedValueError.
func AppendFloats[T Float](dst []byte, vals []T) ([]byte, error) {
	if vals == nil {
		return append(dst, "null"...), nil
	}
	// The width is T's: one loop per width, chosen here and not per
	// element.
	switch vals := any(vals).(type) {
	case []float32:
		return appendFloats32(dst, vals)
	case []float64:
		dst = append(dst, '[')
		for i, v := range vals {
			if i > 0 {
				dst = append(dst, ',')
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return dst, unsupportedValue(v)
			}
			dst = appendFloat64(dst, v)
		}
	}
	return append(dst, ']'), nil
}

// unsupportedValue is encoding/json's error for a float JSON cannot
// carry.
func unsupportedValue[T Float](v T) error {
	return &json.UnsupportedValueError{
		Value: reflect.ValueOf(v), Str: strconv.FormatFloat(float64(v), 'g', -1, bitSize[T]()),
	}
}

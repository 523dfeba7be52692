package numjson

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"edgepulse/internal/simd"
)

// appendFloat32Strconv is the reference of the float32 formatter, and
// what it replaced: strconv's shortest digits in the layout
// encoding/json's floatEncoder chooses.
func appendFloat32Strconv(dst []byte, b uint32) []byte {
	f := math.Float32frombits(b)
	abs := float32(math.Abs(float64(f)))
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, float64(f), 'e', -1, 32)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, float64(f), 'f', -1, 32)
}

// forTiers runs f once with simd enabled — on an AVX-512 host the
// records come from simd.ShortestF32's kernel — and once without, where
// record32 writes them.
func forTiers(t *testing.T, f func(t *testing.T)) {
	on := simd.Enabled()
	defer simd.SetEnabled(on)
	for _, tier := range []bool{true, false} {
		simd.SetEnabled(tier)
		name := "go"
		if tier {
			name = "simd"
		}
		t.Run(name, f)
	}
}

// float32Checker holds the formatter to the reference, one bit pattern
// at a time, in buffers it keeps. A finite pattern is queued and checked
// with its batch, through AppendFloats — so that where the kernel runs,
// it writes the records — and through AppendFloat(…, 32) on its own; NaN
// and the infinities are checked at once.
type float32Checker struct {
	vals           []float32
	viaJSON        []bool
	got, one, want []byte
}

// checkBatch is how many values a batch holds: a divisor of 2^23, so
// that the exhaustive walk's blocks fill it exactly.
const checkBatch = 4096

// check queues b, checks the batch once it is full and returns what is
// wrong with it, or ""; viaJSON adds json.Marshal itself (ten times the
// cost).
func (c *float32Checker) check(b uint32, viaJSON bool) string {
	v := math.Float32frombits(b)
	if b>>23&0xff == 0xff {
		var err error
		c.got, err = AppendFloats(c.got[:0], []float32{v})
		if uv := (*json.UnsupportedValueError)(nil); !errors.As(err, &uv) || string(c.got) != "[" {
			return fmt.Sprintf("%#08x: AppendFloats wrote %q, %v", b, c.got, err)
		}
		var ok bool
		if c.one, ok = appendFloat32(c.one[:0], b); ok || len(c.one) != 0 {
			return fmt.Sprintf("%#08x: refused=%v, but wrote %q", b, !ok, c.one)
		}
		return ""
	}
	c.vals = append(c.vals, v)
	c.viaJSON = append(c.viaJSON, viaJSON)
	if len(c.vals) < checkBatch {
		return ""
	}
	return c.flush()
}

// flush checks the queued values and empties the queue.
func (c *float32Checker) flush() string {
	defer func() { c.vals, c.viaJSON = c.vals[:0], c.viaJSON[:0] }()
	var err error
	if c.got, err = AppendFloats(c.got[:0], c.vals); err != nil || len(c.got) < 2 {
		return fmt.Sprintf("AppendFloats of %d finite values: %q, %v", len(c.vals), c.got, err)
	}
	elems := c.got[1 : len(c.got)-1]
	for i, v := range c.vals {
		b := math.Float32bits(v)
		tok := elems
		if j := bytes.IndexByte(elems, ','); j >= 0 {
			tok, elems = elems[:j], elems[j+1:]
		} else {
			elems = nil
		}
		c.want = appendFloat32Strconv(c.want[:0], b)
		if string(tok) != string(c.want) {
			return fmt.Sprintf("%#08x: AppendFloats %s, strconv %s", b, tok, c.want)
		}
		var ok bool
		if c.one, ok = appendFloat32(c.one[:0], b); !ok || string(c.one) != string(c.want) {
			return fmt.Sprintf("%#08x: AppendFloat %s (ok=%v), strconv %s", b, c.one, ok, c.want)
		}
		if c.viaJSON[i] {
			if want, err := json.Marshal(v); err != nil || string(tok) != string(want) {
				return fmt.Sprintf("%#08x: %s, encoding/json %s (%v)", b, tok, want, err)
			}
		}
	}
	if len(elems) != 0 {
		return fmt.Sprintf("AppendFloats wrote more elements than %d values: %q", len(c.vals), elems)
	}
	return ""
}

// TestShortestF32MatchesRecord32: the kernel's records are record32's,
// word for word, on random bit patterns and the special values, and at
// lengths on either side of a register's eight floats nothing past them
// is written.
func TestShortestF32MatchesRecord32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 1e-7, 3e21, 16000, 1.0 / 3, 1e-45,
		math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 123456789, 1e20, 9.999999e-7}
	for len(vals) < 1<<18 {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	digits, heads := make([]uint64, len(vals)), make([]uint32, len(vals))
	for _, n := range []int{len(vals), 1, 7, 8, 9, 15, 16, 17} {
		clear(digits)
		clear(heads)
		if !simd.ShortestF32(digits[:n], heads[:n], vals[:n], pow10f32[:]) {
			t.Skip("no avx512 tier on this host")
		}
		for i, v := range vals[:n] {
			b := math.Float32bits(v)
			if d, h := record32(b); digits[i] != d || heads[i] != h {
				t.Fatalf("%#08x (%d of %d): kernel %#016x %#08x, record32 %#016x %#08x", b, i, n, digits[i], heads[i], d, h)
			}
		}
		if n < len(vals) && (digits[n] != 0 || heads[n] != 0) {
			t.Fatalf("%d values: wrote past them", n)
		}
	}
}

// TestPow10TableMatchesBigInt: pow10f32[k+31] is the 64-bit ⌈10^k·2^-r⌉
// the float32 formatter multiplies by, pow10Trunc(k) the ⌊10^k·2^-r⌋
// that ScanFloat's float64 tier does, and pow10lo[k+31] the next 64 bits
// of 10^k·2^-r that the float64 formatter and the tier's wide multiply
// add to it.
func TestPow10TableMatchesBigInt(t *testing.T) {
	for k := pow10MinExp; k <= pow10MaxExp; k++ {
		// 10^k = num/den, scaled by 2^-r into [2^63, 2^64) and rounded up.
		num, den := big.NewInt(1), big.NewInt(1)
		pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
		if k >= 0 {
			num = pow
		} else {
			den = pow
		}
		r := k*1741647>>19 - 63 // ⌊log2 10^k⌋ - 63, as the formatter computes it
		if r >= 0 {
			den.Lsh(den, uint(r))
		} else {
			num.Lsh(num, uint(-r))
		}
		floor, rem := new(big.Int).QuoRem(num, den, new(big.Int))
		if got := pow10Trunc(k); floor.BitLen() != 64 || got != floor.Uint64() {
			t.Errorf("1e%d: truncated %#016x, math/big %#016x", k, got, floor)
		}
		want := floor
		if rem.Sign() != 0 {
			want = new(big.Int).Add(floor, big.NewInt(1))
		}
		if want.BitLen() != 64 {
			t.Fatalf("1e%d: ⌈10^k·2^%d⌉ has %d bits: the formatter's log2 is off", k, -r, want.BitLen())
		}
		if got := pow10f32[k+31]; got != want.Uint64() {
			t.Errorf("1e%d: table %#016x, math/big %#016x", k, got, want.Uint64())
		}
		// ⌊10^k·2^-(r-64)⌋ is the truncated power followed by the low word.
		wide := new(big.Int).Quo(num.Lsh(num, 64), den)
		lo := new(big.Int).And(wide, new(big.Int).SetUint64(math.MaxUint64))
		if got := pow10lo[k+31]; wide.BitLen() != 128 || got != lo.Uint64() {
			t.Errorf("1e%d: low word %#016x, math/big %#016x", k, got, lo)
		}
	}
}

// TestAppendFloat32Sweep checks the formatter against strconv in
// encoding/json's layout on a strided walk of all bit patterns and on
// the values where it changes course: the ends and the middle of every
// binade (at a power of two the float below is nearer than the one
// above), the integers it prints without arithmetic, int16 PCM scaled to
// ±1, subnormals and the two layout thresholds.
func TestAppendFloat32Sweep(t *testing.T) {
	forTiers(t, func(t *testing.T) {
		var c float32Checker
		check := func(b uint32, viaJSON bool) {
			t.Helper()
			if msg := c.check(b, viaJSON); msg != "" {
				t.Fatal(msg)
			}
		}
		// A prime stride visits every residue of the low bits: ~1 M values.
		for b, n := uint32(0), 0; n < 1<<32/4099; b, n = b+4099, n+1 {
			check(b, n%16 == 0)
		}
		for exp := uint32(0); exp <= 0xff; exp++ {
			for _, frac := range []uint32{0, 1, 2, 1 << 22, 1<<23 - 2, 1<<23 - 1} {
				check(exp<<23|frac, true)
				check(1<<31|exp<<23|frac, true)
			}
		}
		for i := 0; i < 1<<24; i++ {
			check(math.Float32bits(float32(i)), i%64 == 0)
		}
		for pcm := math.MinInt16; pcm <= math.MaxInt16; pcm++ {
			check(math.Float32bits(float32(pcm)/32768), true)
		}
		for frac := uint32(0); frac < 4096; frac++ { // the smallest subnormals, and a stride of the rest
			check(frac, true)
			check(1<<31|frac*2047, true)
		}
		// Either side of 1e-6 and 1e21, where the layout changes, and of the
		// powers of ten between, where the digit count does.
		for e := -7; e <= 22; e++ {
			at := math.Float32bits(float32(math.Pow(10, float64(e))))
			for b := at - 3; b <= at+3; b++ {
				check(b, true)
				check(1<<31|b, true)
			}
		}
		for _, v := range []float32{0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32,
			math.SmallestNonzeroFloat32, 1 << 24, 1<<24 + 2, 0.1, 0.3, 1.0 / 3, 9.999999e-7, 9.999999e20} {
			check(math.Float32bits(v), true)
		}
		// AppendFloat at bitSize 32 formats float32(f).
		for _, f := range []float64{0.1, 1.0 / 3, -16777217, 1e-46, 3e38} {
			if got, want := AppendFloat(nil, f, 32), appendFloat32Strconv(nil, math.Float32bits(float32(f))); string(got) != string(want) {
				t.Errorf("AppendFloat(%g, 32) = %s, want %s", f, got, want)
			}
		}
		if msg := c.flush(); msg != "" {
			t.Fatal(msg)
		}
	})
}

// FuzzAppendFloat32 checks the two halves of the codec against the
// standard library and against each other: the bytes are json.Marshal's,
// and ScanFloat reads them back as the same float32.
func FuzzAppendFloat32(f *testing.F) {
	for _, b := range []uint32{0, 1 << 31, 1, 0x00800000, 0x3f800000, 0x3dcccccd, 0x4b800000, 0x358637bd, 0x6258d727, 0x7f7fffff, 0x7f800000, 0xffc00000} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b uint32) {
		v := math.Float32frombits(b)
		got, ok := appendFloat32(nil, b)
		want, err := json.Marshal(v)
		if ok != (err == nil) {
			t.Fatalf("%#08x: ok=%v, encoding/json: %v", b, ok, err)
		}
		if !ok {
			return
		}
		if string(got) != string(want) {
			t.Fatalf("%#08x: %s, encoding/json %s", b, got, want)
		}
		back, next, ok := ScanFloat(got, 0, 32)
		if !ok || next != len(got) || math.Float32bits(float32(back)) != b {
			t.Fatalf("%#08x: wrote %s, read back %#08x (ok=%v, next=%d)", b, got, math.Float32bits(float32(back)), ok, next)
		}
	})
}

// TestAppendFloatsAllocs: into a destination with room, neither width
// allocates — not for the output, not for picking the width — on either
// tier.
func TestAppendFloatsAllocs(t *testing.T) {
	forTiers(t, func(t *testing.T) {
		f32 := []float32{0, -1, 0.1, 16000, 1e-7, 3e21, 1.0 / 3, 1e-45}
		f64 := []float64{0, -1, 0.1, 16000, 1e-7, 3e21, 1.0 / 3, 5e-324}
		dst := make([]byte, 0, 512)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := AppendFloats(dst, f32); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("AppendFloats[float32]: %v allocs", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := AppendFloats(dst, f64); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("AppendFloats[float64]: %v allocs", n)
		}
	})
}

// FuzzAppendFloats32 writes arrays of arbitrary bit patterns — four bytes
// of raw each, so lengths cross the block edges — with NaN or an
// infinity put at any index (bad picks which, or none). On the simd tier
// the bytes are json.Marshal's; where a value is refused, the error and
// the bytes written before it are the Go tier's, and the error is
// encoding/json's.
func FuzzAppendFloats32(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 128, 129} {
		raw := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			v := (rng.Float32()*2 - 1) * 0.3
			if i%5 == 4 {
				v = math.Float32frombits(rng.Uint32() &^ (1 << 30))
			}
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
		}
		f.Add(raw, uint16(n/2), uint8(0))
		f.Add(raw, uint16(n-1), uint8(n%3+1))
	}
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	f.Fuzz(func(t *testing.T, raw []byte, at uint16, bad uint8) {
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if len(vals) > 0 && bad%4 != 0 {
			vals[int(at)%len(vals)] = special[bad%4-1]
		}
		on := simd.Enabled()
		defer simd.SetEnabled(on)
		simd.SetEnabled(true)
		got, err := AppendFloats([]byte("x"), vals)
		simd.SetEnabled(false)
		gotGo, errGo := AppendFloats([]byte("x"), vals)
		if string(got) != string(gotGo) || (err == nil) != (errGo == nil) || err != nil && err.Error() != errGo.Error() {
			t.Fatalf("simd tier %q, %v; Go tier %q, %v", got, err, gotGo, errGo)
		}
		want, jerr := json.Marshal(vals)
		switch {
		case (err == nil) != (jerr == nil):
			t.Fatalf("%q, %v; encoding/json %v", got, err, jerr)
		case err != nil && err.Error() != jerr.Error():
			t.Fatalf("error %v; encoding/json %v", err, jerr)
		case err == nil && string(got[1:]) != string(want):
			t.Fatalf("%s; encoding/json %s", got[1:], want)
		}
	})
}

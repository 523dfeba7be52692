package numjson

import (
	"encoding/json"
	"math"
	"math/big"
	"strconv"
	"testing"
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

// float32Checker holds appendFloat32 to the reference, one bit pattern
// at a time, in buffers it keeps.
type float32Checker struct {
	t         *testing.T
	got, want []byte
}

// check compares on b; viaJSON adds json.Marshal itself (ten times the
// cost).
func (c *float32Checker) check(b uint32, viaJSON bool) {
	c.t.Helper()
	var ok bool
	c.got, ok = appendFloat32(c.got[:0], b)
	if finite := b>>23&0xff != 0xff; ok != finite {
		c.t.Fatalf("%#08x: ok=%v, finite=%v", b, ok, finite)
	} else if !finite {
		if len(c.got) != 0 {
			c.t.Fatalf("%#08x: refused, but wrote %q", b, c.got)
		}
		return
	}
	if c.want = appendFloat32Strconv(c.want[:0], b); string(c.got) != string(c.want) {
		c.t.Fatalf("%#08x: %s, strconv %s", b, c.got, c.want)
	}
	if viaJSON {
		if want, err := json.Marshal(math.Float32frombits(b)); err != nil || string(c.got) != string(want) {
			c.t.Fatalf("%#08x: %s, encoding/json %s (%v)", b, c.got, want, err)
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
	c := float32Checker{t: t}
	// A prime stride visits every residue of the low bits: ~1 M values.
	for b, n := uint32(0), 0; n < 1<<32/4099; b, n = b+4099, n+1 {
		c.check(b, n%16 == 0)
	}
	for exp := uint32(0); exp <= 0xff; exp++ {
		for _, frac := range []uint32{0, 1, 2, 1 << 22, 1<<23 - 2, 1<<23 - 1} {
			c.check(exp<<23|frac, true)
			c.check(1<<31|exp<<23|frac, true)
		}
	}
	for i := 0; i < 1<<24; i++ {
		c.check(math.Float32bits(float32(i)), i%64 == 0)
	}
	for pcm := math.MinInt16; pcm <= math.MaxInt16; pcm++ {
		c.check(math.Float32bits(float32(pcm)/32768), true)
	}
	for frac := uint32(0); frac < 4096; frac++ { // the smallest subnormals, and a stride of the rest
		c.check(frac, true)
		c.check(1<<31|frac*2047, true)
	}
	// Either side of 1e-6 and 1e21, where the layout changes, and of the
	// powers of ten between, where the digit count does.
	for e := -7; e <= 22; e++ {
		at := math.Float32bits(float32(math.Pow(10, float64(e))))
		for b := at - 3; b <= at+3; b++ {
			c.check(b, true)
			c.check(1<<31|b, true)
		}
	}
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, 1 << 24, 1<<24 + 2, 0.1, 0.3, 1.0 / 3, 9.999999e-7, 9.999999e20} {
		c.check(math.Float32bits(v), true)
	}
	// AppendFloat at bitSize 32 formats float32(f).
	for _, f := range []float64{0.1, 1.0 / 3, -16777217, 1e-46, 3e38} {
		if got, want := AppendFloat(nil, f, 32), appendFloat32Strconv(nil, math.Float32bits(float32(f))); string(got) != string(want) {
			t.Errorf("AppendFloat(%g, 32) = %s, want %s", f, got, want)
		}
	}
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
// allocates — not for the output, not for picking the width.
func TestAppendFloatsAllocs(t *testing.T) {
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
}

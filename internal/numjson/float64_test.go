package numjson

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// float64Checker holds appendFloat64 to the strconv path, one value at a
// time, in buffers it keeps.
type float64Checker struct {
	t         *testing.T
	got, want []byte
}

// check compares on f; viaJSON adds json.Marshal itself.
func (c *float64Checker) check(f float64, viaJSON bool) {
	c.t.Helper()
	c.got = AppendFloat(c.got[:0], f, 64)
	if c.want = appendFloat64Strconv(c.want[:0], f); string(c.got) != string(c.want) {
		c.t.Fatalf("%#016x (%g): %s, strconv %s", math.Float64bits(f), f, c.got, c.want)
	}
	if viaJSON {
		if want, err := json.Marshal(f); err != nil || string(c.got) != string(want) {
			c.t.Fatalf("%#016x: %s, encoding/json %s (%v)", math.Float64bits(f), c.got, want, err)
		}
	}
}

// inTable reports whether the float64 formatter formats the value with
// exponent field exp itself: 10^-k is in the table from 2^-97 (exponent
// field 926, k = -45) to below 2^159 (field 1181, k = 31).
func inTable(exp uint64) bool { return 926 <= exp && exp <= 1181 }

// TestAppendFloat64Sweep checks the float64 formatter against strconv in
// encoding/json's layout where it changes course: both ends and the
// middle of every binade (at a power of two the float below is nearer
// than the one above), the ends of the table and just outside them,
// subnormals, the integers it prints without arithmetic, the layout
// thresholds, the largest decimals at each digit count, three-digit
// exponents, widened float32s and random values.
func TestAppendFloat64Sweep(t *testing.T) {
	c := float64Checker{t: t}
	for exp := uint64(0); exp < 0x7ff; exp++ {
		for _, frac := range []uint64{0, 1, 2, 1 << 51, 1<<52 - 2, 1<<52 - 1} {
			b := exp<<52 | frac
			c.check(math.Float64frombits(b), true)
			c.check(math.Float64frombits(1<<63|b), true)
			// The formatter takes the value itself exactly where the table
			// holds its power (or it is an integer, all of which it does).
			if _, _, ok := shortest64(frac, exp); b != 0 && ok != inTable(exp) {
				t.Fatalf("%#016x: formatted itself %v, in the table %v", b, ok, inTable(exp))
			}
		}
	}
	// Every value of the first and last binades of the table that a
	// stride of the mantissa visits, and of those just outside.
	for _, exp := range []uint64{925, 926, 927, 1180, 1181, 1182} {
		for frac := uint64(0); frac < 1<<52; frac += 1<<52/20011 + 1 {
			c.check(math.Float64frombits(exp<<52|frac), false)
		}
	}
	for frac := uint64(1); frac < 4096; frac++ { // the smallest subnormals, and a stride of the rest
		c.check(math.Float64frombits(frac), true)
		c.check(math.Float64frombits(1<<63|frac*(1<<52/4096-1)), true)
	}
	for i := 0; i < 1<<20; i++ {
		c.check(float64(i), i%64 == 0)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 100000; i++ {
		c.check(float64(rng.Int63n(1<<53)), i%64 == 0)
	}
	// Either side of every power of ten from 1e-32 to 1e49, which takes in
	// 1e-6 and 1e21, where the layout changes, the ends of the table, and
	// the largest decimal of each digit count (99999999999999984 below
	// 1e17).
	for e := -32; e <= 49; e++ {
		at := math.Float64bits(math.Pow(10, float64(e)))
		for b := at - 3; b <= at+3; b++ {
			c.check(math.Float64frombits(b), true)
			c.check(math.Float64frombits(1<<63|b), true)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1 << 53, 1<<53 - 1, 1<<53 + 2, 1e15, 123000, 0.1, 0.3, 1.0 / 3, 2.0 / 3,
		0.30000000000000004, 9007199254740993, 1.7976931348623157e308, 5e-324, 2.2250738585072014e-308,
		1e100, -1e-100, 1.2345678901234567e-200, 0x1p-97, 0x1p-97 - 0x1p-150, 0x1p159, 0x1p159 - 0x1p106} {
		c.check(v, true)
	}
	for i := 0; i < 300000; i++ {
		// Uniform over the bit patterns of the table's exponents, over all
		// bit patterns, and over float32 samples widened.
		c.check(math.Float64frombits(uint64(926+rng.Intn(1182-926))<<52|rng.Uint64()&(1<<52-1)), i%16 == 0)
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			c.check(v, false)
		}
		if v := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			c.check(float64(v), false)
		}
	}
}

// FuzzAppendFloat64 checks the float64 codec against the standard library
// and against itself: the bytes are json.Marshal's, and ScanFloat reads
// them back as the same float64.
func FuzzAppendFloat64(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 0.1, -0.0123, 16000.5, 1e-7, 3e21, 1e21, 1e-6,
		float64(float32(0.3)), float64(float32(1.0 / 3)), 0x1p-97, 0x1p159, 1 << 53, 5e-324, math.MaxFloat64, 1e300} {
		f.Add(math.Float64bits(v))
	}
	f.Add(uint64(0x7ff8000000000001)) // NaN
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		want, err := json.Marshal(v)
		if err != nil {
			if _, got := AppendFloats(nil, []float64{v}); got == nil || got.Error() != err.Error() {
				t.Fatalf("%#016x: error %v, encoding/json %v", b, got, err)
			}
			return
		}
		got := AppendFloat(nil, v, 64)
		if string(got) != string(want) {
			t.Fatalf("%#016x: %s, encoding/json %s", b, got, want)
		}
		back, next, ok := ScanFloat(got, 0, 64)
		if !ok || next != len(got) || math.Float64bits(back) != b {
			t.Fatalf("%#016x: wrote %s, read back %#016x (ok=%v, next=%d)", b, got, math.Float64bits(back), ok, next)
		}
	})
}

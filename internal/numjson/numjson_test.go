package numjson

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// numberTokens are tokens at and around the edges of the JSON number
// grammar, of the exact path and of both float ranges.
var numberTokens = []string{
	"0", "-0", "0.0", "-0.0e5", "1", "-1", "0.1", "16777217", "0.30000001192092896",
	"1e38", "1e39", "-1e39", "3.4028235e38", "3.4028236e38", "1e-45", "1.4e-45", "1e-46",
	"1.17549435e-38", "1.1754942e-38", "1e-22", "9007199254740991e22", "9007199254740993",
	"1234567890123456789", "12345678901234567890", "0.1234567890123456789",
	"100000000000000000000", "1e22", "1e23", "1e-23", "1E+5", "1e+05", "1e-05", "2E-3",
	"01", ".5", "1.", "+1", "-", "", "1e", "1e+", "1.e5", "-.5", "0x10", "1_0", "Infinity", "NaN",
	"0e999999", "1e99999999999", "0.000000000000000000000000000001",
	"1e308", "1.7976931348623157e308", "1.7976931348623159e308", "1e309", "-1e400", "5e-324", "2e-324", "1e-400",
	"-0.00031250000000000001", "0.062500000000000000001", "123456789012345678901234567890",
	// Leading zeros are not significant digits; trailing ones are.
	"0.0012345678901234567", "-0.00000000000000000000012345678901234567", "0.00000000000000000000",
	"0.00000000000000000001", "0.000000000000000000012345678901234567891", "1.00000000000000000000",
	// The ends of the float64 tier's exponents, and its ties.
	"12345678901234567e-32", "12345678901234567e-31", "12345678901234567e45", "12345678901234567e46",
	"9007199254740993e1", "9007199254740993e-1", "18446744073709551615", "9999999999999999999e45",
	// Its wide multiply: settled by the power's low word, and left open by
	// a decimal that is a float64 itself.
	"0.016333775594830513", "-0.051588449627161026", "0.11681365966796875", "-0.25067901611328125",
}

// float64EdgeTokens returns tokens of 17 to 19 significant digits around
// the point halfway between v and the float64 above it — the decimal
// rounded to that many digits and one unit in its last digit either side;
// where the midpoint has no more digits, the tie itself — and a mantissa
// of random length at the exponents either side of the ends of the
// float64 tier's table.
func float64EdgeTokens(rng *rand.Rand, v float64) []string {
	mid := new(big.Float).SetPrec(64).SetFloat64(v)
	mid.Add(mid, new(big.Float).SetFloat64(math.Nextafter(v, math.Inf(1))))
	mid.SetMantExp(mid, -1) // exact: 54 bits at most
	var toks []string
	for n := 17; n <= 19; n++ {
		text := mid.Text('e', n-1) // d.ddde±x
		at := strings.IndexByte(text, 'e')
		d, _ := strconv.ParseUint(text[:1]+text[2:at], 10, 64)
		e, _ := strconv.Atoi(text[at+1:])
		for _, near := range []uint64{d - 1, d, d + 1} {
			toks = append(toks, fmt.Sprintf("%de%d", near, e-(n-1)))
		}
	}
	mant := rng.Uint64() >> rng.Intn(64) // 1 to 20 digits
	for _, e := range []int{pow10MinExp - 1, pow10MinExp, pow10MaxExp, pow10MaxExp + 1} {
		toks = append(toks, fmt.Sprintf("%de%d", mant, e), fmt.Sprintf("-%de%d", mant, e))
	}
	return toks
}

// tierFloat64 draws a positive float64 whose 17-digit decimal has an
// exponent in and just around the float64 tier's range.
func tierFloat64(rng *rand.Rand) float64 {
	exp2 := 1023 - 60 + rng.Intn(270) // 2^-60 … 2^209: about 1e-18 … 1e63
	return math.Float64frombits(uint64(exp2)<<52 | rng.Uint64()&(1<<52-1))
}

// float32Midpoint returns the decimal of the value halfway between f
// and the next float32 up, exactly (a float64 holds it).
func float32Midpoint(f float32) float64 {
	return (float64(f) + float64(math.Nextafter32(f, math.MaxFloat32))) / 2
}

// sameValue reports whether got, at bitSize, is bit for bit what strconv
// parsed.
func sameValue(got, want float64, bitSize int) bool {
	if bitSize == 32 {
		return math.Float32bits(float32(got)) == math.Float32bits(float32(want))
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkToken holds ScanFloat to strconv.ParseFloat on one token: a JSON
// number in range is taken whole and gives the same bits, and nothing
// else is taken whole.
func checkToken(t *testing.T, tok string, bitSize int) {
	t.Helper()
	got, next, ok := ScanFloat([]byte(tok), 0, bitSize)
	// A token is a JSON number iff it is a valid JSON value that
	// starts like a number.
	isNumber := tok != "" && (tok[0] == '-' || isDigit(tok[0])) && json.Valid([]byte(tok)) &&
		strings.TrimSpace(tok) == tok
	want, err := strconv.ParseFloat(tok, bitSize)
	if isNumber && err == nil && (!ok || next != len(tok)) {
		t.Fatalf("%q: in-range JSON number refused (ok=%v, next=%d)", tok, ok, next)
	}
	if !ok || next != len(tok) {
		return // the caller refuses whatever follows a shorter token
	}
	if !isNumber {
		t.Fatalf("%q: accepted, but not a JSON number", tok)
	}
	if err != nil {
		t.Fatalf("%q: accepted as %g, strconv says %v", tok, got, err)
	}
	if !sameValue(got, want, bitSize) {
		t.Fatalf("%q: got %g (%#x), strconv %g (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func FuzzParseFloat32(f *testing.F) {
	for _, tok := range numberTokens {
		f.Add(tok)
	}
	// Float32 rounding midpoints and their float64 neighbours: where
	// rounding the float64 of a decimal a second time goes wrong.
	for _, at := range []float32{1, 0.1, 3.1415927, 16777216, 1e-10, 6.5e20, 0.99999994} {
		mid := float32Midpoint(at)
		for _, v := range []float64{mid, math.Nextafter(mid, 0), math.Nextafter(mid, math.Inf(1))} {
			f.Add(strconv.FormatFloat(v, 'f', -1, 64))
			f.Add(strconv.FormatFloat(v, 'e', -1, 64))
		}
	}
	f.Fuzz(func(t *testing.T, tok string) { checkToken(t, tok, 32) })
}

func FuzzParseFloat64(f *testing.F) {
	for _, tok := range numberTokens {
		f.Add(tok)
	}
	// What an acquisition document is made of: float32 samples widened
	// to float64 and printed with 16 or 17 digits.
	for _, v := range []float32{0.3, -0.0123, 16000.5, 1e-7, 3e21} {
		f.Add(string(AppendFloat(nil, float64(v), 64)))
	}
	// Ties and near-ties of the float64 tier, and the ends of its table.
	rng := rand.New(rand.NewSource(31))
	for _, v := range []float64{0.1, 0.3, 1 << 53, 1e19, 1e22, 1e23, tierFloat64(rng), tierFloat64(rng)} {
		for _, tok := range float64EdgeTokens(rng, v) {
			f.Add(tok)
		}
	}
	f.Fuzz(func(t *testing.T, tok string) { checkToken(t, tok, 64) })
}

// TestScanFloatSweep checks ScanFloat against strconv on the tokens the
// bodies are made of: shortest decimals of random floats of either
// width, float32s printed as float64s (an acquisition document's
// values), plus decimals engineered to sit at float32 midpoints and,
// for the float64 tier, at float64 midpoints and the ends of its table.
func TestScanFloatSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200000; i++ {
		if i%4 == 0 {
			for _, tok := range float64EdgeTokens(rng, tierFloat64(rng)) {
				checkToken(t, tok, 64)
			}
		}
		// Uniform over the bit patterns, so over the exponents.
		v := math.Float32frombits(rng.Uint32())
		if v != v || math.IsInf(float64(v), 0) {
			continue
		}
		checkToken(t, string(AppendFloat(nil, float64(v), 32)), 32)
		checkToken(t, string(AppendFloat(nil, float64(v), 64)), 64)
		if w := math.Float64frombits(rng.Uint64()); w == w && !math.IsInf(w, 0) {
			checkToken(t, string(AppendFloat(nil, w, 64)), 64)
		}
		if abs := math.Abs(float64(v)); abs > 1e-20 && abs < 1e20 {
			mid := float32Midpoint(v)
			checkToken(t, strconv.FormatFloat(mid, 'f', -1, 64), 32)
			for _, toward := range []float64{0, math.Inf(1), math.Inf(-1)} {
				near := math.Nextafter(mid, toward)
				checkToken(t, strconv.FormatFloat(near, 'e', -1, 64), 32)
				checkToken(t, strconv.FormatFloat(math.Nextafter(near, toward), 'e', -1, 64), 32) // first one past the guard
			}
		}
	}
}

// decimal splits a JSON number of at most 19 significant digits into
// mant·10^exp10.
func decimal(tok []byte) (mant uint64, exp10 int) {
	s := strings.TrimPrefix(string(tok), "-")
	if at := strings.IndexAny(s, "eE"); at >= 0 {
		exp10, _ = strconv.Atoi(s[at+1:])
		s = s[:at]
	}
	if at := strings.IndexByte(s, '.'); at >= 0 {
		exp10 -= len(s) - at - 1
		s = s[:at] + s[at+1:]
	}
	mant, _ = strconv.ParseUint(s, 10, 64)
	return mant, exp10
}

// TestFloat64TierTakesSamples: the float64 tier, not strconv, reads the
// values an acquisition document is made of — float32 audio samples
// widened to float64, 16 or 17 digits — and gets each one's bits. It
// declines (to strconv) only a decimal that is itself a float64, such as
// 0.11681365966796875 = 15311·2^-17: there the truncated product sits
// just below the value's own bits, and no width of power settles on
// which side of the boundary the decimal is. That is 279 of these
// samples, where the 64-bit product alone declined 426.
func TestFloat64TierTakesSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 100000
	declined := 0
	for i := 0; i < n; i++ {
		v := float64(float32(0.3 * rng.NormFloat64()))
		tok := AppendFloat(nil, v, 64)
		mant, exp10 := decimal(tok)
		if mant == 0 || exp10 < pow10MinExp {
			continue
		}
		got, ok := eiselLemire64(mant, exp10, v < 0)
		if ok {
			if math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s: tier %g (%#x), want %#x", tok, got, math.Float64bits(got), math.Float64bits(v))
			}
			continue
		}
		declined++
		// mant·10^exp10 is a float64 when 5^-exp10 divides mant.
		for e := exp10; e < 0; e++ {
			if mant%5 != 0 {
				t.Fatalf("%s: declined, but not a float64 itself", tok)
			}
			mant /= 5
		}
	}
	if declined > 279 {
		t.Errorf("the tier declined %d of %d samples", declined, n)
	}
}

// TestAppendFloatMatchesEncodingJSON: both widths, every branch of
// encoding/json's float formatting.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, 9.999999e-7, 1e-7, 1.5e-10, 1e21, 9.999999e20, 1e22,
		math.MaxFloat32, math.SmallestNonzeroFloat32, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3}
	for i := 0; i < 20000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), float64(math.Float32frombits(rng.Uint32())))
	}
	for _, v := range vals {
		if v != v || math.IsInf(v, 0) {
			continue
		}
		if want, _ := json.Marshal(v); string(AppendFloat(nil, v, 64)) != string(want) {
			t.Fatalf("float64 %g: %s, encoding/json %s", v, AppendFloat(nil, v, 64), want)
		}
		if v32 := float32(v); !math.IsInf(float64(v32), 0) {
			if want, _ := json.Marshal(v32); string(AppendFloat(nil, float64(v32), 32)) != string(want) {
				t.Fatalf("float32 %g: %s, encoding/json %s", v32, AppendFloat(nil, float64(v32), 32), want)
			}
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal([]float64{1, v})
		if _, err := AppendFloats(nil, []float64{1, v}); err == nil || err.Error() != want.Error() {
			t.Fatalf("%v: error %v, encoding/json %v", v, err, want)
		}
	}
	if got, _ := AppendFloats[float64](nil, nil); string(got) != "null" {
		t.Fatalf("nil slice: %s", got)
	}
}

// walk decodes a test document with every structural function: an
// object of a string, an int, a bool, a float array and an array of
// objects.
func walk(data string) (name string, n int64, flag bool, vals []float64, tags []string, ok bool) {
	d := []byte(data)
	ok = Body(d, []string{`"name"`, `"n"`, `"flag"`, `"vals"`, `"tags"`}, func(k, i int) (int, bool) {
		var ok bool
		switch k {
		case 0:
			var s []byte
			s, i, ok = ScanString(d, i)
			name = string(s)
		case 1:
			n, i, ok = ScanInt(d, i)
		case 2:
			flag, i, ok = ScanBool(d, i)
		case 3:
			vals, i, ok = ScanFloats(d, i, vals)
		case 4:
			i, ok = Array(d, i, func(i int) (int, bool) {
				return Object(d, i, []string{`"t"`}, func(_, i int) (int, bool) {
					s, i, ok := ScanString(d, i)
					tags = append(tags, string(s))
					return i, ok
				})
			})
		}
		return i, ok
	})
	return name, n, flag, vals, tags, ok
}

func TestStructure(t *testing.T) {
	name, n, flag, vals, tags, ok := walk(" { \"tags\" : [ {\"t\":\"a\"} , { } , {\"t\" : \"é\"} ] ,\n\"vals\":[1, -2.5e0 ,3],\"flag\":true,\"n\":-42,\"name\":\"x y\"}\r\n")
	if !ok || name != "x y" || n != -42 || !flag || len(vals) != 3 || vals[1] != -2.5 || strings.Join(tags, ",") != "a,é" {
		t.Fatalf("ok=%v name=%q n=%d flag=%v vals=%v tags=%q", ok, name, n, flag, vals, tags)
	}
	for _, doc := range []string{`{}`, ` {} `, `{"vals":[]}`, `{"tags":[]}`, `{"n":0}`, `{"n":-0}`, `{"n":123456789012345678}`} {
		if _, _, _, _, _, ok := walk(doc); !ok {
			t.Errorf("%s declined", doc)
		}
	}
	// Everything encoding/json has a rule of its own for, and everything
	// that is not JSON, is declined.
	for _, doc := range []string{
		``, ` `, `{`, `}`, `[]`, `null`, `{}x`, `{} {}`, `{,}`, `{"n":1,}`, `{"n":1 "flag":true}`, `{"n" 1}`, `{"n":}`, `{"n":1`,
		`{"N":1}`, `{"n":1,"n":2}`, `{"other":1}`, `{n:1}`, `{"n":null}`,
		`{"n":1.0}`, `{"n":1e2}`, `{"n":01}`, `{"n":-}`, `{"n":1234567890123456789}`, `{"n":"1"}`,
		`{"flag":TRUE}`, `{"flag":tru}`, `{"flag":1}`,
		`{"name":"a\nb"}`, `{"name":"a\\b"}`, "{\"name\":\"a\x01b\"}", "{\"name\":\"a\xffb\"}", `{"name":"a`, `{"name":a}`, `{"name":null}`,
		`{"vals":null}`, `{"vals":[1,]}`, `{"vals":[,1]}`, `{"vals":[1 2]}`, `{"vals":[null]}`, `{"vals":[1e999]}`, `{"vals":[1`, `{"vals":1}`,
		`{"tags":[{"t":"a"},]}`, `{"tags":[{"t":"a"}`, `{"tags":[1]}`, `{"tags":null}`, `{"tags":{}}`,
	} {
		if _, _, _, _, _, ok := walk(doc); ok {
			t.Errorf("%q accepted", doc)
		}
	}
}

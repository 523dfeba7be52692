package v1

// The JSON codec of the two classify request bodies. A classify body is
// one object holding a float32 array (or an array of them) and a bool,
// and at 16 000 floats per window encoding/json spends more time on it
// than the DSP and the model together. This file encodes and decodes
// exactly that shape in one pass each. The wire format does not change:
// AppendJSON writes the bytes json.Marshal wrote, and the decoder only
// takes over inputs it fully recognises — everything else goes to
// encoding/json, so what is accepted, what is refused and with which
// message is encoding/json's decision alone.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
)

// --- Encoding ---

// AppendJSON appends r's JSON encoding to dst: the bytes json.Marshal
// produced before the type had a codec. NaN and infinities are refused
// with encoding/json's *json.UnsupportedValueError.
func (r ClassifyRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"features":`...)
	dst, err := appendFloats(dst, r.Features)
	if err != nil {
		return dst, err
	}
	return appendQuantized(dst, r.Quantized), nil
}

// MarshalJSON encodes r with AppendJSON into a fresh slice.
func (r ClassifyRequest) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, encodedSize(len(r.Features), 0)))
}

// AppendJSON appends r's JSON encoding to dst; see
// ClassifyRequest.AppendJSON.
func (r ClassifyBatchRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"windows":`...)
	if r.Windows == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, win := range r.Windows {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendFloats(dst, win); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return appendQuantized(dst, r.Quantized), nil
}

// MarshalJSON encodes r with AppendJSON into a fresh slice.
func (r ClassifyBatchRequest) MarshalJSON() ([]byte, error) {
	floats := 0
	for _, win := range r.Windows {
		floats += len(win)
	}
	return r.AppendJSON(make([]byte, 0, encodedSize(floats, len(r.Windows))))
}

// encodedSize estimates the encoded length of a body: a shortest
// float32 with sign, point and comma rarely passes 12 bytes.
func encodedSize(floats, windows int) int {
	return 12*floats + 3*windows + 48
}

func appendQuantized(dst []byte, quantized bool) []byte {
	dst = append(dst, `,"quantized":`...)
	dst = strconv.AppendBool(dst, quantized)
	return append(dst, '}')
}

func appendFloats(dst []byte, vals []float32) ([]byte, error) {
	if vals == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		f := float64(v)
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, &json.UnsupportedValueError{
				Value: reflect.ValueOf(v), Str: strconv.FormatFloat(f, 'g', -1, 32),
			}
		}
		dst = appendFloat32(dst, v)
	}
	return append(dst, ']'), nil
}

// appendFloat32 formats a finite float32 as encoding/json does: the
// shortest decimal that round-trips, in ES6 style — exponent form
// below 1e-6 and from 1e21, with a two-digit exponent's leading zero
// dropped (e-07 → e-7).
func appendFloat32(dst []byte, v float32) []byte {
	format := byte('f')
	if abs := float32(math.Abs(float64(v))); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(v), format, -1, 32)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// --- Decoding ---

// DecodeStrict is how the API reads a JSON request body: exactly one
// value, unknown fields refused so a typo fails loudly, and nothing but
// whitespace after the value.
func DecodeStrict(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	if err == io.EOF {
		return nil
	}
	var syntax *json.SyntaxError
	if err == nil || err == io.ErrUnexpectedEOF || errors.As(err, &syntax) {
		return errors.New("unexpected data after the JSON value")
	}
	return err // the reader failed, e.g. *http.MaxBytesError
}

// ClassifyDecoder decodes classify request bodies into storage it
// keeps, so a caller that decodes one body after another (the server,
// through a pool) allocates nothing once the storage has grown to its
// bodies. A decoded request aliases that storage: it is valid until the
// decoder's next call. The zero value is ready to use.
type ClassifyDecoder struct {
	floats  []float32   // every float of the body, window after window
	ends    []int       // batch: where each window ends in floats
	windows [][]float32 // batch: the window headers handed out
}

// Classify decodes a classify body into r, replacing its contents. It
// is strict in the way DecodeStrict is, and a number must fit float32.
func (d *ClassifyDecoder) Classify(data []byte, r *ClassifyRequest) error {
	floats := d.reserve(data)
	present, quantized, err := scanRequest(data, `"features"`, func(i int) (int, error) {
		var err error
		floats, i, err = scanFloats(data, i, floats)
		return i, err
	})
	if err != nil {
		return r.decodeStd(data)
	}
	d.floats = floats
	r.Features, r.Quantized = nil, quantized
	if present {
		r.Features = floats
	}
	return nil
}

// Batch decodes a batched classify body into r, replacing its contents;
// the windows are consecutive stretches of one array. It is strict in
// the way Classify is, and refuses a body with more than
// MaxClassifyBatch windows as soon as it meets the first one too many.
func (d *ClassifyDecoder) Batch(data []byte, r *ClassifyBatchRequest) error {
	floats, ends := d.reserve(data), d.ends[:0]
	present, quantized, err := scanRequest(data, `"windows"`, func(i int) (int, error) {
		var err error
		floats, ends, i, err = scanWindows(data, i, floats, ends)
		return i, err
	})
	d.ends = ends
	if err == errBatchTooLarge {
		return err
	}
	if err != nil {
		return r.decodeStd(data)
	}
	d.floats = floats
	r.Windows, r.Quantized = nil, quantized
	if present {
		// Sliced only now: floats may have moved while it grew.
		windows, start := d.windows[:0], 0
		for _, end := range ends {
			windows = append(windows, floats[start:end:end])
			start = end
		}
		d.windows = windows
		r.Windows = windows
		if len(windows) == 0 {
			r.Windows = [][]float32{}
		}
	}
	return nil
}

// DecodeJSON decodes a classify body into r with ClassifyDecoder's
// strictness, into fresh storage.
func (r *ClassifyRequest) DecodeJSON(data []byte) error {
	return new(ClassifyDecoder).Classify(data, r)
}

// UnmarshalJSON is DecodeJSON: every encoding/json user gets the
// strictness the server applies.
func (r *ClassifyRequest) UnmarshalJSON(data []byte) error { return r.DecodeJSON(data) }

// DecodeJSON decodes a batched classify body into r with
// ClassifyDecoder's strictness, into fresh storage.
func (r *ClassifyBatchRequest) DecodeJSON(data []byte) error {
	return new(ClassifyDecoder).Batch(data, r)
}

// UnmarshalJSON is DecodeJSON; see ClassifyRequest.UnmarshalJSON.
func (r *ClassifyBatchRequest) UnmarshalJSON(data []byte) error { return r.DecodeJSON(data) }

// decodeStd is the encoding/json decode of a body the scanner declined.
// The local type is the DTO minus its methods (UnmarshalJSON would
// recurse) under the DTO's name, which encoding/json's errors quote.
func (r *ClassifyRequest) decodeStd(data []byte) error {
	type ClassifyRequest struct {
		Features  []float32 `json:"features"`
		Quantized bool      `json:"quantized"`
	}
	var std ClassifyRequest
	if err := DecodeStrict(bytes.NewReader(data), &std); err != nil {
		return err
	}
	r.Features, r.Quantized = std.Features, std.Quantized
	return nil
}

// decodeStd: see ClassifyRequest.decodeStd.
func (r *ClassifyBatchRequest) decodeStd(data []byte) error {
	type ClassifyBatchRequest struct {
		Windows   [][]float32 `json:"windows"`
		Quantized bool        `json:"quantized"`
	}
	var std ClassifyBatchRequest
	if err := DecodeStrict(bytes.NewReader(data), &std); err != nil {
		return err
	}
	if len(std.Windows) > MaxClassifyBatch {
		return errBatchTooLarge
	}
	r.Windows, r.Quantized = std.Windows, std.Quantized
	return nil
}

var (
	// errDeclined sends a body to encoding/json; callers never see it.
	errDeclined      = errors.New("v1: not the fast path's input")
	errBatchTooLarge = fmt.Errorf("batch exceeds the limit of %d windows", MaxClassifyBatch)
)

// reserve returns the decoder's float storage, emptied and with room
// for every float data can hold, so the scan never grows it: each float
// but the first follows a comma, and takes at least two bytes with it
// (which keeps a body of nothing but commas from reserving more than a
// legitimate body of its size would).
func (d *ClassifyDecoder) reserve(data []byte) []float32 {
	need := bytes.Count(data, []byte{','}) + 1
	if most := len(data)/2 + 1; need > most {
		need = most
	}
	if cap(d.floats) < need {
		d.floats = make([]float32, 0, need)
	}
	return d.floats[:0]
}

// scanRequest walks a body of the shape {<arrayKey>: …, "quantized":
// bool} — both keys optional, in either order, at most once each,
// spelled exactly — and hands the array's position to array, which
// returns the position after it. It reports whether the array key was
// there. errDeclined means the body is not for the fast path; array's
// other errors are passed through.
func scanRequest(data []byte, arrayKey string, array func(i int) (int, error)) (present, quantized bool, err error) {
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return false, false, errDeclined
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		i++
	} else {
		seenQuantized := false
		for {
			rest := data[i:]
			switch {
			case !present && hasPrefix(rest, arrayKey):
				present = true
				if i = afterColon(data, i+len(arrayKey)); i < 0 {
					return false, false, errDeclined
				}
				if i, err = array(i); err != nil {
					return false, false, err
				}
			case !seenQuantized && hasPrefix(rest, `"quantized"`):
				seenQuantized = true
				if i = afterColon(data, i+len(`"quantized"`)); i < 0 {
					return false, false, errDeclined
				}
				switch rest = data[i:]; {
				case hasPrefix(rest, "true"):
					quantized, i = true, i+len("true")
				case hasPrefix(rest, "false"):
					quantized, i = false, i+len("false")
				default:
					return false, false, errDeclined
				}
			default: // unknown, repeated, escaped or case-folded key
				return false, false, errDeclined
			}
			i = skipSpace(data, i)
			if i >= len(data) {
				return false, false, errDeclined
			}
			if data[i] == '}' {
				i++
				break
			}
			if data[i] != ',' {
				return false, false, errDeclined
			}
			i = skipSpace(data, i+1)
		}
	}
	if skipSpace(data, i) != len(data) {
		return false, false, errDeclined // trailing data: DecodeStrict words the refusal
	}
	return present, quantized, nil
}

func hasPrefix(data []byte, prefix string) bool {
	return len(data) >= len(prefix) && string(data[:len(prefix)]) == prefix
}

// afterColon skips the colon after a key ending at i and returns the
// position of the value, which is inside data, or -1.
func afterColon(data []byte, i int) int {
	i = skipSpace(data, i)
	if i >= len(data) || data[i] != ':' {
		return -1
	}
	if i = skipSpace(data, i+1); i >= len(data) {
		return -1
	}
	return i
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// scanWindows appends the floats of the JSON array of number arrays at
// data[i] to floats, and where each inner array ends to ends. It stops
// with errBatchTooLarge where window MaxClassifyBatch+1 begins.
func scanWindows(data []byte, i int, floats []float32, ends []int) ([]float32, []int, int, error) {
	if data[i] != '[' {
		return floats, ends, i, errDeclined // null, or not an array
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return floats, ends, i + 1, nil
	}
	for {
		if len(ends) == MaxClassifyBatch {
			return floats, ends, i, errBatchTooLarge
		}
		var err error
		if floats, i, err = scanFloats(data, i, floats); err != nil {
			return floats, ends, i, err
		}
		ends = append(ends, len(floats))
		i = skipSpace(data, i)
		if i >= len(data) {
			return floats, ends, i, errDeclined
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return floats, ends, i + 1, nil
		default:
			return floats, ends, i, errDeclined
		}
	}
}

// scanFloats appends the numbers of the JSON array at data[i] to out and
// returns the position after the array.
func scanFloats(data []byte, i int, out []float32) ([]float32, int, error) {
	if i >= len(data) || data[i] != '[' {
		return out, i, errDeclined // null, or not an array
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return out, i + 1, nil
	}
	for {
		f, next, ok := scanFloat32(data, i)
		if !ok {
			return out, i, errDeclined
		}
		out = append(out, f)
		i = skipSpace(data, next)
		if i >= len(data) {
			return out, i, errDeclined
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return out, i + 1, nil
		default:
			return out, i, errDeclined
		}
	}
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanFloat32 parses the JSON number at data[i] to the float32
// strconv.ParseFloat(token, 32) returns — which is what encoding/json
// stores — and returns the position after it. It reports false for
// anything that is not a JSON number or does not fit float32; the byte
// after the token is the caller's to check.
//
// Most tokens take the exact path: a decimal mantissa below 2^53 and a
// power of ten up to 22 are both exact float64s, so one multiply or
// divide gives the correctly rounded float64 of the decimal (Clinger).
// Rounding that again to float32 can only go wrong if a float32
// midpoint lies between the decimal and its float64, and then the
// float64 — at most half an ulp from the decimal — is the midpoint
// itself: its 29 bits below float32 precision read 1000…0. Those tokens
// (and their two neighbours, for margin) go to strconv, as do mantissas
// and exponents beyond the exact range. A non-zero value of the exact
// path lies in [1e-22, 2^53·1e22], well inside float32's normal range,
// so the midpoint test needs no subnormal or overflow case.
func scanFloat32(data []byte, i int) (float32, int, bool) {
	start := i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	// mant collects every digit and wraps beyond 19 of them; exact says
	// whether mant and exp10 still are the token.
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
		if (math.Float64bits(f)&below)-(1<<28-1) > 2 {
			if neg {
				f = -f
			}
			return float32(f), i, true
		}
	}
	f, err := strconv.ParseFloat(string(data[start:i]), 32)
	return float32(f), i, err == nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

package v1

// The JSON codec of the request bodies that carry a signal: classify,
// batched classify and stream push. Such a body is one object holding a
// float32 array (or an array of them) and at most a bool, and at 16 000
// floats per window encoding/json spends more time on it than the DSP
// and the model together. This file encodes and decodes exactly those
// shapes in one pass each, with internal/numjson. The wire format does
// not change: AppendJSON writes the bytes json.Marshal wrote, and the
// decoders only take over inputs numjson fully recognises — everything
// else goes to encoding/json, so what is accepted, what is refused and
// with which message is encoding/json's decision alone.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"edgepulse/internal/numjson"
)

// --- Encoding ---

// AppendJSON appends r's JSON encoding to dst: the bytes json.Marshal
// produced before the type had a codec. NaN and infinities are refused
// with encoding/json's *json.UnsupportedValueError.
func (r ClassifyRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"features":`...)
	dst, err := numjson.AppendFloats(dst, r.Features)
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
			if dst, err = numjson.AppendFloats(dst, win); err != nil {
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

// AppendJSON appends r's JSON encoding to dst; see
// ClassifyRequest.AppendJSON.
func (r StreamPushRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := numjson.AppendFloats(append(dst, `{"samples":`...), r.Samples)
	return append(dst, '}'), err
}

// MarshalJSON encodes r with AppendJSON into a fresh slice.
func (r StreamPushRequest) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, encodedSize(len(r.Samples), 0)))
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
	present, quantized, ok := scanRequest(data, `"features"`, func(i int) (int, bool) {
		var ok bool
		floats, i, ok = numjson.ScanFloats(data, i, floats)
		return i, ok
	})
	if !ok {
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
	floats, ends, tooLarge := d.reserve(data), d.ends[:0], false
	present, quantized, ok := scanRequest(data, `"windows"`, func(i int) (int, bool) {
		return numjson.Array(data, i, func(i int) (int, bool) {
			if tooLarge = len(ends) == MaxClassifyBatch; tooLarge {
				return i, false
			}
			var ok bool
			floats, i, ok = numjson.ScanFloats(data, i, floats)
			ends = append(ends, len(floats))
			return i, ok
		})
	})
	d.ends = ends
	if tooLarge {
		return errBatchTooLarge
	}
	if !ok {
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

// DecodeJSON decodes a stream push body (or duplex line) into r,
// replacing its contents, with ClassifyDecoder's strictness. The samples
// are a fresh array: a session keeps them after the request is over.
func (r *StreamPushRequest) DecodeJSON(data []byte) error {
	samples := make([]float32, 0, numjson.MaxFloats(data))
	present := false
	ok := numjson.Body(data, []string{`"samples"`}, func(_, i int) (int, bool) {
		present = true
		var ok bool
		samples, i, ok = numjson.ScanFloats(data, i, samples)
		return i, ok
	})
	if !ok {
		return r.decodeStd(data)
	}
	if r.Samples = nil; present {
		r.Samples = samples
	}
	return nil
}

// UnmarshalJSON is DecodeJSON; see ClassifyRequest.UnmarshalJSON.
func (r *StreamPushRequest) UnmarshalJSON(data []byte) error { return r.DecodeJSON(data) }

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

// decodeStd: see ClassifyRequest.decodeStd.
func (r *StreamPushRequest) decodeStd(data []byte) error {
	type StreamPushRequest struct {
		Samples []float32 `json:"samples"`
	}
	var std StreamPushRequest
	if err := DecodeStrict(bytes.NewReader(data), &std); err != nil {
		return err
	}
	r.Samples = std.Samples
	return nil
}

var errBatchTooLarge = fmt.Errorf("batch exceeds the limit of %d windows", MaxClassifyBatch)

// reserve returns the decoder's float storage, emptied and with room
// for every float data can hold, so the scan never grows it.
func (d *ClassifyDecoder) reserve(data []byte) []float32 {
	if need := numjson.MaxFloats(data); cap(d.floats) < need {
		d.floats = make([]float32, 0, need)
	}
	return d.floats[:0]
}

// scanRequest walks a body of the shape {<arrayKey>: …, "quantized":
// bool} — see numjson.Object for what it takes — and hands the array's
// position to array, which returns the position after it. It reports
// whether the array key was there, and ok=false for a body that is not
// for the fast path.
func scanRequest(data []byte, arrayKey string, array func(i int) (int, bool)) (present, quantized, ok bool) {
	ok = numjson.Body(data, []string{arrayKey, `"quantized"`}, func(k, i int) (int, bool) {
		if k == 0 {
			present = true
			return array(i)
		}
		var ok bool
		quantized, i, ok = numjson.ScanBool(data, i)
		return i, ok
	})
	return present, quantized, ok
}

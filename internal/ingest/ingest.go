// Package ingest implements the data acquisition format and ingestion
// service of the platform (paper Sec. 4.1): sensor payloads encoded as
// JSON or CBOR, authenticated with an HMAC-SHA256 signature so that data
// arriving from devices in the field can be attributed and trusted.
//
// A document looks like:
//
//	{
//	  "protected": {"ver": "v1", "alg": "HS256", "iat": 1670000000},
//	  "signature": "<64 hex chars>",
//	  "payload": {
//	    "device_name": "ac:87:a3:0a:2d:1b",
//	    "device_type": "NANO33BLE",
//	    "interval_ms": 0.0625,
//	    "sensors": [{"name": "audio", "units": "wav"}],
//	    "values": [[-12], [9], ...]
//	  }
//	}
//
// The signature is computed over the full document with the signature
// field set to 64 zero characters, then substituted in — so verification
// MACs the raw document with zeros in place of the signature bytes, with
// no re-canonicalization step and no copy.
//
// A JSON document of exactly the shape above — what SignJSON writes — is
// decoded in one pass with internal/numjson; any other goes through
// encoding/json, so what Verify accepts, what it refuses and with which
// message does not depend on which path read the document.
package ingest

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"edgepulse/internal/cbor"
	"edgepulse/internal/dsp"
	"edgepulse/internal/numjson"
)

// Sensor describes one payload channel.
type Sensor struct {
	Name  string `json:"name"`
	Units string `json:"units"`
}

// Payload is the sensor data portion of an acquisition document.
type Payload struct {
	DeviceName string   `json:"device_name"`
	DeviceType string   `json:"device_type"`
	IntervalMS float64  `json:"interval_ms"`
	Sensors    []Sensor `json:"sensors"`
	// Values holds one row per time step, one column per sensor.
	Values [][]float64 `json:"values"`
}

// Rate returns the sample rate in Hz implied by the interval.
func (p Payload) Rate() int {
	if p.IntervalMS <= 0 {
		return 0
	}
	return int(1000/p.IntervalMS + 0.5)
}

// Signal converts the payload to a DSP signal (interleaved axes).
func (p Payload) Signal() dsp.Signal {
	axes := len(p.Sensors)
	if axes == 0 {
		axes = 1
	}
	data := make([]float32, 0, len(p.Values)*axes)
	for _, row := range p.Values {
		for a := 0; a < axes; a++ {
			if a < len(row) {
				data = append(data, float32(row[a]))
			} else {
				data = append(data, 0)
			}
		}
	}
	return dsp.Signal{Data: data, Rate: p.Rate(), Axes: axes}
}

// Validate checks structural invariants of the payload.
func (p Payload) Validate() error {
	if len(p.Sensors) == 0 {
		return fmt.Errorf("ingest: payload has no sensors")
	}
	if len(p.Values) == 0 {
		return fmt.Errorf("ingest: payload has no values")
	}
	if p.IntervalMS <= 0 {
		return fmt.Errorf("ingest: interval_ms must be positive")
	}
	// JSON has no spelling for NaN or an infinity; CBOR has.
	if !finite(p.IntervalMS) {
		return fmt.Errorf("ingest: interval_ms is not a finite number")
	}
	// The rate must fit an int32: a sample's hash takes it as 32 bits, and
	// the DSP blocks size their frames by it.
	if 1000/p.IntervalMS > math.MaxInt32 {
		return fmt.Errorf("ingest: interval_ms %g gives a sample rate above %d Hz", p.IntervalMS, math.MaxInt32)
	}
	for i, row := range p.Values {
		if len(row) != len(p.Sensors) {
			return fmt.Errorf("ingest: row %d has %d values for %d sensors", i, len(row), len(p.Sensors))
		}
		for _, v := range row {
			if !finite(v) {
				return fmt.Errorf("ingest: row %d holds a value that is not a finite number", i)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

type protected struct {
	Ver string `json:"ver"`
	Alg string `json:"alg"`
	Iat int64  `json:"iat"`
}

type document struct {
	Protected protected `json:"protected"`
	Signature string    `json:"signature"`
	Payload   Payload   `json:"payload"`
}

// payloadHead is a Payload's members ahead of values, the part of a
// document SignJSON leaves to encoding/json.
type payloadHead struct {
	DeviceName string   `json:"device_name"`
	DeviceType string   `json:"device_type"`
	IntervalMS float64  `json:"interval_ms"`
	Sensors    []Sensor `json:"sensors"`
}

const algHS256 = "HS256"

// zeroSignature stands in for the signature while a document is MAC'd.
var zeroSignature = bytes.Repeat([]byte{'0'}, 2*sha256.Size)

// mac returns the hex HMAC-SHA256 of the concatenation of parts.
func mac(key string, parts ...[]byte) []byte {
	h := hmac.New(sha256.New, []byte(key))
	for _, part := range parts {
		h.Write(part)
	}
	var sum [sha256.Size]byte
	return hex.AppendEncode(nil, h.Sum(sum[:0]))
}

// SignJSON encodes and signs a payload as a JSON acquisition document.
func SignJSON(p Payload, hmacKey string, iat int64) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	doc, sigAt, err := marshalDocument(p, iat)
	if err != nil {
		return nil, err
	}
	copy(doc[sigAt:], mac(hmacKey, doc))
	return doc, nil
}

// marshalDocument returns the unsigned document of p — the bytes
// json.Marshal gives for a document whose signature is all zeros — and
// where those 64 zeros are. The strings and interval_ms go through
// encoding/json; the values, which are all but a few hundred bytes of
// a document, through numjson.
func marshalDocument(p Payload, iat int64) (doc []byte, sigAt int, err error) {
	head, err := json.Marshal(payloadHead{p.DeviceName, p.DeviceType, p.IntervalMS, p.Sensors})
	if err != nil {
		return nil, 0, err
	}
	floats := 0
	for _, row := range p.Values {
		floats += len(row)
	}
	// A float32 sample widened to float64 prints 17 digits; a sign, a
	// zero, a point and a comma go with each, two brackets with each row.
	dst := make([]byte, 0, len(head)+21*floats+2*len(p.Values)+192)
	dst = append(dst, `{"protected":{"ver":"v1","alg":"`+algHS256+`","iat":`...)
	dst = strconv.AppendInt(dst, iat, 10)
	dst = append(dst, `},"signature":"`...)
	sigAt = len(dst)
	dst = append(dst, zeroSignature...)
	dst = append(dst, `","payload":`...)
	dst = append(dst, head[:len(head)-1]...) // the object stays open
	dst = append(dst, `,"values":`...)
	if p.Values == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range p.Values {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = numjson.AppendFloats(dst, row); err != nil {
				return nil, 0, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}"...), sigAt, nil
}

// SignCBOR encodes and signs a payload as a CBOR acquisition document.
func SignCBOR(p Payload, hmacKey string, iat int64) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sensors := make([]any, len(p.Sensors))
	for i, s := range p.Sensors {
		sensors[i] = map[string]any{"name": s.Name, "units": s.Units}
	}
	values := make([]any, len(p.Values))
	for i, row := range p.Values {
		values[i] = append([]float64(nil), row...)
	}
	doc := map[string]any{
		"protected": map[string]any{"ver": "v1", "alg": algHS256, "iat": iat},
		"signature": string(zeroSignature),
		"payload": map[string]any{
			"device_name": p.DeviceName,
			"device_type": p.DeviceType,
			"interval_ms": p.IntervalMS,
			"sensors":     sensors,
			"values":      values,
		},
	}
	unsigned, err := cbor.Marshal(doc)
	if err != nil {
		return nil, err
	}
	// cbor.Marshal sorts keys, so "signature" is the last of the three and
	// its value, the 64 zeros, the document's last 64 bytes — wherever the
	// payload's strings spell "signature" or zeros too.
	copy(unsigned[len(unsigned)-len(zeroSignature):], mac(hmacKey, unsigned))
	return unsigned, nil
}

// Verify authenticates a JSON or CBOR acquisition document (auto-detected)
// and returns its payload. A wrong key, tampered payload, or malformed
// document returns an error. The payload shares no memory with data.
func Verify(data []byte, hmacKey string) (Payload, error) {
	var p Payload
	var sig []byte
	sigAt := -1 // not known yet
	var err error
	if len(data) > 0 && data[0] == '{' {
		p, sig, sigAt, err = parseJSON(data)
	} else {
		var s string
		p, s, err = parseCBOR(data)
		sig = []byte(s)
	}
	if err != nil {
		return Payload{}, err
	}
	if len(sig) != len(zeroSignature) {
		return Payload{}, fmt.Errorf("ingest: signature has %d chars, want 64", len(sig))
	}
	if sigAt < 0 {
		sigAt = signatureAt(data, sig)
	}
	var want []byte
	if sigAt < 0 {
		// The document spells its signature some other way than the
		// bytes it decodes to (JSON escapes): nothing to blank out.
		want = mac(hmacKey, data)
	} else {
		want = mac(hmacKey, data[:sigAt], zeroSignature, data[sigAt+len(sig):])
	}
	if !hmac.Equal(want, sig) {
		return Payload{}, fmt.Errorf("ingest: signature mismatch")
	}
	if err := p.Validate(); err != nil {
		return Payload{}, err
	}
	return p, nil
}

// signatureAt locates the signature field's contents in a document
// that was not scanned byte by byte: the first occurrence of sig after
// the first "signature" (a device may be named anything, including what
// its document's signature turns out to be), or -1.
func signatureAt(data, sig []byte) int {
	from := bytes.Index(data, []byte("signature"))
	if from < 0 {
		from = 0 // a key spelled with escapes or in another case
	}
	at := bytes.Index(data[from:], sig)
	if at < 0 {
		return -1
	}
	return from + at
}

// parseJSON returns a JSON document's payload and signature, and where
// in data the signature is if the one-pass scan read it, else -1.
func parseJSON(data []byte) (p Payload, sig []byte, sigAt int, err error) {
	p, alg, sigAt, sigEnd, ok := scanJSON(data)
	if ok {
		sig = data[sigAt:sigEnd]
	} else {
		var doc document
		if err := json.Unmarshal(data, &doc); err != nil {
			return Payload{}, nil, 0, fmt.Errorf("ingest: bad JSON document: %w", err)
		}
		p, alg, sig, sigAt = doc.Payload, doc.Protected.Alg, []byte(doc.Signature), -1
	}
	if alg != algHS256 {
		return Payload{}, nil, 0, fmt.Errorf("ingest: unsupported algorithm %q", alg)
	}
	return p, sig, sigAt, nil
}

// The keys of a document, as numjson.Object takes them.
var (
	documentKeys  = []string{`"protected"`, `"signature"`, `"payload"`}
	protectedKeys = []string{`"ver"`, `"alg"`, `"iat"`}
	payloadKeys   = []string{`"device_name"`, `"device_type"`, `"interval_ms"`, `"sensors"`, `"values"`}
	sensorKeys    = []string{`"name"`, `"units"`}
)

// scanJSON decodes a document of the shape SignJSON writes in one pass:
// the members above in any order, each at most once, with plain strings
// (see numjson.ScanString) and no null. It returns what json.Unmarshal
// into a document would — the same strings, the same float64 bits, a
// nil slice exactly where Unmarshal leaves one — except that all rows
// of values are stretches of one array, and the signature comes as its
// position in data. ok=false means the document is encoding/json's to
// read, whether it is a valid one or not.
func scanJSON(data []byte) (p Payload, alg string, sigAt, sigEnd int, ok bool) {
	s := scanner{data: data}
	ok = numjson.Body(data, documentKeys, s.document)
	return s.p, s.alg, s.sigAt, s.sigEnd, ok
}

// scanner is the state of one scanJSON. Its methods are the value
// callbacks of numjson.Object and Array: each reads the value at i and
// returns the position after it, or false to decline the document.
type scanner struct {
	data          []byte
	p             Payload
	alg           string
	sigAt, sigEnd int
}

func (s *scanner) document(k, i int) (int, bool) {
	switch documentKeys[k] {
	case `"protected"`:
		return numjson.Object(s.data, i, protectedKeys, s.protected)
	case `"signature"`:
		sig, i, ok := numjson.ScanString(s.data, i)
		s.sigAt, s.sigEnd = i-1-len(sig), i-1
		return i, ok
	default:
		return numjson.Object(s.data, i, payloadKeys, s.payload)
	}
}

func (s *scanner) protected(k, i int) (int, bool) {
	switch protectedKeys[k] {
	case `"ver"`: // read by nobody
		_, i, ok := numjson.ScanString(s.data, i)
		return i, ok
	case `"alg"`:
		alg, i, ok := numjson.ScanString(s.data, i)
		if s.alg = algHS256; string(alg) != algHS256 {
			s.alg = string(alg)
		}
		return i, ok
	default: // "iat": read by nobody, but a float there is an error
		_, i, ok := numjson.ScanInt(s.data, i)
		return i, ok
	}
}

func (s *scanner) payload(k, i int) (int, bool) {
	switch payloadKeys[k] {
	case `"device_name"`:
		return s.str(i, &s.p.DeviceName)
	case `"device_type"`:
		return s.str(i, &s.p.DeviceType)
	case `"interval_ms"`:
		var ok bool
		s.p.IntervalMS, i, ok = numjson.ScanFloat(s.data, i, 64)
		return i, ok
	case `"sensors"`:
		s.p.Sensors = []Sensor{}
		return numjson.Array(s.data, i, s.sensor)
	default:
		return s.values(i)
	}
}

func (s *scanner) sensor(i int) (int, bool) {
	var sensor Sensor
	i, ok := numjson.Object(s.data, i, sensorKeys, func(k, i int) (int, bool) {
		if sensorKeys[k] == `"name"` {
			return s.str(i, &sensor.Name)
		}
		return s.str(i, &sensor.Units)
	})
	s.p.Sensors = append(s.p.Sensors, sensor)
	return i, ok
}

// values reads the rows into one array, reserved up front like the row
// headers: a row opens with a bracket and takes at least three bytes.
func (s *scanner) values(i int) (int, bool) {
	rest := s.data[i:]
	flat := make([]float64, 0, numjson.MaxFloats(rest))
	s.p.Values = make([][]float64, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/3+1))
	return numjson.Array(s.data, i, func(i int) (int, bool) {
		start := len(flat)
		var ok bool
		flat, i, ok = numjson.ScanFloats(s.data, i, flat)
		s.p.Values = append(s.p.Values, flat[start:len(flat):len(flat)])
		return i, ok
	})
}

func (s *scanner) str(i int, dst *string) (int, bool) {
	val, i, ok := numjson.ScanString(s.data, i)
	*dst = string(val)
	return i, ok
}

func parseCBOR(data []byte) (Payload, string, error) {
	v, err := cbor.Unmarshal(data)
	if err != nil {
		return Payload{}, "", fmt.Errorf("ingest: bad CBOR document: %w", err)
	}
	doc, ok := v.(map[string]any)
	if !ok {
		return Payload{}, "", fmt.Errorf("ingest: CBOR document is not a map")
	}
	prot, _ := doc["protected"].(map[string]any)
	if alg, _ := prot["alg"].(string); alg != algHS256 {
		return Payload{}, "", fmt.Errorf("ingest: unsupported algorithm %v", prot["alg"])
	}
	sig, _ := doc["signature"].(string)
	pl, ok := doc["payload"].(map[string]any)
	if !ok {
		return Payload{}, "", fmt.Errorf("ingest: missing payload")
	}
	var p Payload
	p.DeviceName, _ = pl["device_name"].(string)
	p.DeviceType, _ = pl["device_type"].(string)
	switch iv := pl["interval_ms"].(type) {
	case float64:
		p.IntervalMS = iv
	case uint64:
		p.IntervalMS = float64(iv)
	case int64:
		p.IntervalMS = float64(iv)
	}
	if sensors, ok := pl["sensors"].([]any); ok {
		for _, s := range sensors {
			sm, _ := s.(map[string]any)
			var sensor Sensor
			sensor.Name, _ = sm["name"].(string)
			sensor.Units, _ = sm["units"].(string)
			p.Sensors = append(p.Sensors, sensor)
		}
	}
	if values, ok := pl["values"].([]any); ok {
		for _, r := range values {
			row, ok := r.([]any)
			if !ok {
				return Payload{}, "", fmt.Errorf("ingest: values row is not an array")
			}
			frow := make([]float64, len(row))
			for i, e := range row {
				switch n := e.(type) {
				case float64:
					frow[i] = n
				case uint64:
					frow[i] = float64(n)
				case int64:
					frow[i] = float64(n)
				default:
					return Payload{}, "", fmt.Errorf("ingest: non-numeric value %T", e)
				}
			}
			p.Values = append(p.Values, frow)
		}
	}
	return p, sig, nil
}

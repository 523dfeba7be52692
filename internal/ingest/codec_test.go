package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// audioPayload is one second of 16 kHz audio the way a device sends it:
// float32 samples widened to float64, one row per sample.
func audioPayload(rows int) Payload {
	rng := rand.New(rand.NewSource(1))
	p := Payload{
		DeviceName: "ac:87:a3:0a:2d:1b", DeviceType: "NANO33BLE", IntervalMS: 0.0625,
		Sensors: []Sensor{{Name: "audio", Units: "wav"}},
	}
	for i := 0; i < rows; i++ {
		p.Values = append(p.Values, []float64{float64(float32(0.3 * rng.NormFloat64()))})
	}
	return p
}

// parentSignJSON is SignJSON as it was before the one-pass encoder:
// json.Marshal of the whole document, then a substitution.
func parentSignJSON(p Payload, hmacKey string, iat int64) ([]byte, error) {
	doc := document{Protected: protected{Ver: "v1", Alg: "HS256", Iat: iat}, Signature: string(zeroSignature), Payload: p}
	unsigned, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return bytes.Replace(unsigned, zeroSignature, mac(hmacKey, unsigned), 1), nil
}

// parentVerify is Verify as it was before the one-pass scan:
// json.Unmarshal, and the MAC over a copy of the document with the first
// occurrence of the signature's characters zeroed. (That the two differ
// where that is not the signature field takes a fixed point of the MAC
// to observe; see TestSignatureLocatedByPosition.)
func parentVerify(data []byte, hmacKey string) (Payload, error) {
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return Payload{}, fmt.Errorf("ingest: bad JSON document: %w", err)
	}
	if doc.Protected.Alg != "HS256" {
		return Payload{}, fmt.Errorf("ingest: unsupported algorithm %q", doc.Protected.Alg)
	}
	sig := []byte(doc.Signature)
	if len(sig) != 64 {
		return Payload{}, fmt.Errorf("ingest: signature has %d chars, want 64", len(sig))
	}
	if !bytes.Equal(mac(hmacKey, bytes.Replace(data, sig, zeroSignature, 1)), sig) {
		return Payload{}, fmt.Errorf("ingest: signature mismatch")
	}
	if err := doc.Payload.Validate(); err != nil {
		return Payload{}, err
	}
	return doc.Payload, nil
}

// samePayload reports whether two payloads agree in every string, in
// every float bit for bit, and in which slices are nil.
func samePayload(a, b Payload) bool {
	if a.DeviceName != b.DeviceName || a.DeviceType != b.DeviceType ||
		math.Float64bits(a.IntervalMS) != math.Float64bits(b.IntervalMS) ||
		!reflect.DeepEqual(a.Sensors, b.Sensors) ||
		(a.Values == nil) != (b.Values == nil) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if (a.Values[i] == nil) != (b.Values[i] == nil) || len(a.Values[i]) != len(b.Values[i]) {
			return false
		}
		for j := range a.Values[i] {
			if math.Float64bits(a.Values[i][j]) != math.Float64bits(b.Values[i][j]) {
				return false
			}
		}
	}
	return true
}

// randomPayload draws a payload whose strings and floats exercise every
// branch of encoding/json's string escaping and float formatting.
func randomPayload(rng *rand.Rand) Payload {
	stringsPool := []string{"", "dev", "ac:87:a3", "a<b>&c", "line\u2028sep\u2029", "bad\xffutf8", "q\"uote\\", "tab\there", "é☃", "\x00"}
	str := func() string { return stringsPool[rng.Intn(len(stringsPool))] }
	float := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return float64(rng.Intn(65536) - 32768)
		case 1:
			return []float64{1e-7, 1e21, 1e-6, 9.99e20, 0, math.Copysign(0, -1), math.MaxFloat64, 5e-324}[rng.Intn(8)]
		case 2:
			return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(2046)+1)<<52)
		default:
			return float64(float32(rng.NormFloat64()))
		}
	}
	p := Payload{DeviceName: str(), DeviceType: str(), IntervalMS: 0.01 + 100*rng.Float64()}
	for i, axes := 0, 1+rng.Intn(3); i < axes; i++ {
		p.Sensors = append(p.Sensors, Sensor{Name: str(), Units: str()})
	}
	for i, rows := 0, 1+rng.Intn(40); i < rows; i++ {
		row := make([]float64, len(p.Sensors))
		for j := range row {
			row[j] = float()
		}
		p.Values = append(p.Values, row)
	}
	return p
}

// TestSignJSONMatchesEncodingJSON: the one-pass encoder writes the
// parent's bytes for the same (payload, key, iat), refuses what
// json.Marshal refuses with its error, and Verify returns the payload
// json.Unmarshal would — whichever path reads the document.
func TestSignJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		p, iat := randomPayload(rng), rng.Int63()-rng.Int63()
		want, err := parentSignJSON(p, "key", iat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SignJSON(p, "key", iat)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("payload %d: SignJSON %.200s (%v)\nencoding/json %.200s", i, got, err, want)
		}
		back, err := Verify(got, "key")
		ref, refErr := parentVerify(got, "key")
		if err != nil || refErr != nil || !samePayload(back, ref) {
			t.Fatalf("payload %d: Verify %v, parent %v, same=%v\n%.300s", i, err, refErr, samePayload(back, ref), got)
		}
	}
	// Validate keeps these from SignJSON; the encoder on its own still
	// answers as json.Marshal does.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, p := range []Payload{
			{Sensors: []Sensor{{}}, IntervalMS: 1, Values: [][]float64{{1}, {v}}},
			{Sensors: []Sensor{{}}, IntervalMS: v, Values: [][]float64{{1}}},
		} {
			_, want := json.Marshal(document{Payload: p})
			var unsupported *json.UnsupportedValueError
			if _, _, err := marshalDocument(p, 1); !errors.As(err, &unsupported) || err.Error() != want.Error() {
				t.Fatalf("%v: error %v, encoding/json %v", v, err, want)
			}
		}
	}
	// Shapes Validate refuses too, byte for byte.
	for _, p := range []Payload{{}, {Values: [][]float64{}}, {Values: [][]float64{nil, {}}, Sensors: []Sensor{}}} {
		want, _ := json.Marshal(document{Protected: protected{"v1", "HS256", 7}, Signature: string(zeroSignature), Payload: p})
		if got, _, err := marshalDocument(p, 7); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("marshalDocument %s (%v), encoding/json %s", got, err, want)
		}
	}
}

// jsonDocuments are documents at and around the edge of what the
// one-pass scan takes. The signed ones are signed with "k".
func jsonDocuments(t testing.TB) []string {
	signed, err := SignJSON(samplePayload(), "k", 1670000000)
	if err != nil {
		t.Fatal(err)
	}
	s := string(signed)
	sig := s[strings.Index(s, `"signature":"`)+len(`"signature":"`):][:64]
	prot, rest := `"protected":{"ver":"v1","alg":"HS256","iat":1670000000}`, s[strings.Index(s, `,"signature"`):]
	payload := s[strings.Index(s, `"payload":`) : len(s)-1]
	docs := []string{
		s,
		strings.NewReplacer(",", " ,\n", ":", " : ", "[", "[ ", "]", " ]", "{", "{\t", "}", "\r}").Replace(s) + "\n",
		"{" + payload + `,"signature":"` + sig + `",` + prot + "}", // reordered
		`{"signature":"` + sig + `",` + payload + "," + prot + "}",
		"{" + prot + rest[:len(rest)-1] + `,"signature":"` + sig + `"}`,             // duplicate key
		"{" + prot + rest[:len(rest)-1] + `,"extra":1}`,                             // unknown key
		"{" + strings.Replace(prot, `"alg"`, `"ALG"`, 1) + rest,                     // case-folded key
		"{" + strings.Replace(prot, `"alg"`, `"\u0061lg"`, 1) + rest,                // escaped key
		"{" + strings.Replace(prot, `HS256`, `HS\u003256`, 1) + rest,                // escaped value
		"{" + strings.Replace(prot, `HS256`, `none`, 1) + rest,                      // refused algorithm
		"{" + strings.Replace(prot, `"v1"`, `null`, 1) + rest,                       // null string
		"{" + strings.Replace(prot, `1670000000`, `1.67e9`, 1) + rest,               // float for an int
		"{" + strings.Replace(prot, `1670000000`, `-0`, 1) + rest,                   //
		"{" + strings.Replace(prot, `1670000000`, `12345678901234567890`, 1) + rest, // int64 overflow
		"{" + strings.Replace(prot, `,"iat":1670000000`, ``, 1) + rest,              // member left out
		`{"signature":"` + sig + `",` + payload + "}",                               // no protected
		"{" + prot + "," + payload + "}",                                            // no signature
		"{" + prot + `,"signature":"` + sig + `"}`,                                  // no payload
		strings.Replace(s, sig, strings.ToUpper(sig), 1),
		strings.Replace(s, sig, sig[:63], 1),
		strings.Replace(s, sig, sig[:32]+`0`+sig[33:], 1),
		strings.Replace(s, `"NANO33BLE"`, `"NANO\n33"`, 1),
		strings.Replace(s, `"NANO33BLE"`, "\"NANO\xff33\"", 1),
		strings.Replace(s, `"NANO33BLE"`, "\"NANO\x0133\"", 1),
		strings.Replace(s, `"NANO33BLE"`, `"é☃"`, 1),
		strings.Replace(s, `"NANO33BLE"`, `"`+sig+`"`, 1),
		strings.Replace(s, `"interval_ms":16`, `"interval_ms":1.6e1`, 1),
		strings.Replace(s, `"interval_ms":16`, `"interval_ms":1e400`, 1),
		strings.Replace(s, `"interval_ms":16`, `"interval_ms":"16"`, 1),
		strings.Replace(s, `"interval_ms":16`, `"interval_ms":-0`, 1),
		strings.Replace(s, `[0.1,0.2]`, `[-0,1e-7,12345678901234567890,0.10000000149011612]`, 1),
		strings.Replace(s, `[0.1,0.2]`, `[1E+2,2e-05]`, 1),
		strings.Replace(s, `[0.1,0.2]`, `[]`, 1),
		strings.Replace(s, `[0.1,0.2]`, `null`, 1),
		strings.Replace(s, `[0.1,0.2]`, `[null,1]`, 1),
		strings.Replace(s, `[0.1,0.2]`, `[01,2]`, 1),
		strings.Replace(s, `[0.1,0.2]`, `[1,2,]`, 1),
		strings.Replace(s, `[0.1,0.2]`, `[1e999,2]`, 1),
		strings.Replace(s, `[0.1,0.2]`, `["1",2]`, 1),
		strings.Replace(s, `[0.1,0.2]`, `0.1`, 1),
		strings.Replace(s, `{"name":"accX","units":"m/s2"}`, `{"units":"m/s2","name":"accX"}`, 1),
		strings.Replace(s, `{"name":"accX","units":"m/s2"}`, `{}`, 1),
		strings.Replace(s, `{"name":"accX","units":"m/s2"}`, `null`, 1),
		strings.Replace(s, `{"name":"accX","units":"m/s2"}`, `{"name":"accX","gain":2}`, 1),
		`{"protected":{"alg":"HS256"},"signature":"` + sig + `","payload":{"sensors":[],"values":[]}}`,
		`{"protected":{"alg":"HS256"},"signature":"` + sig + `","payload":{"sensors":null,"values":null}}`,
		`{"protected":{},"signature":"","payload":{}}`,
		`{}`, ` {}`, `{} x`, `{`, `{"protected"`, `{"protected":{"alg":"HS256"},"signature":"x","payload":{}} {}`,
	}
	for _, cut := range []int{1, 20, 60, 130, 200, len(s) - 30, len(s) - 2, len(s) - 1} {
		docs = append(docs, s[:cut]) // truncations
	}
	return docs
}

// checkAgainstParent holds Verify to the parent's Verify on one
// document: where the scan takes it, json.Unmarshal takes it too and
// decodes the same payload, algorithm and signature; and the verdict,
// the payload and the error text are the parent's.
func checkAgainstParent(t *testing.T, data []byte, key string) {
	t.Helper()
	if p, alg, sigAt, sigEnd, ok := scanJSON(data); ok {
		var doc document
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%q: scanned, but encoding/json says %v", data, err)
		}
		if !samePayload(p, doc.Payload) || alg != doc.Protected.Alg || string(data[sigAt:sigEnd]) != doc.Signature {
			t.Fatalf("%q: scanned %+v %q %q, encoding/json %+v", data, p, alg, data[sigAt:sigEnd], doc)
		}
	}
	if len(data) == 0 || data[0] != '{' {
		return // CBOR's to read
	}
	got, err := Verify(data, key)
	want, wantErr := parentVerify(data, key)
	switch {
	case err == nil && wantErr == nil:
		if !samePayload(got, want) {
			t.Fatalf("%q: Verify %+v, parent %+v", data, got, want)
		}
	case err == nil || wantErr == nil || err.Error() != wantErr.Error():
		t.Fatalf("%q: Verify says %v, parent %v", data, err, wantErr)
	}
}

func TestVerifyAgainstEncodingJSON(t *testing.T) {
	for _, doc := range jsonDocuments(t) {
		checkAgainstParent(t, []byte(doc), "k")
	}
}

func FuzzVerifyJSON(f *testing.F) {
	for _, doc := range jsonDocuments(f) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstParent(t, data, "k") })
}

// FuzzVerifyCBOR: Verify refuses what it must on any CBOR input without
// panicking, and a payload it accepts signs again with SignCBOR into a
// document that verifies back to the same payload, bit for bit.
func FuzzVerifyCBOR(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	odd := samplePayload()
	odd.DeviceName, odd.DeviceType = "signature", string(zeroSignature)
	for _, p := range []Payload{samplePayload(), odd, randomPayload(rng), randomPayload(rng), audioPayload(4)} {
		doc, err := SignCBOR(p, "k", 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && data[0] == '{' {
			return // JSON: FuzzVerifyJSON's
		}
		p, err := Verify(data, "k")
		if err != nil {
			return
		}
		doc, err := SignCBOR(p, "k", 1)
		if err != nil {
			t.Fatalf("accepted %+v, which SignCBOR refuses: %v", p, err)
		}
		if back, err := Verify(doc, "k"); err != nil || !samePayload(back, p) {
			t.Fatalf("accepted %+v; signed again, it verifies as %+v (%v)", p, back, err)
		}
	})
}

// TestScanTakesWhatSignWrites: the documents devices actually send are
// read by the one-pass scan, not by the fallback, rows out of one array.
func TestScanTakesWhatSignWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		p := randomPayload(rng)
		p.DeviceName, p.DeviceType = "dev-é", "TYPE 1" // plain: no escape, valid UTF-8
		for j := range p.Sensors {
			p.Sensors[j] = Sensor{Name: fmt.Sprint("s", j), Units: "u"}
		}
		data, err := SignJSON(p, "k", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, _, ok := scanJSON(data)
		if !ok || !samePayload(got, p) {
			t.Fatalf("document %d not scanned (ok=%v): %.200s", i, ok, data)
		}
		for j, row := range got.Values[1:] {
			prev := got.Values[j]
			if reflect.ValueOf(row).Pointer() != reflect.ValueOf(prev).Pointer()+uintptr(8*len(prev)) {
				t.Fatalf("document %d: row %d does not follow row %d in one array", i, j+1, j)
			}
		}
		if got.Values[0] = append(got.Values[0], 9); len(got.Values) > 1 && got.Values[1][0] != p.Values[1][0] {
			t.Fatal("appending to one row overwrote the next")
		}
	}
}

// TestSignatureLocatedByPosition: the signature is the contents of the
// signature field, not the first stretch of the document that reads the
// same. In a CBOR document the payload sorts ahead of the signature, and
// SignCBOR used to write the MAC over the first placeholder it found: in
// the name of a device named as the placeholder, and, once the search
// began after the first "signature", in the type of a device named
// "signature" whose type is the placeholder (a document Verify then
// refused). The mirror case in Verify — a device named as its own
// document's signature — needs a fixed point of the MAC to build, so
// there the position itself is checked, on all three paths.
func TestSignatureLocatedByPosition(t *testing.T) {
	p := samplePayload()
	named, typed := p, p
	named.DeviceName = string(zeroSignature)
	typed.DeviceName, typed.DeviceType = "signature", string(zeroSignature)
	for name, sign := range map[string]func(Payload, string, int64) ([]byte, error){"JSON": SignJSON, "CBOR": SignCBOR} {
		for _, p := range []Payload{named, typed} {
			signed, err := sign(p, "k", 1)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := Verify(signed, "k"); err != nil || !samePayload(got, p) {
				t.Errorf("%s, device %q of type %q: %+v, %v", name, p.DeviceName, p.DeviceType, got, err)
			}
		}
	}

	sig := strings.Repeat("5a", 32)
	p.DeviceName = sig
	signed, _ := SignJSON(p, "k", 1)
	s := string(signed)
	payload, prot := s[strings.Index(s, `"payload":`):len(s)-1], s[1:strings.Index(s, `,"signature"`)]
	scanned := "{" + payload + `,"signature":"` + sig + `",` + prot + "}"
	want := strings.LastIndex(scanned, sig)
	if want == strings.Index(scanned, sig) {
		t.Fatal("the document does not hold the signature's characters twice")
	}
	if _, _, sigAt, sigEnd, ok := scanJSON([]byte(scanned)); !ok || sigAt != want || sigEnd != want+64 {
		t.Errorf("scan: signature at %d:%d (ok=%v), want %d", sigAt, sigEnd, ok, want)
	}
	fallback := scanned[:len(scanned)-1] + `,"unknown":"keys are encoding/json's"}`
	if _, _, _, _, ok := scanJSON([]byte(fallback)); ok {
		t.Error("a document with an unknown key was scanned")
	}
	if _, got, sigAt, err := parseJSON([]byte(fallback)); err != nil || sigAt != -1 || signatureAt([]byte(fallback), got) != want {
		t.Errorf("encoding/json: signature %q at %d, want %d (%v)", got, signatureAt([]byte(fallback), got), want, err)
	}
	doc, _ := SignCBOR(p, "k", 1)
	field := bytes.LastIndex(doc, []byte("signature")) + len("signature") + 2 // a two-byte string header
	copy(doc[field:], sig)
	if first := bytes.Index(doc, []byte(sig)); first >= field {
		t.Fatal("the CBOR document does not put its payload first")
	}
	if at := signatureAt(doc, []byte(sig)); at != field {
		t.Errorf("CBOR: signature at %d, want %d", at, field)
	}
}

// TestNonFiniteRejected: CBOR can spell NaN and the infinities, which
// compare false to every bound; Validate refuses them by name, in a
// payload and in a correctly signed document.
func TestNonFiniteRejected(t *testing.T) {
	const sentinelInterval, sentinelValue = 16, -0.5 // samplePayload's interval_ms and Values[2][0]
	for _, tc := range []struct {
		name     string
		sentinel float64
		with     float64
		want     string
	}{
		{"interval NaN", sentinelInterval, math.NaN(), "ingest: interval_ms is not a finite number"},
		{"interval +Inf", sentinelInterval, math.Inf(1), "ingest: interval_ms is not a finite number"},
		{"interval -Inf", sentinelInterval, math.Inf(-1), "ingest: interval_ms must be positive"},
		{"value NaN", sentinelValue, math.NaN(), "ingest: row 2 holds a value that is not a finite number"},
		{"value +Inf", sentinelValue, math.Inf(1), "ingest: row 2 holds a value that is not a finite number"},
		{"value -Inf", sentinelValue, math.Inf(-1), "ingest: row 2 holds a value that is not a finite number"},
	} {
		p := samplePayload()
		if tc.sentinel == sentinelInterval {
			p.IntervalMS = tc.with
		} else {
			p.Values[2][0] = tc.with
		}
		if err := p.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate says %v, want %q", tc.name, err, tc.want)
		}
		for _, sign := range []func(Payload, string, int64) ([]byte, error){SignJSON, SignCBOR} {
			if _, err := sign(p, "k", 1); err == nil || err.Error() != tc.want {
				t.Errorf("%s: signing says %v, want %q", tc.name, err, tc.want)
			}
		}
		// A device's own encoder need not be so careful: put the value
		// into a signed CBOR document in place of the finite one, and
		// sign that again.
		doc, err := SignCBOR(samplePayload(), "k", 1)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(doc, binary.BigEndian.AppendUint64([]byte{0xfb}, math.Float64bits(tc.sentinel)))
		if at < 0 {
			t.Fatalf("%s: the document does not hold %v as a float64", tc.name, tc.sentinel)
		}
		binary.BigEndian.PutUint64(doc[at+1:], math.Float64bits(tc.with))
		field := bytes.LastIndex(doc, []byte("signature")) + len("signature") + 2
		copy(doc[field:], zeroSignature)
		copy(doc[field:], mac("k", doc))
		if _, err := Verify(doc, "k"); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Verify says %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestVerifyAllocs(t *testing.T) {
	data, err := SignJSON(audioPayload(16000), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	macAllocs := testing.AllocsPerRun(20, func() { mac("k", data[:100], zeroSignature, data[164:]) })
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Verify(data, "k"); err != nil {
			t.Fatal(err)
		}
	})
	// crypto/hmac's own come to 7 in go1.24; the rest are the payload:
	// one array of values, the row headers, the sensors and four strings.
	if allocs-macAllocs > 8 {
		t.Fatalf("Verify allocates %v times, %v of them for the MAC", allocs, macAllocs)
	}
}

func BenchmarkIngestCodec(b *testing.B) {
	p := audioPayload(16000)
	data, err := SignJSON(p, "k", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Sign", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := SignJSON(p, "k", 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Verify", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Verify(data, "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SignEncodingJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parentSignJSON(p, "k", 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("VerifyEncodingJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parentVerify(data, "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

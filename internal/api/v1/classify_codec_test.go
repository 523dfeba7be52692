package v1

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The DTOs without their methods: what encoding/json did with a classify
// body before the codec existed, and still the reference for it.
type (
	stdClassify struct {
		Features  []float32 `json:"features"`
		Quantized bool      `json:"quantized"`
	}
	stdBatch struct {
		Windows   [][]float32 `json:"windows"`
		Quantized bool        `json:"quantized"`
	}
	stdStreamPush struct {
		Samples []float32 `json:"samples"`
	}
)

// encodeCases are float sets whose encoding exercises every branch of
// encoding/json's float formatting.
func encodeCases() [][]float32 {
	rng := rand.New(rand.NewSource(7))
	random := make([]float32, 4096)
	for i := range random {
		random[i] = float32(rng.NormFloat64())
	}
	anyBits := make([]float32, 0, 4096)
	for len(anyBits) < cap(anyBits) {
		if v := math.Float32frombits(rng.Uint32()); v == v && !math.IsInf(float64(v), 0) {
			anyBits = append(anyBits, v)
		}
	}
	// Powers of two, where the float below is nearer than the one above
	// and the shortest decimal's interval is lopsided, and subnormals,
	// which have fewer than 24 bits to round-trip.
	var powers, subnormals []float32
	for e := -126; e <= 127; e++ {
		p := float32(math.Ldexp(1, e))
		powers = append(powers, p, -p, math.Nextafter32(p, 0), math.Nextafter32(p, math.MaxFloat32))
	}
	for b := uint32(1); b < 1<<23; b = b*3 + 1 {
		subnormals = append(subnormals, math.Float32frombits(b), -math.Float32frombits(1<<23-b))
	}
	return [][]float32{
		nil,
		{},
		{0, float32(math.Copysign(0, -1)), 1, -1, 16000, 1 << 24, 255, -32768},
		{1e-6, 9.999999e-7, 1e-7, 1.5e-10, 1e-38, 1e-45, -3e-9},
		{1e21, 9.999999e20, 1e22, 3.4028235e38, -1e30, 1.5e25},
		random,
		anyBits,
		powers,
		subnormals,
	}
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	cases := encodeCases()
	for i, vals := range cases {
		for _, quantized := range []bool{false, true} {
			want, err := json.Marshal(stdClassify{vals, quantized})
			if err != nil {
				t.Fatal(err)
			}
			req := ClassifyRequest{vals, quantized}
			got, err := req.AppendJSON(nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("case %d: AppendJSON %.80s (%v), encoding/json %.80s", i, got, err, want)
			}
			// Through encoding/json (MarshalJSON + its compaction).
			if got, err = json.Marshal(req); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("case %d: json.Marshal %.80s (%v), want %.80s", i, got, err, want)
			}
		}
		want, err := json.Marshal(stdStreamPush{vals})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := json.Marshal(StreamPushRequest{vals}); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("case %d: stream push %.80s (%v), encoding/json %.80s", i, got, err, want)
		}
	}
	for _, windows := range [][][]float32{nil, {}, {nil}, {{}}, cases, cases[2:5]} {
		want, err := json.Marshal(stdBatch{windows, true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ClassifyBatchRequest{windows, true}.MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("batch: MarshalJSON %.80s (%v), encoding/json %.80s", got, err, want)
		}
	}
}

func TestAppendJSONRefusesNonFinite(t *testing.T) {
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		_, want := json.Marshal(stdClassify{Features: []float32{1, v}})
		_, got := ClassifyRequest{Features: []float32{1, v}}.AppendJSON(nil)
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("%v: error %v, encoding/json %v", v, got, want)
		}
		if _, err := (ClassifyBatchRequest{Windows: [][]float32{{v}}}).MarshalJSON(); err == nil {
			t.Fatalf("%v accepted in a batch", v)
		}
		if _, err := (StreamPushRequest{Samples: []float32{v}}).MarshalJSON(); err == nil || err.Error() != want.Error() {
			t.Fatalf("%v in a stream push: error %v, encoding/json %v", v, err, want)
		}
	}
}

// sameFloats reports whether two decoded arrays agree bit for bit,
// nil-ness included.
func sameFloats(a, b []float32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestDecodeRoundTrip(t *testing.T) {
	var dec ClassifyDecoder // reused: storage from one body must not leak into the next
	cases := encodeCases()
	for i, vals := range cases {
		body, err := ClassifyRequest{vals, i%2 == 0}.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var got ClassifyRequest
		if err := dec.Classify(body, &got); err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got.Features, vals) || got.Quantized != (i%2 == 0) {
			t.Fatalf("case %d: decoded %d floats quantized=%v", i, len(got.Features), got.Quantized)
		}
		var viaJSON ClassifyRequest
		if err := json.Unmarshal(body, &viaJSON); err != nil || !sameFloats(viaJSON.Features, vals) {
			t.Fatalf("case %d: json.Unmarshal: %v", i, err)
		}
	}
	body, err := ClassifyBatchRequest{cases, true}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		var got ClassifyBatchRequest
		if err := dec.Batch(body, &got); err != nil {
			t.Fatal(err)
		}
		// (cases[0] is a nil window, encoded null: the one shape here
		// that the scanner leaves to encoding/json.)
		if len(got.Windows) != len(cases) || !got.Quantized {
			t.Fatalf("decoded %d windows", len(got.Windows))
		}
		for i, win := range got.Windows {
			if !sameFloats(win, cases[i]) {
				t.Fatalf("window %d differs", i)
			}
		}
	}
	// The all-scanner path: windows are stretches of one array.
	var got ClassifyBatchRequest
	if err := dec.Batch([]byte(` { "quantized" : true , "windows" : [ [1, 2] , [ ] , [3] ] } `), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Windows) != 3 || !sameFloats(got.Windows[0], []float32{1, 2}) ||
		!sameFloats(got.Windows[1], []float32{}) || !sameFloats(got.Windows[2], []float32{3}) {
		t.Fatalf("decoded %v", got.Windows)
	}
	if got.Windows[0] = append(got.Windows[0], 9); got.Windows[2][0] != 3 {
		t.Fatal("appending to one window overwrote the next")
	}
}

// decodeBodies are bodies at and around the edge of what the scanner
// takes; the differential tests here and in internal/api share them.
var decodeBodies = []string{
	`{"features":[1,2.5,-3e-7],"quantized":true}`,
	`{"quantized":false,"features":[0.1]}`,
	` {"features" : [ 1 , 2 ] } `,
	`{}`, `{"features":[]}`, `{"features":null}`, `{"quantized":true}`, `{"features":[null,1]}`,
	`{"Features":[1]}`, `{"FEATURES":[1],"features":[2]}`, `{"features":[1],"features":[2]}`,
	`{"features":[1]}`, `{"features":[1],"extra":1}`, `{"quantized":1}`, `{"quantized":"true"}`,
	`{"quantized":null}`, `{"features":[1e39]}`, `{"features":[-1e39]}`, `{"features":[1e-60]}`,
	`{"features":[01]}`, `{"features":[.5]}`, `{"features":[1.]}`, `{"features":[+1]}`, `{"features":[1,]}`,
	`{"features":[,1]}`, `{"features":[1 2]}`, `{"features":["1"]}`, `{"features":[[1]]}`, `{"features":1}`,
	`{"features":[1]`, `{"features":[1`, `{"features":`, `{"features"`, `{`, ``, ` `, `null`, `[]`, `[1,2]`, `"x"`, `7`,
	`{"features":[1]}{"features":[2]}`, `{"features":[1]} x`, `{"features":[1]} }`, `{"features":[1]} "`,
	`{"features":[1]}` + "\n\t ", `{"features":[1],}`, `{,"features":[1]}`, `{"features":[1] "quantized":true}`,
	`{"features":[0.30000001192092896,16777217,1.0000000596046448]}`,
	`{"windows":[[1,2],[3,4]],"quantized":true}`, `{"windows":[]}`, `{"windows":[[]]}`, `{"windows":null}`,
	`{"windows":[null]}`, `{"windows":[[1],null,[2]]}`, `{"windows":[[1],[2]`, `{"windows":[[1],]}`,
	`{"windows":[1]}`, `{"windows":[[1e39]]}`, `{"windows":[[1]],"windows":[[2]]}`, `{"Windows":[[1]]}`,
	`{"windows":[[1]]} trailing`, `{"windows":[[1]],"features":[1]}`,
	`{"samples":[1,-2.5,3e-7]}`, ` { "samples" : [ ] } `, `{"samples":null}`, `{"Samples":[1]}`, `{"samples":[1],"samples":[2]}`,
	`{"samples":[1],"quantized":true}`, `{"samples":[1e39]}`, `{"samples":[1]} x`, `{"samples":[[1]]}`, `{"samples":[1,]}`,
}

// manyWindows is the start of a batch body: n one-float windows, the
// array still open.
func manyWindows(n int) string {
	return `{"windows":[` + strings.TrimSuffix(strings.Repeat("[1],", n), ",")
}

// checkAgainstStd decodes body both ways and fails unless the codec
// agrees with the methodless encoding/json decode of each DTO: same acceptance,
// same floats bit for bit, same error text — but for the two rules the
// codec adds, no trailing data and at most MaxClassifyBatch windows.
func checkAgainstStd(t *testing.T, body []byte) {
	t.Helper()
	var req ClassifyRequest
	var std stdClassify
	err, stdErr := req.DecodeJSON(body), DecodeStrict(bytes.NewReader(body), &std)
	switch {
	case (err == nil) != (stdErr == nil):
		t.Fatalf("classify %q: codec error %v, encoding/json error %v", body, err, stdErr)
	case err != nil:
		want := strings.ReplaceAll(stdErr.Error(), "stdClassify", "ClassifyRequest")
		if err.Error() != want {
			t.Fatalf("classify %q: codec says %q, encoding/json %q", body, err, want)
		}
	case !sameFloats(req.Features, std.Features) || req.Quantized != std.Quantized:
		t.Fatalf("classify %q: codec %v, encoding/json %v", body, req, std)
	}

	var push StreamPushRequest
	var stdP stdStreamPush
	err, stdErr = push.DecodeJSON(body), DecodeStrict(bytes.NewReader(body), &stdP)
	switch {
	case (err == nil) != (stdErr == nil):
		t.Fatalf("stream push %q: codec error %v, encoding/json error %v", body, err, stdErr)
	case err != nil:
		want := strings.ReplaceAll(stdErr.Error(), "stdStreamPush", "StreamPushRequest")
		if err.Error() != want {
			t.Fatalf("stream push %q: codec says %q, encoding/json %q", body, err, want)
		}
	case !sameFloats(push.Samples, stdP.Samples):
		t.Fatalf("stream push %q: codec %v, encoding/json %v", body, push, stdP)
	}

	var batch ClassifyBatchRequest
	var stdB stdBatch
	err, stdErr = batch.DecodeJSON(body), DecodeStrict(bytes.NewReader(body), &stdB)
	if err == errBatchTooLarge {
		if stdErr == nil && len(stdB.Windows) <= MaxClassifyBatch {
			t.Fatalf("batch %.40q: refused %d windows as too many", body, len(stdB.Windows))
		}
		return
	}
	switch {
	case (err == nil) != (stdErr == nil):
		t.Fatalf("batch %q: codec error %v, encoding/json error %v", body, err, stdErr)
	case err != nil:
		want := strings.ReplaceAll(stdErr.Error(), "stdBatch", "ClassifyBatchRequest")
		if err.Error() != want {
			t.Fatalf("batch %q: codec says %q, encoding/json %q", body, err, want)
		}
	case (batch.Windows == nil) != (stdB.Windows == nil) || len(batch.Windows) != len(stdB.Windows) ||
		batch.Quantized != stdB.Quantized || len(batch.Windows) > MaxClassifyBatch:
		t.Fatalf("batch %q: codec %v, encoding/json %v", body, batch, stdB)
	default:
		for i := range batch.Windows {
			if !sameFloats(batch.Windows[i], stdB.Windows[i]) {
				t.Fatalf("batch %q: window %d: codec %v, encoding/json %v", body, i, batch.Windows[i], stdB.Windows[i])
			}
		}
	}
}

func TestDecodeAgainstEncodingJSON(t *testing.T) {
	for _, body := range decodeBodies {
		checkAgainstStd(t, []byte(body))
	}
	for _, n := range []int{MaxClassifyBatch - 1, MaxClassifyBatch, MaxClassifyBatch + 1} {
		whole := manyWindows(n) + "]}"
		checkAgainstStd(t, []byte(whole))
		checkAgainstStd(t, []byte(strings.Replace(whole, "[1]", "null", 1))) // same count via encoding/json
	}
}

// TestBatchStopsAtLimit: the scanner answers at window 257 without
// reading on — what follows is not even JSON.
func TestBatchStopsAtLimit(t *testing.T) {
	var req ClassifyBatchRequest
	if err := req.DecodeJSON([]byte(manyWindows(MaxClassifyBatch) + ",[1] not json")); err != errBatchTooLarge {
		t.Fatalf("257 windows: %v", err)
	}
	if err := req.DecodeJSON([]byte(manyWindows(MaxClassifyBatch) + " not json")); err == nil || err == errBatchTooLarge {
		t.Fatalf("256 windows and a syntax error: %v", err)
	}
	if !strings.Contains(errBatchTooLarge.Error(), "exceeds the limit of 256") {
		t.Fatal(errBatchTooLarge)
	}
}

func FuzzDecodeClassify(f *testing.F) {
	for _, body := range decodeBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(manyWindows(MaxClassifyBatch+1) + "]}"))
	f.Fuzz(checkAgainstStd)
}

func TestDecodeStrictTrailingData(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"name":"x"}`:             true,
		`{"name":"x"}` + " \n\t\r": true,
		`{"name":"x"}{"oops":1}`:   false,
		`{"name":"x"} garbage`:     false,
		`{"name":"x"} 1`:           false,
		`{"name":"x"} "open`:       false,
		`{"name":"x"}]`:            false,
		`{"name":"x"},`:            false,
	} {
		var req CreateProjectRequest
		err := DecodeStrict(strings.NewReader(body), &req)
		if (err == nil) != ok {
			t.Errorf("%q: %v", body, err)
		}
	}
}

func BenchmarkClassifyCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	window := make([]float32, 16000)
	for i := range window {
		window[i] = float32(0.3 * rng.NormFloat64())
	}
	req := ClassifyRequest{Features: window}
	body, _ := req.MarshalJSON()
	b.Run("Decode", func(b *testing.B) {
		var dec ClassifyDecoder
		var out ClassifyRequest
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := dec.Classify(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecodeEncodingJSON", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := DecodeStrict(bytes.NewReader(body), &stdClassify{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := req.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EncodeEncodingJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(stdClassify{Features: window}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamPushCodec: one second of 16 kHz audio in one push. The
// encoding/json side of the comparison is BenchmarkClassifyCodec's.
func BenchmarkStreamPushCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	req := StreamPushRequest{Samples: make([]float32, 16000)}
	for i := range req.Samples {
		req.Samples[i] = float32(0.3 * rng.NormFloat64())
	}
	body, _ := req.MarshalJSON()
	b.Run("Decode", func(b *testing.B) {
		var out StreamPushRequest
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := out.DecodeJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := req.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
)

// distinctWindow returns a full window for the stream test impulse
// (1000 samples) that no other k shares.
func distinctWindow(k int) []float32 {
	win := toneSamples(1000, 4000)
	for i := range win {
		win[i] *= float32(k+1) / 40
	}
	win[0] = float32(k)
	return win
}

// sameResult compares a served classification with the in-core one, bit
// for bit.
func sameResult(label string, scores map[string]float32, want core.ClassResult) error {
	if label != want.Label || len(scores) != len(want.Scores) {
		return fmt.Errorf("label %q with %d scores, want %q with %d", label, len(scores), want.Label, len(want.Scores))
	}
	for class, p := range want.Scores {
		if math.Float32bits(scores[class]) != math.Float32bits(p) {
			return fmt.Errorf("class %s: %v, want %v", class, scores[class], p)
		}
	}
	return nil
}

// TestTrailingDataRejected: a body is one JSON value; whatever follows
// it but whitespace is a 400 on every route that decodes one.
func TestTrailingDataRejected(t *testing.T) {
	e, id := streamEnv(t)
	window, _ := json.Marshal(distinctWindow(1))
	classify := `{"features":` + string(window) + `}`
	batch := `{"windows":[` + string(window) + `]}`
	project := fmt.Sprintf("/api/v1/projects/%d", id)
	for _, tc := range []struct {
		path, body string
		ok         int
	}{
		{"/api/v1/projects", `{"name":"x"}`, http.StatusCreated},
		{project + "/public", `{"public":true}`, http.StatusOK},
		{project + "/classify", classify, http.StatusOK},
		{project + "/classify/batch", batch, http.StatusOK},
	} {
		for tail, want := range map[string]int{
			"":             tc.ok,
			" \r\n\t":      tc.ok,
			`{"oops":1}`:   http.StatusBadRequest,
			" garbage":     http.StatusBadRequest,
			"\n}":          http.StatusBadRequest,
			` "unclosed`:   http.StatusBadRequest,
			"\n" + tc.body: http.StatusBadRequest,
		} {
			resp, raw := e.doRaw("POST", tc.path, e.apiKey, []byte(tc.body+tail), "application/json")
			if resp.StatusCode != want {
				t.Errorf("%s with tail %q: status %d, want %d (%.200s)", tc.path, tail, resp.StatusCode, want, raw)
				continue
			}
			if want == http.StatusBadRequest {
				if env := decodeErr(t, raw); env.Error.Code != v1.CodeBadRequest ||
					env.Error.Message != "bad request body: unexpected data after the JSON value" {
					t.Errorf("%s with tail %q: envelope %+v", tc.path, tail, env.Error)
				}
			}
		}
	}
}

// TestClassifyDecodeErrorsUnchanged: for a body encoding/json refuses,
// the classify routes answer with the status and message they had when
// encoding/json decoded every body (the oracle below is that decode).
func TestClassifyDecodeErrorsUnchanged(t *testing.T) {
	e, id := streamEnv(t)
	// Named like the DTOs: encoding/json's errors quote the type.
	type ClassifyRequest struct {
		Features  []float32 `json:"features"`
		Quantized bool      `json:"quantized"`
	}
	type ClassifyBatchRequest struct {
		Windows   [][]float32 `json:"windows"`
		Quantized bool        `json:"quantized"`
	}
	oracle := func(body string, into any) string {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			return strings.ReplaceAll(fmt.Sprintf("bad request body: %v", err), "api.Classify", "v1.Classify")
		}
		return ""
	}
	refused := 0
	for _, body := range []string{
		``, ` `, `{`, `[`, `[1]`, `null`, `"x"`, `{"features":[1,2`, `{"features":[1,]}`, `{"features":[01]}`,
		`{"features":[.5]}`, `{"features":[1.]}`, `{"features":[+1]}`, `{"features":[1e39]}`, `{"features":[-3.5e38]}`,
		`{"features":["1"]}`, `{"features":[[1]]}`, `{"features":{}}`, `{"features":[1],"extra":true}`,
		`{"quantized":1}`, `{"quantized":"yes"}`, `{"features":[1] "quantized":true}`, `{"features":[true]}`,
		`{"windows":[[1],[2]`, `{"windows":[1]}`, `{"windows":[[1e39]]}`, `{"windows":[["a"]]}`, `{"windows":{}}`,
		`{"windows":[[1]],"more":1}`, `{"features":["x"]}`, `{"FEATURES":[1e39]}`, `{"WINDOWS":[[1e39]]}`,
	} {
		for path, into := range map[string]any{"/classify": &ClassifyRequest{}, "/classify/batch": &ClassifyBatchRequest{}} {
			want := oracle(body, into)
			if want == "" {
				continue // accepted by encoding/json: TestFullMLOpsPipeline and the fuzz target cover that side
			}
			refused++
			resp, raw := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d%s", id, path), e.apiKey, []byte(body), "application/json")
			env := decodeErr(t, raw)
			if resp.StatusCode != http.StatusBadRequest || env.Error.Code != v1.CodeBadRequest || env.Error.Message != want {
				t.Errorf("%s %q: %d %q, want 400 %q", path, body, resp.StatusCode, env.Error.Message, want)
			}
		}
	}
	if refused < 50 {
		t.Fatalf("only %d refusals compared", refused)
	}
}

// TestClassifyOversizedBody: the pooled body read keeps the 413 mapping.
func TestClassifyOversizedBody(t *testing.T) {
	e, id := streamEnv(t)
	big := append([]byte(`{"features":[`), bytes.Repeat([]byte("0,"), maxDataBody/2)...)
	big = append(big, "0]}"...)
	for _, path := range []string{"/classify", "/classify/batch"} {
		resp, raw := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d%s", id, path), e.apiKey, big, "application/json")
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d %.200s", path, resp.StatusCode, raw)
		}
		if env := decodeErr(t, raw); env.Error.Code != v1.CodePayloadTooLarge {
			t.Fatalf("%s: envelope %+v", path, env)
		}
	}
}

// TestBatchLimitsBeforeWork: window 257 is refused where it starts —
// the rest of this body is not JSON — and a window of the wrong length
// before any DSP runs.
func TestBatchLimitsBeforeWork(t *testing.T) {
	e, id := streamEnv(t)
	path := fmt.Sprintf("/api/v1/projects/%d/classify/batch", id)
	tooMany := `{"windows":[` + strings.Repeat("[1],", v1.MaxClassifyBatch) + `[1], never parsed`
	resp, raw := e.doRaw("POST", path, e.apiKey, []byte(tooMany), "application/json")
	if env := decodeErr(t, raw); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(env.Error.Message, "exceeds the limit of 256") {
		t.Fatalf("257 windows: %d %+v", resp.StatusCode, env.Error)
	}

	full, _ := json.Marshal(distinctWindow(0))
	for _, short := range []string{"[1]", "[]", string(full[:len(full)-1]) + ",0]"} {
		body := `{"windows":[` + string(full) + `,` + short + `]}`
		resp, raw = e.doRaw("POST", path, e.apiKey, []byte(body), "application/json")
		if env := decodeErr(t, raw); resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(env.Error.Message, "batch window 1 has") {
			t.Fatalf("window %.20s: %d %+v", short, resp.StatusCode, env.Error)
		}
	}
}

// decodeRequest is one classify body on its way into a handler's
// readBody, re-armed for every run.
type decodeRequest struct {
	body []byte
	rd   *bytes.Reader
	req  *http.Request
	w    *httptest.ResponseRecorder
}

func newDecodeRequest(body []byte) *decodeRequest {
	d := &decodeRequest{body: body, rd: bytes.NewReader(body), w: httptest.NewRecorder()}
	d.req = httptest.NewRequest("POST", "/", nil)
	d.req.Body = io.NopCloser(d.rd)
	d.req.ContentLength = int64(len(body))
	return d
}

func (d *decodeRequest) into(buf *bodyBuf, req *v1.ClassifyRequest) error {
	d.rd.Reset(d.body)
	body, err := buf.readBody(d.w, d.req)
	if err != nil {
		return err
	}
	return buf.dec.Classify(body, req)
}

// TestClassifyDecodeAllocs: with a warm buffer, reading and decoding a
// 16 000-float body allocates the http.MaxBytesReader and nothing else
// (encoding/json: 37 allocations, 800 KB).
func TestClassifyDecodeAllocs(t *testing.T) {
	window := make([]float32, 16000)
	for i := range window {
		window[i] = float32(math.Sin(float64(i))) / 3
	}
	body, err := v1.ClassifyRequest{Features: window}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	d, buf := newDecodeRequest(body), new(bodyBuf)
	var req v1.ClassifyRequest
	decode := func() {
		if err := d.into(buf, &req); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(20, decode); allocs > 2 {
		t.Fatalf("decode allocates %v times per request, budget 2", allocs)
	}
	if len(req.Features) != len(window) || req.Features[15999] != window[15999] {
		t.Fatalf("decoded %d floats", len(req.Features))
	}
}

// TestClassifyPoolAliasing: concurrent requests share the buffer pool,
// and each must still be answered from its own window.
func TestClassifyPoolAliasing(t *testing.T) {
	e, id := streamEnv(t)
	p, err := e.reg.GetProject(id)
	if err != nil {
		t.Fatal(err)
	}
	imp := p.Impulse()
	const callers, rounds = 32, 2 // 128 requests: inside the default rate limit burst
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			window := distinctWindow(k)
			want, err := imp.Classify(imp.SignalFor(window))
			if err != nil {
				t.Error(err)
				return
			}
			single, _ := v1.ClassifyRequest{Features: window}.MarshalJSON()
			batch, _ := v1.ClassifyBatchRequest{Windows: [][]float32{window, window}}.MarshalJSON()
			for round := 0; round < rounds; round++ {
				resp, raw := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/classify", id), e.apiKey, single, "application/json")
				var got v1.ClassifyResponse
				if err := json.Unmarshal(raw, &got); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("caller %d: %d %.200s", k, resp.StatusCode, raw)
					return
				}
				if err := sameResult(got.Label, got.Classification, want); err != nil {
					t.Errorf("caller %d round %d: %v", k, round, err)
				}
				resp, raw = e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/classify/batch", id), e.apiKey, batch, "application/json")
				var gotBatch v1.ClassifyBatchResponse
				if err := json.Unmarshal(raw, &gotBatch); err != nil || resp.StatusCode != http.StatusOK || len(gotBatch.Results) != 2 {
					t.Errorf("caller %d batch: %d %.200s", k, resp.StatusCode, raw)
					return
				}
				for _, res := range gotBatch.Results {
					if err := sameResult(res.Label, res.Classification, want); err != nil {
						t.Errorf("caller %d round %d batch: %v", k, round, err)
					}
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestClassResultOutlivesBuffer: the handler recycles its buffer when
// it returns, so a result must hold nothing of it. Overwriting the
// body and the decoded floats after Classify leaves the result intact.
func TestClassResultOutlivesBuffer(t *testing.T) {
	imp := streamTestImpulse(t)
	window := distinctWindow(3)
	want, err := imp.Classify(imp.SignalFor(window))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := v1.ClassifyRequest{Features: window}.MarshalJSON()
	buf := new(bodyBuf)
	var req v1.ClassifyRequest
	if err := newDecodeRequest(body).into(buf, &req); err != nil {
		t.Fatal(err)
	}
	got, err := imp.Classify(imp.SignalFor(req.Features))
	if err != nil {
		t.Fatal(err)
	}
	for i := range req.Features {
		req.Features[i] = float32(math.NaN())
	}
	for raw := buf.body.Bytes(); len(raw) > 0; raw = raw[1:] {
		raw[0] = 0xff
	}
	if err := sameResult(got.Label, got.Scores, want); err != nil {
		t.Fatal(err)
	}
	// And the poison did land in what the next request will reuse.
	var next v1.ClassifyRequest
	if err := newDecodeRequest(body).into(buf, &next); err != nil {
		t.Fatal(err)
	}
	if &next.Features[0] != &req.Features[0] || next.Features[5] != window[5] {
		t.Fatal("the buffer's storage was not reused by the next decode")
	}
}

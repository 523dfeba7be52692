package api

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
)

// durableEnv spins up the API over a store-backed registry with one
// project, so an upload can be read back from the store.
func durableEnv(t *testing.T) (*testEnv, *project.Project) {
	t.Helper()
	reg, err := project.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 2})
	t.Cleanup(sched.Shutdown)
	srv := httptest.NewServer(NewServer(reg, sched).Handler())
	t.Cleanup(srv.Close)
	e := &testEnv{t: t, server: srv, sched: sched, reg: reg}
	e.apiKey = e.do("POST", "/api/v1/users", "", map[string]any{"name": "tester"})["api_key"].(string)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "uploads"}, http.StatusCreated)
	p, err := reg.GetProject(int(created["id"].(float64)))
	if err != nil {
		t.Fatal(err)
	}
	return e, p
}

// uploadDoc signs a one-axis acquisition of window as a device would.
func uploadDoc(t testing.TB, window []float32, hmacKey string) []byte {
	t.Helper()
	rows := make([][]float64, len(window))
	for i, v := range window {
		rows[i] = []float64{float64(v)}
	}
	doc, err := ingest.SignJSON(ingest.Payload{
		DeviceName: "upload-test", DeviceType: "TEST", IntervalMS: 0.25,
		Sensors: []ingest.Sensor{{Name: "audio", Units: "wav"}}, Values: rows,
	}, hmacKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func sameSignal(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}

// TestUploadOutlivesBuffer: the upload handler recycles its body when
// it returns, so the stored sample must hold nothing of it. Overwriting
// the body after ImportAcquisition leaves signal and metadata intact.
func TestUploadOutlivesBuffer(t *testing.T) {
	_, p := durableEnv(t)
	window := distinctWindow(5)
	buf := new(bodyBuf)
	d := newDecodeRequest(uploadDoc(t, window, p.HMACKey))
	body, err := buf.readBody(d.w, d.req)
	if err != nil {
		t.Fatal(err)
	}
	sampleID, err := p.Dataset().ImportAcquisition("poisoned", "high", body, p.HMACKey)
	if err != nil {
		t.Fatal(err)
	}
	for raw := buf.body.Bytes(); len(raw) > 0; raw = raw[1:] {
		raw[0] = 0xff
	}
	sig, err := p.Store().LoadSignal(sampleID)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSignal(sig.Data, window) || sig.Rate != 4000 {
		t.Fatalf("stored signal changed with the request body (%d samples at %d Hz)", len(sig.Data), sig.Rate)
	}
	sample, err := p.Dataset().Get(sampleID)
	if err != nil {
		t.Fatal(err)
	}
	if sample.Metadata["device_name"] != "upload-test" || sample.Metadata["device_type"] != "TEST" {
		t.Fatalf("metadata changed with the request body: %q", sample.Metadata)
	}
}

// TestUploadPoolAliasing: concurrent uploads share the buffer pool with
// each other (and with classify), and each must store its own signal.
func TestUploadPoolAliasing(t *testing.T) {
	e, p := durableEnv(t)
	const callers = 32
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			window := distinctWindow(k)
			path := fmt.Sprintf("/api/v1/projects/%d/data?label=high&name=up-%d", p.ID, k)
			resp, raw := e.doRaw("POST", path, e.apiKey, uploadDoc(t, window, p.HMACKey), "application/json")
			var got v1.UploadResponse
			if err := json.Unmarshal(raw, &got); err != nil || resp.StatusCode != http.StatusCreated {
				t.Errorf("caller %d: %d %.200s", k, resp.StatusCode, raw)
				return
			}
			sig, err := p.Store().LoadSignal(got.SampleID)
			if err != nil || !sameSignal(sig.Data, window) {
				t.Errorf("caller %d: stored signal is not the one uploaded (%v)", k, err)
			}
		}(k)
	}
	wg.Wait()
}

// TestUploadErrorsUnchanged: the pooled body read keeps the 413
// mapping, and a refused document is a 400 in ingest's words (which
// internal/ingest holds to the parent's).
func TestUploadErrorsUnchanged(t *testing.T) {
	e, id := streamEnv(t)
	p, err := e.reg.GetProject(id)
	if err != nil {
		t.Fatal(err)
	}
	path := fmt.Sprintf("/api/v1/projects/%d/data?label=high", id)
	big := append([]byte(`{"payload":{"values":[`), bytes.Repeat([]byte("[0],"), maxDataBody/4)...)
	resp, raw := e.doRaw("POST", path, e.apiKey, append(big, "[0]]}}"...), "application/json")
	if env := decodeErr(t, raw); resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != v1.CodePayloadTooLarge {
		t.Fatalf("oversized: %d %+v", resp.StatusCode, env.Error)
	}
	doc := string(uploadDoc(t, distinctWindow(1), p.HMACKey))
	for _, body := range []string{
		strings.Replace(doc, `"TEST"`, `"TSET"`, 1), // scanned, and the MAC fails
		strings.Replace(doc, `"HS256"`, `"none"`, 1),
		strings.Replace(doc, `"TEST"`, `"TEST",`, 1), // not JSON
		strings.Replace(doc, `"values":[[`, `"values":[["x"],[`, 1),
		doc[:len(doc)-1],
	} {
		_, want := ingest.Verify([]byte(body), p.HMACKey)
		resp, raw := e.doRaw("POST", path, e.apiKey, []byte(body), "application/json")
		if env := decodeErr(t, raw); resp.StatusCode != http.StatusBadRequest || env.Error.Message != want.Error() {
			t.Errorf("%.60s…: %d %q, want 400 %q", body, resp.StatusCode, env.Error.Message, want)
		}
	}
}

// TestUploadRateOutOfRange: a correctly signed document whose interval
// gives a rate no int32 holds is a 400 bad_request in ingest's words, and
// nothing is stored.
func TestUploadRateOutOfRange(t *testing.T) {
	e, p := durableEnv(t)
	doc := bytes.Replace(uploadDoc(t, distinctWindow(2), p.HMACKey), []byte(`"interval_ms":0.25`), []byte(`"interval_ms":1e-300`), 1)
	if !bytes.Contains(doc, []byte("1e-300")) {
		t.Fatal("the document does not hold the interval")
	}
	// Sign it again, as a device that skips Validate would have.
	sigAt := bytes.Index(doc, []byte(`"signature":"`)) + len(`"signature":"`)
	copy(doc[sigAt:], strings.Repeat("0", 64))
	h := hmac.New(sha256.New, []byte(p.HMACKey))
	h.Write(doc)
	copy(doc[sigAt:], hex.EncodeToString(h.Sum(nil)))

	path := fmt.Sprintf("/api/v1/projects/%d/data?label=high", p.ID)
	resp, raw := e.doRaw("POST", path, e.apiKey, doc, "application/json")
	want := "ingest: interval_ms 1e-300 gives a sample rate above 2147483647 Hz"
	if env := decodeErr(t, raw); resp.StatusCode != http.StatusBadRequest || env.Error.Code != v1.CodeBadRequest || env.Error.Message != want {
		t.Fatalf("%d %+v, want 400 %s %q", resp.StatusCode, env.Error, v1.CodeBadRequest, want)
	}
	if n := p.Dataset().Len(); n != 0 {
		t.Fatalf("%d samples stored", n)
	}
}

// TestStreamPushDecodeErrorsUnchanged: for a push body encoding/json
// refuses, the frames route answers with the status and message it had
// when encoding/json decoded every body; a body the codec takes is
// pushed as before.
func TestStreamPushDecodeErrorsUnchanged(t *testing.T) {
	e, id := streamEnv(t)
	open := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream", id), e.apiKey, map[string]any{}, http.StatusOK)
	path := fmt.Sprintf("/api/v1/projects/%d/stream/%s/frames", id, open["session_id"])
	type StreamPushRequest struct { // named like the DTO: encoding/json's errors quote the type
		Samples []float32 `json:"samples"`
	}
	for _, body := range []string{
		``, `{`, `[1]`, `{"samples":[1,2`, `{"samples":[1,]}`, `{"samples":[01]}`, `{"samples":[1e39]}`, `{"samples":["1"]}`,
		`{"samples":[1],"extra":true}`, `{"samples":{}}`, `{"SAMPLES":[1e39]}`,
	} {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&StreamPushRequest{})
		if err == nil {
			t.Fatalf("%q: the oracle accepts it", body)
		}
		want := strings.ReplaceAll(fmt.Sprintf("bad request body: %v", err), "api.StreamPush", "v1.StreamPush")
		resp, raw := e.doRaw("POST", path, e.apiKey, []byte(body), "application/json")
		if env := decodeErr(t, raw); resp.StatusCode != http.StatusBadRequest || env.Error.Message != want {
			t.Errorf("%q: %d %q, want 400 %q", body, resp.StatusCode, env.Error.Message, want)
		}
	}
	resp, raw := e.doRaw("POST", path, e.apiKey, []byte(`{"samples":[1]} x`), "application/json")
	if env := decodeErr(t, raw); resp.StatusCode != http.StatusBadRequest ||
		env.Error.Message != "bad request body: unexpected data after the JSON value" {
		t.Errorf("trailing data: %d %+v", resp.StatusCode, env.Error)
	}
	body, _ := v1.StreamPushRequest{Samples: toneSamples(1500, 4000)}.MarshalJSON()
	for _, b := range [][]byte{body, append([]byte(" \n"), body...)} {
		resp, raw = e.doRaw("POST", path, e.apiKey, b, "application/json")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push: %d %.200s", resp.StatusCode, raw)
		}
	}
	var ack v1.StreamPushResponse
	if err := json.Unmarshal(raw, &ack); err != nil || ack.FramesIn != 3000 {
		t.Fatalf("frames_in %d after two pushes of 1500 (%v)", ack.FramesIn, err)
	}
}

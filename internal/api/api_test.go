package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/synth"
)

// testEnv spins up the full API over httptest.
type testEnv struct {
	t      *testing.T
	server *httptest.Server
	api    *Server
	apiKey string
	sched  *jobs.Scheduler
	reg    *project.Registry
}

func newEnv(t *testing.T, opts ...Option) *testEnv {
	return newEnvWith(t, jobs.Config{MinWorkers: 2, MaxWorkers: 4, ScaleInterval: 10 * time.Millisecond}, opts...)
}

// newEnvWith spins up the full API over httptest with a custom
// scheduler configuration.
func newEnvWith(t *testing.T, cfg jobs.Config, opts ...Option) *testEnv {
	t.Helper()
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(cfg)
	t.Cleanup(sched.Shutdown)
	s := NewServer(reg, sched, opts...)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	env := &testEnv{t: t, server: srv, api: s, sched: sched, reg: reg}
	// Bootstrap a user.
	resp := env.do("POST", "/api/v1/users", "", map[string]any{"name": "tester"})
	env.apiKey = resp["api_key"].(string)
	if env.apiKey == "" {
		t.Fatal("no api key")
	}
	return env
}

// do issues a JSON request and decodes the JSON response.
func (e *testEnv) do(method, path, apiKey string, body any) map[string]any {
	e.t.Helper()
	resp, raw := e.doRaw(method, path, apiKey, body, "")
	defer resp.Body.Close()
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		e.t.Fatalf("%s %s: bad JSON %q", method, path, raw)
	}
	return out
}

func (e *testEnv) doRaw(method, path, apiKey string, body any, contentType string) (*http.Response, []byte) {
	e.t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		blob, err := json.Marshal(b)
		if err != nil {
			e.t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, e.server.URL+path, rd)
	if err != nil {
		e.t.Fatal(err)
	}
	if apiKey != "" {
		req.Header.Set("x-api-key", apiKey)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return e.doReq(req)
}

// doReq sends req and reads the whole response body.
func (e *testEnv) doReq(req *http.Request) (*http.Response, []byte) {
	e.t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp, raw
}

func (e *testEnv) expectStatus(method, path, apiKey string, body any, want int) map[string]any {
	e.t.Helper()
	resp, raw := e.doRaw(method, path, apiKey, body, "")
	if resp.StatusCode != want {
		e.t.Fatalf("%s %s: status %d, want %d (%s)", method, path, resp.StatusCode, want, raw)
	}
	var out map[string]any
	json.Unmarshal(raw, &out)
	return out
}

func TestAuthRequired(t *testing.T) {
	e := newEnv(t)
	e.expectStatus("GET", "/api/v1/projects", "", nil, http.StatusUnauthorized)
	e.expectStatus("GET", "/api/v1/projects", "bogus-key", nil, http.StatusUnauthorized)
	e.expectStatus("GET", "/api/v1/projects", e.apiKey, nil, http.StatusOK)
}

func TestDevicesEndpoint(t *testing.T) {
	e := newEnv(t)
	out := e.expectStatus("GET", "/api/v1/devices", "", nil, http.StatusOK)
	devices := out["devices"].([]any)
	if len(devices) < 4 {
		t.Fatalf("%d devices", len(devices))
	}
}

func TestProjectCRUDAndACL(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "kws"}, http.StatusCreated)
	id := int(created["id"].(float64))
	if created["hmac_key"] == "" {
		t.Fatal("no hmac key")
	}
	// A second user cannot see it.
	other := e.do("POST", "/api/v1/users", "", map[string]any{"name": "other"})
	otherKey := other["api_key"].(string)
	e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d", id), otherKey, nil, http.StatusForbidden)
	// Add as collaborator; now they can.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/collaborators", id), e.apiKey,
		map[string]any{"user_id": other["id"]}, http.StatusOK)
	e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d", id), otherKey, nil, http.StatusOK)
	// Public listing.
	pub := e.expectStatus("GET", "/api/v1/projects/public", "", nil, http.StatusOK)
	if pub["projects"] != nil {
		t.Fatalf("public projects before publishing: %v", pub["projects"])
	}
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/public", id), e.apiKey,
		map[string]any{"public": true}, http.StatusOK)
	pub = e.expectStatus("GET", "/api/v1/projects/public", "", nil, http.StatusOK)
	if len(pub["projects"].([]any)) != 1 {
		t.Fatal("public project missing")
	}
	// Unknown project.
	e.expectStatus("GET", "/api/v1/projects/999", e.apiKey, nil, http.StatusNotFound)
	e.expectStatus("GET", "/api/v1/projects/abc", e.apiKey, nil, http.StatusBadRequest)
}

// uploadKWSData pushes a small synthetic dataset through the signed
// acquisition ingestion path.
func uploadKWSData(t *testing.T, e *testEnv, id int, hmacKey string, perClass int) {
	t.Helper()
	ds, err := synth.KWSDataset(2, perClass, 8000, 0.5, 0.03, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ds.List("") {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		values := make([][]float64, s.Signal.Frames())
		for i := range values {
			values[i] = []float64{float64(s.Signal.Data[i])}
		}
		doc, err := ingest.SignJSON(ingest.Payload{
			DeviceName: "test-device", DeviceType: "TEST",
			IntervalMS: 1000.0 / 8000.0,
			Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
			Values:     values,
		}, hmacKey, 1670000000)
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("/api/v1/projects/%d/data?label=%s&name=%s&format=acquisition", id, s.Label, s.Name)
		resp, raw := e.doRaw("POST", path, e.apiKey, doc, "application/json")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload: %d %s", resp.StatusCode, raw)
		}
	}
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/rebalance", id), e.apiKey,
		map[string]any{"test_fraction": 0.25}, http.StatusOK)
}

func TestFullMLOpsPipeline(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "kws"}, http.StatusCreated)
	id := int(created["id"].(float64))
	hmacKey := created["hmac_key"].(string)

	// 1. Ingest signed data.
	uploadKWSData(t, e, id, hmacKey, 10)
	list := e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/data", id), e.apiKey, nil, http.StatusOK)
	if n := len(list["samples"].([]any)); n != 20 {
		t.Fatalf("%d samples", n)
	}

	// Wrong HMAC is rejected.
	doc, _ := ingest.SignJSON(ingest.Payload{
		DeviceName: "x", DeviceType: "T", IntervalMS: 1,
		Sensors: []ingest.Sensor{{Name: "a", Units: "u"}},
		Values:  [][]float64{{1}, {2}},
	}, "wrong-key", 1)
	resp, _ := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/data?label=x", id), e.apiKey, doc, "application/json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad hmac accepted: %d", resp.StatusCode)
	}

	// 2. Configure the impulse.
	impulse := core.Config{
		Version: core.ConfigVersion,
		Name:    "kws",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1},
		DSP: []core.DSPBlockSpec{{
			Type: "mfe", Params: map[string]float64{"num_filters": 16, "fft_length": 128},
		}},
		Classes: []string{"noise", "yes"},
	}
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/impulse", id), e.apiKey, impulse, http.StatusOK)
	got := e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/impulse", id), e.apiKey, nil, http.StatusOK)
	if got["trained"] != false {
		t.Fatal("impulse already trained?")
	}

	// 3. Train (async job) with quantization.
	train := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/train", id), e.apiKey, map[string]any{
		"model":         map[string]any{"type": "conv1d", "depth": 2, "start_filters": 8, "end_filters": 16},
		"epochs":        10,
		"learning_rate": 0.005,
		"quantize":      true,
		"seed":          7,
	}, http.StatusAccepted)
	jobID := train["job_id"].(string)
	if _, err := e.sched.Wait(jobID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	jobOut := e.expectStatus("GET", "/api/v1/jobs/"+jobID, e.apiKey, nil, http.StatusOK)
	if jobOut["status"] != "finished" {
		t.Fatalf("job: %v", jobOut)
	}
	result := e.expectStatus("GET", "/api/v1/jobs/"+jobID+"/result", e.apiKey, nil, http.StatusOK)
	res := result["result"].(map[string]any)
	if acc := res["accuracy"].(float64); acc < 0.6 {
		t.Fatalf("trained accuracy %.2f", acc)
	}
	if res["quantized"] != true {
		t.Fatal("quantization skipped")
	}

	// 4. Classify through the API.
	sig, err := synth.Keyword("yes", 8000, 0.5, 0.02, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	classify := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/classify", id), e.apiKey,
		map[string]any{"features": sig.Data}, http.StatusOK)
	if classify["label"] == "" {
		t.Fatal("no label")
	}

	// 4b. Batched classify must agree with the single-window path,
	// window for window, in both precisions.
	sigNoise, err := synth.Keyword("noise", 8000, 0.5, 0.02, rand.New(rand.NewSource(100)))
	if err != nil {
		t.Fatal(err)
	}
	for _, quantized := range []bool{false, true} {
		var singles []map[string]any
		for _, s := range [][]float32{sig.Data, sigNoise.Data} {
			singles = append(singles, e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/classify", id), e.apiKey,
				map[string]any{"features": s, "quantized": quantized}, http.StatusOK))
		}
		batch := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/classify/batch", id), e.apiKey,
			map[string]any{"windows": [][]float32{sig.Data, sigNoise.Data}, "quantized": quantized}, http.StatusOK)
		results := batch["results"].([]any)
		if len(results) != 2 {
			t.Fatalf("batch returned %d results", len(results))
		}
		for i, r := range results {
			res := r.(map[string]any)
			if res["label"] != singles[i]["label"] {
				t.Fatalf("quantized=%v window %d: batch label %v != single %v", quantized, i, res["label"], singles[i]["label"])
			}
			bc := res["classification"].(map[string]any)
			sc := singles[i]["classification"].(map[string]any)
			for class, p := range sc {
				if bc[class] != p {
					t.Fatalf("quantized=%v window %d class %s: batch %v != single %v", quantized, i, class, bc[class], p)
				}
			}
		}
	}
	// Batch validation: empty and oversized batches are rejected.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/classify/batch", id), e.apiKey,
		map[string]any{"windows": [][]float32{}}, http.StatusBadRequest)
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/classify/batch", id), e.apiKey,
		map[string]any{"windows": make([][]float32, v1.MaxClassifyBatch+1)}, http.StatusBadRequest)

	// 5. Profile for a target.
	profile := e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/profile?target=nano-33-ble-sense", id), e.apiKey, nil, http.StatusOK)
	fl := profile["float32"].(map[string]any)
	if fl["total_ms"].(float64) <= 0 {
		t.Fatal("no latency estimate")
	}
	if profile["int8"] == nil {
		t.Fatal("no int8 profile despite quantization")
	}

	// 6. Deployment artifacts.
	dep := e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/deployment?type=cpp", id), e.apiKey, nil, http.StatusOK)
	files := dep["files"].(map[string]any)
	if len(files) < 4 {
		t.Fatalf("cpp files: %d", len(files))
	}
	respEIM, rawEIM := e.doRaw("GET", fmt.Sprintf("/api/v1/projects/%d/deployment?type=eim", id), e.apiKey, nil, "")
	if respEIM.StatusCode != http.StatusOK || len(rawEIM) < 100 || string(rawEIM[:4]) != "EPIM" {
		t.Fatalf("EIM download: %d, %d bytes", respEIM.StatusCode, len(rawEIM))
	}

	// 7. Version snapshot.
	snap := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/versions", id), e.apiKey,
		map[string]any{"note": "v1"}, http.StatusCreated)
	if snap["version"] == nil {
		t.Fatal("no version")
	}
	versions := e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/versions", id), e.apiKey, nil, http.StatusOK)
	if len(versions["versions"].([]any)) != 1 {
		t.Fatal("version list")
	}
}

func TestTrainValidation(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "p"}, http.StatusCreated)
	id := int(created["id"].(float64))
	// No impulse yet.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/train", id), e.apiKey,
		map[string]any{"epochs": 1}, http.StatusBadRequest)
	// Classify before training.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/classify", id), e.apiKey,
		map[string]any{"features": []float32{1, 2}}, http.StatusBadRequest)
	// Deployment before training.
	e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/deployment?type=cpp", id), e.apiKey, nil, http.StatusBadRequest)
	// Unknown job.
	e.expectStatus("GET", "/api/v1/jobs/job-999", e.apiKey, nil, http.StatusNotFound)
}

func TestUploadValidation(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "p"}, http.StatusCreated)
	id := int(created["id"].(float64))
	// Missing label.
	resp, _ := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/data", id), e.apiKey, []byte("x"), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatal("missing label accepted")
	}
	// Unknown format.
	resp, _ = e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/data?label=a&format=tarball", id), e.apiKey, []byte("x"), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatal("unknown format accepted")
	}
	// CSV happy path.
	csv := "timestamp,ax\n0,1.0\n10,2.0\n20,3.0\n"
	resp, raw := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/data?label=walk&format=csv", id), e.apiKey, []byte(csv), "text/csv")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("csv upload: %d %s", resp.StatusCode, raw)
	}
	// Delete it.
	var out map[string]any
	json.Unmarshal(raw, &out)
	sampleID := out["sample_id"].(string)
	e.expectStatus("DELETE", fmt.Sprintf("/api/v1/projects/%d/data/%s", id, sampleID), e.apiKey, nil, http.StatusOK)
	e.expectStatus("DELETE", fmt.Sprintf("/api/v1/projects/%d/data/%s", id, sampleID), e.apiKey, nil, http.StatusNotFound)
}

func TestBadImpulseConfig(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "p"}, http.StatusCreated)
	id := int(created["id"].(float64))
	resp, _ := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/impulse", id), e.apiKey, []byte("{bad json"), "application/json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatal("bad json accepted")
	}
	// Unknown DSP block.
	cfg := core.Config{Version: core.ConfigVersion, Name: "x", Input: core.InputBlock{Kind: core.TimeSeries, WindowMS: 100, FrequencyHz: 100, Axes: 1}, DSP: []core.DSPBlockSpec{{Type: "quantum"}}}
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/impulse", id), e.apiKey, cfg, http.StatusBadRequest)
}

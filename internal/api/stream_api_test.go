package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/jobs"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/project"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

// newSubServer serves an already-built Server for tests that need
// non-default options next to the shared env.
func newSubServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, ts *httptest.Server, method, path, apiKey string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		req.Header.Set("x-api-key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// streamTestImpulse builds a small trained MFE+conv impulse (untrained
// weights — streaming correctness does not depend on accuracy) and
// attaches it to the project directly, skipping the training job.
func streamTestImpulse(t testing.TB) *core.Impulse {
	t.Helper()
	imp := core.New("stream-api-test")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 250, StrideMS: 125, FrequencyHz: 4000, Axes: 1}
	block, err := dsp.New("mfe", map[string]float64{"num_filters": 16, "fft_length": 128})
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = []string{"high", "low"}
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	model, err := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.InitWeights(model, 3); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	return imp
}

// streamEnv spins up the API with one project holding a trained impulse.
func streamEnv(t *testing.T, opts ...Option) (*testEnv, int) {
	t.Helper()
	e := newEnv(t, opts...)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "stream"}, http.StatusCreated)
	id := int(created["id"].(float64))
	p, err := e.reg.GetProject(id)
	if err != nil {
		t.Fatal(err)
	}
	p.SetImpulse(streamTestImpulse(t))
	return e, id
}

func toneSamples(n, rate int) []float32 {
	data := make([]float32, n)
	for i := range data {
		data[i] = 0.5 * float32(math.Sin(2*math.Pi*700*float64(i)/float64(rate)))
	}
	return data
}

// readStreamEvents drains a session's NDJSON feed to EOF (the session
// must be terminal or become terminal) and decodes every line.
func readStreamEvents(e *testEnv, path, lastEventID string) (*http.Response, []v1.StreamEvent, error) {
	req, err := http.NewRequest("GET", e.server.URL+path, nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("x-api-key", e.apiKey)
	if lastEventID != "" {
		req.Header.Set("Last-Event-Id", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	var events []v1.StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev v1.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return resp, nil, fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return resp, events, sc.Err()
}

func TestStreamSessionLifecycle(t *testing.T) {
	e, id := streamEnv(t)
	open := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream", id), e.apiKey,
		map[string]any{"threshold": 0.4, "smooth": 1}, http.StatusOK)
	sid := open["session_id"].(string)
	if sid == "" {
		t.Fatal("no session id")
	}
	if w := open["window_samples"].(float64); w != 1000 {
		t.Fatalf("window_samples = %v, want 1000 (250ms @ 4kHz)", w)
	}
	if st := open["stride_samples"].(float64); st != 500 {
		t.Fatalf("stride_samples = %v, want 500", st)
	}
	if classes := open["classes"].([]any); len(classes) != 2 {
		t.Fatalf("classes = %v", classes)
	}

	// 2000 samples = windows at frame 0, 500, 1000.
	push := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream/%s/frames", id, sid), e.apiKey,
		map[string]any{"samples": toneSamples(2000, 4000)}, http.StatusOK)
	if fi := push["frames_in"].(float64); fi != 2000 {
		t.Fatalf("frames_in = %v", fi)
	}

	closed := e.expectStatus("DELETE", fmt.Sprintf("/api/v1/projects/%d/stream/%s", id, sid), e.apiKey, nil, http.StatusOK)
	stats := closed["stats"].(map[string]any)
	if w := stats["windows"].(float64); w != 3 {
		t.Fatalf("windows = %v, want 3", w)
	}
	if fi := stats["frames_in"].(float64); fi != 2000 {
		t.Fatalf("stats frames_in = %v", fi)
	}

	// The full feed replays: open state, 3 results, terminal close.
	resp, events, err := readStreamEvents(e, fmt.Sprintf("/api/v1/projects/%d/stream/%s/events", id, sid), "")
	if err != nil {
		t.Fatal(err)
	}
	// Satellite contract: streaming responses must disable caching and
	// proxy buffering.
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	if ab := resp.Header.Get("X-Accel-Buffering"); ab != "no" {
		t.Fatalf("X-Accel-Buffering = %q", ab)
	}
	if len(events) < 5 {
		t.Fatalf("%d events: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[0].Type != "state" || events[0].Status != "open" {
		t.Fatalf("first event %+v", events[0])
	}
	var results int
	var starts []int64
	for _, ev := range events {
		if ev.Type == "result" {
			results++
			starts = append(starts, ev.WindowStart)
			if ev.Label != "high" && ev.Label != "low" {
				t.Fatalf("result label %q", ev.Label)
			}
		}
	}
	if results != 3 || starts[0] != 0 || starts[1] != 500 || starts[2] != 1000 {
		t.Fatalf("results %d at %v, want 3 at [0 500 1000]", results, starts)
	}
	last := events[len(events)-1]
	if !last.Terminal() || last.Reason != "client request" {
		t.Fatalf("terminal event %+v", last)
	}

	// Resume from a mid-stream cursor.
	mid := events[2].Seq
	_, resumed, err := readStreamEvents(e, fmt.Sprintf("/api/v1/projects/%d/stream/%s/events", id, sid), fmt.Sprint(mid))
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(events)-int(mid) || resumed[0].Seq != mid+1 {
		t.Fatalf("resume after %d: %d events, first seq %d", mid, len(resumed), resumed[0].Seq)
	}

	// A closed session stays addressable for event replay, but refuses
	// further frames.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream/%s/frames", id, sid), e.apiKey,
		map[string]any{"samples": toneSamples(10, 4000)}, http.StatusConflict)
}

func TestStreamValidationAndScoping(t *testing.T) {
	e, id := streamEnv(t)

	// A project without a trained impulse cannot open a stream.
	bare := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "bare"}, http.StatusCreated)
	bareID := int(bare["id"].(float64))
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream", bareID), e.apiKey,
		map[string]any{}, http.StatusBadRequest)

	// Bad tuning values are rejected.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream", id), e.apiKey,
		map[string]any{"stride_ms": -5}, http.StatusBadRequest)
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream", id), e.apiKey,
		map[string]any{"stride_ms": 10000}, http.StatusBadRequest) // stride > window

	open := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream", id), e.apiKey,
		map[string]any{}, http.StatusOK)
	sid := open["session_id"].(string)

	// Unknown session and cross-project access both read as 404.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream/nope/frames", id), e.apiKey,
		map[string]any{"samples": []float32{1}}, http.StatusNotFound)
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream/%s/frames", bareID, sid), e.apiKey,
		map[string]any{"samples": []float32{1}}, http.StatusNotFound)
	e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/stream/%s/events", bareID, sid), e.apiKey,
		nil, http.StatusNotFound)

	// Empty batches are rejected.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream/%s/frames", id, sid), e.apiKey,
		map[string]any{"samples": []float32{}}, http.StatusBadRequest)
	// Bad resume cursor.
	e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/stream/%s/events?from=x", id, sid), e.apiKey,
		nil, http.StatusBadRequest)

	e.expectStatus("DELETE", fmt.Sprintf("/api/v1/projects/%d/stream/%s", id, sid), e.apiKey, nil, http.StatusOK)
}

// TestStreamRejectsMisShapedModel: an int8 model that disagrees with
// the impulse's features (persist attaches one from disk unchecked)
// answers 400 at open instead of panicking in the session.
func TestStreamRejectsMisShapedModel(t *testing.T) {
	e, id := streamEnv(t)
	p, err := e.reg.GetProject(id)
	if err != nil {
		t.Fatal(err)
	}
	imp := p.Impulse()
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := models.Conv1DStack(shape[0]/2, shape[1], 2, 8, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.InitWeights(wrong, 3); err != nil {
		t.Fatal(err)
	}
	if imp.QModel, err = quant.Quantize(wrong, []*tensor.F32{tensor.NewF32(wrong.InputShape...)}); err != nil {
		t.Fatal(err)
	}
	out := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream", id), e.apiKey,
		map[string]any{"quantized": true}, http.StatusBadRequest)
	if msg := fmt.Sprint(out["error"]); !strings.Contains(msg, "model input") {
		t.Fatalf("error %s, want the shape mismatch", msg)
	}
}

// TestStreamCapacityAndMetrics drives the server-wide session cap and
// checks both the 429 shed path and the stream-plane metrics snapshot.
func TestStreamCapacityAndMetrics(t *testing.T) {
	e, id := streamEnv(t)
	// Shrink the cap by swapping in a dedicated server? Cheaper: open
	// sessions up to DefaultMaxSessions would be slow; instead exercise
	// the cap through a second server with WithStreamSessions(1).
	srv := NewServer(e.reg, e.sched, WithStreamSessions(1))
	ts := newSubServer(t, srv)
	open := func(want int) map[string]any {
		resp, raw := doJSON(t, ts, "POST", fmt.Sprintf("/api/v1/projects/%d/stream", id), e.apiKey, map[string]any{})
		if resp.StatusCode != want {
			t.Fatalf("open: status %d, want %d (%s)", resp.StatusCode, want, raw)
		}
		var out map[string]any
		json.Unmarshal(raw, &out)
		return out
	}
	first := open(http.StatusOK)
	shed := open(http.StatusTooManyRequests)
	errObj := shed["error"].(map[string]any)
	if errObj["code"] != v1.CodeRateLimited {
		t.Fatalf("shed error code %v", errObj["code"])
	}

	resp, raw := doJSON(t, ts, "DELETE",
		fmt.Sprintf("/api/v1/projects/%d/stream/%s", id, first["session_id"]), e.apiKey, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: %d %s", resp.StatusCode, raw)
	}

	resp, raw = doJSON(t, ts, "GET", "/api/v1/metrics", e.apiKey, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var metrics v1.MetricsResponse
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatal(err)
	}
	sp := metrics.StreamPlane
	if sp == nil {
		t.Fatal("no stream_plane in metrics")
	}
	if sp.Opened != 1 || sp.Shed != 1 || sp.ActiveSessions != 0 || sp.PeakSessions != 1 {
		t.Fatalf("stream plane %+v", sp)
	}
}

// TestStreamConnectionMetricsSeparate asserts the satellite contract:
// a held-open NDJSON connection is accounted under stream metrics (with
// its duration) while the route's request-latency average stays at the
// recorded-zero duration.
func TestStreamConnectionMetricsSeparate(t *testing.T) {
	e, id := streamEnv(t)
	open := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/stream", id), e.apiKey,
		map[string]any{}, http.StatusOK)
	sid := open["session_id"].(string)
	e.expectStatus("DELETE", fmt.Sprintf("/api/v1/projects/%d/stream/%s", id, sid), e.apiKey, nil, http.StatusOK)
	// Drain the (now terminal) feed so one streaming connection completes.
	if _, _, err := readStreamEvents(e, fmt.Sprintf("/api/v1/projects/%d/stream/%s/events", id, sid), ""); err != nil {
		t.Fatal(err)
	}

	var metrics v1.MetricsResponse
	resp, raw := e.doRaw("GET", "/api/v1/metrics", e.apiKey, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatal(err)
	}
	const route = "GET /api/v1/projects/{id}/stream/{sid}/events"
	var stream *v1.StreamRouteMetrics
	for i := range metrics.Streams {
		if metrics.Streams[i].Route == route {
			stream = &metrics.Streams[i]
		}
	}
	if stream == nil {
		t.Fatalf("no stream metrics for %q: %+v", route, metrics.Streams)
	}
	if stream.Count != 1 || stream.Active != 0 {
		t.Fatalf("stream route metrics %+v", stream)
	}
	for _, r := range metrics.Routes {
		if r.Route == route {
			if r.Count != 1 || r.AvgMS != 0 {
				t.Fatalf("streaming route leaked into request latency: %+v", r)
			}
			return
		}
	}
	t.Fatalf("route %q missing from request metrics", route)
}

// TestStreamDuplex drives the single-connection NDJSON duplex endpoint:
// open request line in, frames in, events out, EOF closes the session.
func TestStreamDuplex(t *testing.T) {
	e, id := streamEnv(t)
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", e.server.URL+fmt.Sprintf("/api/v1/projects/%d/stream/duplex", id), pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("x-api-key", e.apiKey)
	req.Header.Set("Content-Type", "application/x-ndjson")

	go func() {
		enc := json.NewEncoder(pw)
		enc.Encode(map[string]any{"threshold": 0.4, "smooth": 1})
		// 2500 samples in uneven chunks: windows at 0, 500, 1000, 1500.
		samples := toneSamples(2500, 4000)
		for _, chunk := range [][]float32{samples[:700], samples[700:1800], samples[1800:]} {
			enc.Encode(map[string]any{"samples": chunk})
		}
		pw.Close()
	}()

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("duplex status %d: %s", resp.StatusCode, raw)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Fatalf("Cache-Control = %q", cc)
	}

	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no open ack line: %v", sc.Err())
	}
	var ack v1.StreamOpenResponse
	if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
		t.Fatalf("bad ack line %q", sc.Text())
	}
	if !ack.Success || ack.SessionID == "" || ack.WindowSamples != 1000 {
		t.Fatalf("ack %+v", ack)
	}
	var events []v1.StreamEvent
	for sc.Scan() {
		var ev v1.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q", sc.Text())
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var results int
	for _, ev := range events {
		if ev.Type == "result" {
			results++
		}
	}
	if results != 4 {
		t.Fatalf("%d results, want 4 (%+v)", results, events)
	}
	last := events[len(events)-1]
	if !last.Terminal() || !strings.Contains(last.Reason, "client closed stream") {
		t.Fatalf("terminal %+v", last)
	}
}

// TestStreamDuplexBadOpenLine: a malformed first line fails with the
// error envelope before any session is admitted — as does one with a
// misspelt field, which POST .../stream refuses too.
func TestStreamDuplexBadOpenLine(t *testing.T) {
	e, id := streamEnv(t)
	for _, line := range []string{"not json\n", `{"treshold":0.9}` + "\n"} {
		resp, raw := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/stream/duplex", id), e.apiKey,
			[]byte(line), "application/x-ndjson")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d: %s", line, resp.StatusCode, raw)
		}
	}
}

// FuzzStreamOpenLine: for any line, the duplex feed's open line is
// accepted exactly when v1.DecodeStrict accepts it as a POST .../stream
// body, with the same StreamOpenRequest, and streamConfig does not panic
// on what is accepted.
func FuzzStreamOpenLine(f *testing.F) {
	for _, line := range []string{
		`{}`, `{"threshold":0.9}`, `{"treshold":0.9}`, `{"stride_ms":-5}`, `{"stride_ms":1e9}`,
		`{"idle_timeout_ms":9223372036854775807}`, `{"quantized":true,"smooth":3,"suppress":2,"release":0.5}`,
		`{"ignore_labels":["noise",null]}`, `{"threshold":1e39}`, `{} {}`, `{}` + "\r", ` {"smooth":1} `,
		`not json`, `null`, `[]`, `{"smooth":"3"}`, `{"Threshold":0.9}`,
	} {
		f.Add([]byte(line))
	}
	p := &project.Project{ID: 1}
	p.SetImpulse(streamTestImpulse(f))
	s := &Server{}
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.IndexByte(line, '\n') >= 0 {
			return // not one line
		}
		got, err := openLine(lineScanner(bytes.NewReader(append(line, '\n'))))
		var want v1.StreamOpenRequest
		wantErr := v1.DecodeStrict(bytes.NewReader(line), &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: duplex %v, POST body %v", line, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: duplex %+v, POST body %+v", line, got, want)
		}
		s.streamConfig(p, got)
	})
}

// TestJobEventsStreamingHeaders pins the no-cache / no-proxy-buffering
// satellite on the job event feed, which shares setStreamingHeaders with
// the stream endpoints.
func TestJobEventsStreamingHeaders(t *testing.T) {
	e := newEnv(t)
	job, err := e.sched.Submit("train", func(ctx context.Context, j *jobs.Job) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.sched.Wait(job.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, _ := e.doRaw("GET", "/api/v1/jobs/"+job.ID+"/events", e.apiKey, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	if ab := resp.Header.Get("X-Accel-Buffering"); ab != "no" {
		t.Fatalf("X-Accel-Buffering = %q", ab)
	}
}

package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
)

// streamImpulse is a small untrained tone classifier: 250 ms windows at
// 4 kHz (1000 samples) with a 500-sample stride.
func streamImpulse(t *testing.T) *core.Impulse {
	t.Helper()
	imp := core.New("gateway-duplex")
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

// TestGatewayStreamDuplex drives a duplex stream through the gateway one
// step at a time: the samples are sent only once the open ack has come
// back, and the request body is closed only once every result has. A
// proxy that is not full duplex discards the rest of the body on its
// first write, so the ack never arrives.
func TestGatewayStreamDuplex(t *testing.T) {
	w0 := startWorker(t, 0, 1)
	_, gwSrv := startGateway(t, &Map{Shards: 1, Nodes: []Node{
		{Name: w0.name, URL: w0.srv.URL, Role: RoleWorker, Shard: 0},
	}})
	user, err := w0.reg.CreateUser("duplex")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w0.reg.CreateProject("duplex", user.ID)
	if err != nil {
		t.Fatal(err)
	}
	p.SetImpulse(streamImpulse(t))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	// Closing the body unblocks the client's body writer when the
	// deadline expires with the exchange stalled.
	context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/api/v1/projects/%d/stream/duplex", gwSrv.URL, p.ID), pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("x-api-key", user.APIKey)
	req.Header.Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(pw)
	go enc.Encode(map[string]any{"threshold": 0.4, "smooth": 1})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(NodeHeader) != w0.name {
		t.Fatalf("duplex status %d via %q", resp.StatusCode, resp.Header.Get(NodeHeader))
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no open ack line: %v", sc.Err())
	}
	var ack v1.StreamOpenResponse
	if err := json.Unmarshal(sc.Bytes(), &ack); err != nil || !ack.Success || ack.WindowSamples != 1000 {
		t.Fatalf("ack %q: %v", sc.Text(), err)
	}

	// 2500 samples: windows at 0, 500, 1000 and 1500.
	samples := make([]float32, 2500)
	for i := range samples {
		samples[i] = 0.5 * float32(math.Sin(2*math.Pi*700*float64(i)/4000))
	}
	if err := enc.Encode(map[string]any{"samples": samples}); err != nil {
		t.Fatal(err)
	}
	results := 0
	var last v1.StreamEvent
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q", sc.Text())
		}
		if last.Type == "result" {
			if results++; results == 4 {
				pw.Close()
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("after %d results: %v", results, err)
	}
	if results != 4 || !last.Terminal() || !strings.Contains(last.Reason, "client closed stream") {
		t.Fatalf("%d results, last event %+v", results, last)
	}
}

// syncBuffer is a log sink written by server goroutines and read by the
// test.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines(requestID string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, l := range strings.Split(b.buf.String(), "\n") {
		if strings.Contains(l, "request_id="+requestID) {
			out = append(out, l)
		}
	}
	return out
}

// TestGatewayAccessLine: each request through the gateway writes one
// access line under its request ID, naming the route and, for a proxied
// request, the node and shard that served it.
func TestGatewayAccessLine(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case v1.Prefix + "/readyz":
			api.WriteJSON(w, http.StatusOK, v1.ReadyResponse{Success: true, Ready: true})
		case v1.Prefix + "/cluster/node":
			api.WriteJSON(w, http.StatusOK, v1.ClusterNodeResponse{Success: true, Role: RoleWorker, Shard: 1, Shards: 2})
		default:
			api.WriteJSON(w, http.StatusOK, map[string]string{"seen": r.Header.Get(api.RequestIDHeader)})
		}
	}))
	defer worker.Close()
	m := &Map{Shards: 2, Nodes: []Node{{Name: "w1", URL: worker.URL, Role: RoleWorker, Shard: 1}}}
	var logs syncBuffer
	g := NewGateway(m, GatewayConfig{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	g.Start()
	defer g.Stop()

	for _, tc := range []struct {
		path, id string
		want     []string
	}{
		{"/api/v1/projects/1", "trace-proxied",
			[]string{"msg=gateway", "status=200", `route="GET /projects/{id}"`, "node=w1", "shard=1"}},
		{"/api/v1/healthz", "trace-local", []string{"msg=gateway", "status=200", `route="GET /healthz"`}},
		{"/outside", "trace-unmatched", []string{"msg=gateway", "status=404", "route=unmatched"}},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		req.Header.Set(api.RequestIDHeader, tc.id)
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if got := rec.Header().Get(api.RequestIDHeader); got != tc.id {
			t.Fatalf("%s: X-Request-Id %q, want %q", tc.path, got, tc.id)
		}
		lines := logs.lines(tc.id)
		if len(lines) != 1 {
			t.Fatalf("%s: %d access lines for %s: %q", tc.path, len(lines), tc.id, lines)
		}
		for _, field := range tc.want {
			if !strings.Contains(lines[0], field) {
				t.Fatalf("%s: access line lacks %s: %s", tc.path, field, lines[0])
			}
		}
		proxied := strings.HasPrefix(tc.path, "/api/v1/projects/")
		if !proxied && strings.Contains(lines[0], "node=") {
			t.Fatalf("%s: a local answer names a node: %s", tc.path, lines[0])
		}
		// The proxied request carried its ID on to the node.
		if proxied && !strings.Contains(rec.Body.String(), `"seen":"`+tc.id+`"`) {
			t.Fatalf("%s: node saw %s", tc.path, rec.Body.String())
		}
	}
}

package api

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"testing"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/dsp"
	"edgepulse/internal/tensor"
)

// panicSample is the first sample of a window that panicBlock panics on.
const panicSample = -12345

// panicBlock is an MFE block that panics on a window whose first sample
// is panicSample.
type panicBlock struct{ dsp.Block }

func (panicBlock) Name() string { return "batch-panic" }

func (b panicBlock) Extract(sig dsp.Signal) (*tensor.F32, error) {
	if sig.Data[0] == panicSample {
		panic("marked window")
	}
	return b.Block.Extract(sig)
}

func init() {
	dsp.Register("batch-panic", func(params map[string]float64) (dsp.Block, error) {
		mfe, err := dsp.New("mfe", params)
		return panicBlock{mfe}, err
	})
}

// TestClassifyBatchPanicIs500 sends a batch whose fourth window panics
// in a worker goroutine of the fanned-out batch: the panic must reach
// the handler's goroutine, where withRecovery answers 500 internal and
// logs a record naming the panicking frame on the worker, and the
// server must keep serving.
func TestClassifyBatchPanicIs500(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var logs lockedBuffer
	e, id := streamEnv(t, WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	p, err := e.reg.GetProject(id)
	if err != nil {
		t.Fatal(err)
	}
	imp := p.Impulse()
	block, err := dsp.New("batch-panic", imp.DSP[0].Block.Params())
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)

	windows := make([][]float32, 8)
	for i := range windows {
		windows[i] = toneSamples(imp.WindowLen(), 4000)
	}
	windows[3][0] = panicSample
	path := fmt.Sprintf("/api/v1/projects/%d/classify/batch", id)
	body := e.expectStatus("POST", path, e.apiKey, map[string]any{"windows": windows}, http.StatusInternalServerError)
	if code := body["error"].(map[string]any)["code"]; code != v1.CodeInternal {
		t.Fatalf("error code %v, want %s", code, v1.CodeInternal)
	}
	if out := logs.String(); !strings.Contains(out, "panic=\"batch window 3: marked window\"") ||
		!strings.Contains(out, "worker_stack=") || !strings.Contains(out, "api.panicBlock.Extract") {
		t.Fatalf("panic record names no window or no worker frame:\n%s", out)
	}

	windows[3][0] = 0
	body = e.expectStatus("POST", path, e.apiKey, map[string]any{"windows": windows}, http.StatusOK)
	if n := len(body["results"].([]any)); n != len(windows) {
		t.Fatalf("%d results for %d windows", n, len(windows))
	}
}

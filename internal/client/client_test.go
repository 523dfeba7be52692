package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/synth"
)

// newStudio boots the full platform behind httptest and returns an
// unauthenticated client for it.
func newStudio(t *testing.T, opts ...api.Option) *Client {
	t.Helper()
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 2, MaxWorkers: 4, ScaleInterval: 10 * time.Millisecond})
	t.Cleanup(sched.Shutdown)
	srv := httptest.NewServer(api.NewServer(reg, sched, opts...).Handler())
	t.Cleanup(srv.Close)
	return New(srv.URL)
}

func TestClientFullPipeline(t *testing.T) {
	ctx := context.Background()
	c := newStudio(t)

	user, err := c.CreateUser(ctx, "tester")
	if err != nil {
		t.Fatal(err)
	}
	if user.APIKey == "" {
		t.Fatal("no api key")
	}
	c = c.WithAPIKey(user.APIKey)

	proj, err := c.CreateProject(ctx, "kws")
	if err != nil {
		t.Fatal(err)
	}

	// Ingest a small signed dataset.
	ds, err := synth.KWSDataset(2, 10, 8000, 0.5, 0.03, 42)
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
			DeviceName: "dev", DeviceType: "TEST",
			IntervalMS: 1000.0 / 8000.0,
			Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
			Values:     values,
		}, proj.HMACKey, 1670000000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.UploadSample(ctx, proj.ID, UploadParams{
			Label: s.Label, Name: s.Name, Format: "acquisition",
		}, doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Rebalance(ctx, proj.ID, 0.25); err != nil {
		t.Fatal(err)
	}
	list, err := c.Samples(ctx, proj.ID, "", Page{})
	if err != nil {
		t.Fatal(err)
	}
	if list.Total != 20 || len(list.Samples) != 20 {
		t.Fatalf("samples: total %d, window %d", list.Total, len(list.Samples))
	}
	paged, err := c.Samples(ctx, proj.ID, "", Page{Limit: 5, Offset: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(paged.Samples) != 5 || paged.Offset != 10 {
		t.Fatalf("paged: %+v", paged.Page)
	}

	// Impulse + training through the typed surface.
	if _, err := c.SetImpulse(ctx, proj.ID, core.Config{
		Version: core.ConfigVersion,
		Name:    "kws",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1},
		DSP: []core.DSPBlockSpec{{
			Type: "mfe", Params: map[string]float64{"num_filters": 16, "fft_length": 128},
		}},
		Classes: []string{"noise", "yes"},
	}); err != nil {
		t.Fatal(err)
	}
	imp, err := c.Impulse(ctx, proj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Trained {
		t.Fatal("impulse trained before training")
	}

	accepted, err := c.Train(ctx, proj.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "conv1d", Depth: 2, StartFilters: 8, EndFilters: 16},
		Epochs:       10,
		LearningRate: 0.005,
		Quantize:     true,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitJob(ctx, accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !done.Done || done.Status != v1.JobFinished {
		t.Fatalf("wait: %+v", done)
	}
	resultResp, err := c.JobResult(ctx, accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if resultResp.Kind != "training" {
		t.Fatalf("result kind %q", resultResp.Kind)
	}
	res, err := resultResp.TrainResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.6 || !res.Quantized {
		t.Fatalf("train result: %+v", res)
	}

	// Classify, profile, deploy.
	clip, err := ds.Get(ds.List("")[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := c.Classify(ctx, proj.ID, clip.Signal.Data, false)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Label == "" || len(cls.Classification) != 2 {
		t.Fatalf("classify: %+v", cls)
	}
	prof, err := c.Profile(ctx, proj.ID, "nano-33-ble-sense")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Float32 == nil || prof.Float32.TotalMS <= 0 || prof.Int8 == nil {
		t.Fatalf("profile: %+v", prof)
	}
	dep, err := c.Deployment(ctx, proj.ID, "cpp", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Files) < 4 {
		t.Fatalf("cpp files: %d", len(dep.Files))
	}
	blob, err := c.DeploymentEIM(ctx, proj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 100 || string(blob[:4]) != "EPIM" {
		t.Fatalf("EIM blob: %d bytes", len(blob))
	}

	// Versioning.
	snap, err := c.Snapshot(ctx, proj.ID, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version.DatasetVersion == "" {
		t.Fatalf("snapshot: %+v", snap)
	}
	versions, err := c.Versions(ctx, proj.ID, Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions.Versions) != 1 {
		t.Fatalf("versions: %+v", versions)
	}

	// Server metrics are visible through the client too.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 || m.Scheduler.Completed == 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestClientAPIError(t *testing.T) {
	ctx := context.Background()
	c := newStudio(t)

	// Unauthenticated access surfaces the typed envelope.
	_, err := c.Projects(ctx, Page{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type: %v", err)
	}
	if apiErr.Status != http.StatusUnauthorized || apiErr.Code != v1.CodeUnauthorized || apiErr.RequestID == "" {
		t.Fatalf("api error: %+v", apiErr)
	}

	user, err := c.CreateUser(ctx, "tester")
	if err != nil {
		t.Fatal(err)
	}
	auth := c.WithAPIKey(user.APIKey)
	if _, err := auth.Project(ctx, 999); !errors.As(err, &apiErr) || apiErr.Code != v1.CodeNotFound {
		t.Fatalf("not found: %v", err)
	}
	if _, err := auth.Rebalance(ctx, 999, 0.5); !errors.As(err, &apiErr) || apiErr.Code != v1.CodeNotFound {
		t.Fatalf("rebalance on unknown project: %v", err)
	}
}

func TestClientRetriesRateLimit(t *testing.T) {
	// A stub that 429s twice then succeeds exercises the retry loop
	// without coupling the test to limiter timing.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"success":false,"error":{"code":"rate_limited","message":"slow down"}}`)
			return
		}
		fmt.Fprint(w, `{"success":true,"devices":[]}`)
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(3))
	out, err := c.Devices(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success || calls.Load() != 3 {
		t.Fatalf("success=%v calls=%d", out.Success, calls.Load())
	}

	// With retries exhausted the typed error comes back.
	calls.Store(-100)
	_, err = New(srv.URL, WithRetries(0)).Devices(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != v1.CodeRateLimited {
		t.Fatalf("exhausted retries: %v", err)
	}
}

// TestClassifyRetryResendsIntactBody: the first attempt is refused
// before the server has read the body — the transport may still be
// writing it when the call moves on — and the retry must carry the
// same bytes, for every one of several concurrent callers.
func TestClassifyRetryResendsIntactBody(t *testing.T) {
	var refused sync.Map // window id -> refused once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("x-api-key")
		if _, seen := refused.LoadOrStore(id, true); !seen {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"success":false,"error":{"code":"rate_limited","message":"slow down"}}`)
			return
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Echo what arrived, as the label, for the caller to judge.
		var single v1.ClassifyRequest
		var batch v1.ClassifyBatchRequest
		var sum float64
		if strings.HasSuffix(r.URL.Path, "/batch") {
			err = batch.DecodeJSON(raw)
			for _, win := range batch.Windows {
				for _, v := range win {
					sum += float64(v)
				}
			}
			fmt.Fprintf(w, `{"success":true,"results":[{"label":"%d:%v:%g"}]}`, len(batch.Windows), batch.Quantized, sum)
		} else {
			err = single.DecodeJSON(raw)
			for _, v := range single.Features {
				sum += float64(v)
			}
			fmt.Fprintf(w, `{"success":true,"label":"%d:%v:%g"}`, len(single.Features), single.Quantized, sum)
		}
		if err != nil {
			t.Errorf("caller %s: body arrived damaged: %v", id, err)
		}
	}))
	defer srv.Close()

	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			window := make([]float32, 16000)
			var sum float64
			for i := range window {
				window[i] = float32(k+1) + float32(i%7)/8
				sum += float64(window[i])
			}
			c := New(srv.URL, WithRetries(1), WithAPIKey(fmt.Sprintf("single-%d", k)))
			out, err := c.Classify(context.Background(), 1, window, true)
			if err != nil {
				t.Errorf("caller %d: %v", k, err)
				return
			}
			if want := fmt.Sprintf("16000:true:%g", sum); out.Label != want {
				t.Errorf("caller %d: server saw %s, want %s", k, out.Label, want)
			}
			c = New(srv.URL, WithRetries(1), WithAPIKey(fmt.Sprintf("batch-%d", k)))
			res, err := c.ClassifyBatch(context.Background(), 1, [][]float32{window, window}, false)
			if err != nil || len(res.Results) != 1 {
				t.Errorf("caller %d batch: %v", k, err)
				return
			}
			if want := fmt.Sprintf("2:false:%g", 2*sum); res.Results[0].Label != want {
				t.Errorf("caller %d batch: server saw %s, want %s", k, res.Results[0].Label, want)
			}
		}(k)
	}
	wg.Wait()
}

package e2e

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
	"edgepulse/internal/core"
	"edgepulse/internal/faults"
	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
	"edgepulse/internal/store"
	"edgepulse/internal/synth"
)

// chaosEnv is a deliberately small platform instance: a durable
// registry (so store fault points sit on the real write path), a tiny
// job queue, and a tight admission gate, so synthetic load pushes it
// into overload quickly.
type chaosEnv struct {
	server  *httptest.Server
	c       *client.Client // no internal retries: raw shed responses
	sched   *jobs.Scheduler
	proj    *v1.CreateProjectResponse
	hmacKey string
}

func newChaosEnv(t *testing.T) *chaosEnv {
	t.Helper()
	t.Cleanup(faults.Reset)
	registry, err := project.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Close() })
	sched := jobs.NewScheduler(jobs.Config{
		MinWorkers: 2, MaxWorkers: 2,
		QueueSize: 8, MaxQueuedPerTag: 8,
	})
	t.Cleanup(sched.Shutdown)
	server := httptest.NewServer(api.NewServer(registry, sched,
		api.WithRateLimit(0, 0), // isolate the admission gate from the token bucket
		api.WithGate(resilience.GateConfig{MaxInflight: 8, SamplePeriod: time.Millisecond}),
	).Handler())
	t.Cleanup(server.Close)

	ctx := context.Background()
	c := client.New(server.URL, client.WithRetries(0))
	user, err := c.CreateUser(ctx, "chaos-bot")
	if err != nil {
		t.Fatal(err)
	}
	c = c.WithAPIKey(user.APIKey)
	proj, err := c.CreateProject(ctx, "chaos")
	if err != nil {
		t.Fatal(err)
	}
	e := &chaosEnv{server: server, c: c, sched: sched, proj: proj, hmacKey: proj.HMACKey}

	// A small signed dataset and a quickly trained impulse, so the
	// interactive classify path exercises a real model during the storm.
	ds, err := synth.KWSDataset(2, 6, 8000, 0.5, 0.03, 42)
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
		if _, err := c.UploadSample(ctx, proj.ID, client.UploadParams{
			Label: s.Label, Name: s.Name, Format: "acquisition",
		}, e.sign(t, values, 1670000000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Rebalance(ctx, proj.ID, 0.25); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Version: core.ConfigVersion,
		Name:    "chaos",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1},
		DSP: []core.DSPBlockSpec{{
			Name: "audio", Type: "mfe",
			Params: map[string]float64{"num_filters": 16, "fft_length": 128},
		}},
		Learn:   []core.LearnBlockSpec{{Type: core.LearnClassification, Inputs: []string{"audio"}}},
		Classes: []string{"noise", "yes"},
	}
	if _, err := c.SetImpulse(ctx, proj.ID, cfg); err != nil {
		t.Fatal(err)
	}
	accepted, err := c.Train(ctx, proj.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "conv1d", Depth: 1, StartFilters: 4, EndFilters: 4},
		Epochs:       2,
		LearningRate: 0.005,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitJob(ctx, accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Job.Status != v1.JobFinished {
		t.Fatalf("training: %+v", done.Job)
	}
	return e
}

// sign produces a signed acquisition document for values.
func (e *chaosEnv) sign(t *testing.T, values [][]float64, stamp int64) []byte {
	t.Helper()
	doc, err := ingest.SignJSON(ingest.Payload{
		DeviceName: "device-01", DeviceType: "NANO33BLE",
		IntervalMS: 1000.0 / 8000.0,
		Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
		Values:     values,
	}, e.hmacKey, stamp)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func (e *chaosEnv) readyzStatus(t *testing.T) int {
	t.Helper()
	resp, err := http.Get(e.server.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestChaosInjectedFaultsAndOverload is the resilience plane's e2e
// proof. Under injected store I/O faults the platform degrades to clean
// 5xx envelopes while liveness stays green; under a 4x-capacity mixed
// load storm the interactive class is never shed, every shed response
// is retryable (stable code + Retry-After), readiness flips to 503 and
// recovers within 5s of the load stopping, and the storm leaks no
// goroutines.
func TestChaosInjectedFaultsAndOverload(t *testing.T) {
	e := newChaosEnv(t)
	ctx := context.Background()

	// --- Phase 1: store write faults ---
	tiny := [][]float64{{0.1}, {0.2}, {0.3}}
	disarmStore := faults.Arm(store.FaultAppend, errors.New("injected disk failure"), faults.Times(2))
	_, err := e.c.UploadSample(ctx, e.proj.ID, client.UploadParams{
		Label: "yes", Name: "faulted", Format: "acquisition",
	}, e.sign(t, tiny, 1680000001))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status < 500 {
		t.Fatalf("upload under store fault: want 5xx API error, got %v", err)
	}
	// A failing dependency must not look like a dead process.
	if resp, err := http.Get(e.server.URL + "/api/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during store faults: %v %v", resp, err)
	}
	disarmStore()
	if _, err := e.c.UploadSample(ctx, e.proj.ID, client.UploadParams{
		Label: "yes", Name: "recovered", Format: "acquisition",
	}, e.sign(t, tiny, 1680000002)); err != nil {
		t.Fatalf("upload after disarm: %v", err)
	}

	// --- Phase 2: overload storm at ~4x the gate's capacity ---
	// Slow every job down so the batch queue stays saturated while the
	// storm runs.
	disarmExec := faults.Arm(jobs.FaultExec, nil, faults.Delay(200*time.Millisecond))
	baselineGoroutines := runtime.NumGoroutine()

	type outcome struct {
		class      string
		status     int // 0 = success
		code       string
		retryAfter time.Duration
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
	)
	record := func(class string, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			outcomes = append(outcomes, outcome{class: class})
			return
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			outcomes = append(outcomes, outcome{
				class: class, status: apiErr.Status,
				code: apiErr.Code, retryAfter: apiErr.RetryAfter,
			})
		}
	}

	features := make([]float32, 4000) // 500ms window at 8000 Hz
	stormCtx, stopStorm := context.WithCancel(ctx)
	var wg sync.WaitGroup
	worker := func(class string, call func() error) {
		defer wg.Done()
		for stormCtx.Err() == nil {
			record(class, call())
		}
	}
	// 32 concurrent workers against MaxInflight 8: interactive
	// classifies, default-class dataset lists, batch tuner submissions.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go worker("interactive", func() error {
			_, err := e.c.Classify(stormCtx, e.proj.ID, features, false)
			return err
		})
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go worker("default", func() error {
			_, err := e.c.Samples(stormCtx, e.proj.ID, "", client.Page{Limit: 5})
			return err
		})
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go worker("batch", func() error {
			_, err := e.c.Tuner(stormCtx, e.proj.ID, v1.TunerRequest{MaxTrials: 1, Epochs: 1, Seed: 1})
			return err
		})
	}

	// Watch readiness while the storm runs: overload must surface as 503.
	sawNotReady := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.readyzStatus(t) == http.StatusServiceUnavailable {
			sawNotReady = true
		}
		time.Sleep(25 * time.Millisecond)
	}
	stopStorm()
	wg.Wait()
	disarmExec()
	// Load removal includes abandoning the batch backlog the storm
	// enqueued; callers walking away from queued work is exactly what a
	// shed-and-retry client population does.
	for _, j := range e.sched.List() {
		if !j.Status().Terminal() {
			e.sched.Cancel(j.ID)
		}
	}
	stormEnd := time.Now()

	// --- Assertions over the storm's outcomes ---
	classStats := map[string]map[int]int{}
	for _, o := range outcomes {
		if classStats[o.class] == nil {
			classStats[o.class] = map[int]int{}
		}
		classStats[o.class][o.status]++
		switch o.status {
		case 0:
			// success
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Every shed response must be retryable: a stable code the
			// client can branch on plus a Retry-After hint.
			if o.retryAfter <= 0 {
				t.Fatalf("shed %s response without Retry-After: %+v", o.class, o)
			}
			switch o.code {
			case v1.CodeOverloaded, v1.CodeRateLimited, v1.CodeUnavailable:
			default:
				t.Fatalf("shed response with non-retryable code: %+v", o)
			}
		default:
			t.Fatalf("unexpected status during storm: %+v", o)
		}
	}
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		if n := classStats["interactive"][status]; n != 0 {
			t.Fatalf("%d interactive-class requests shed with %d; interactive must never shed (stats: %v)",
				n, status, classStats)
		}
	}
	if classStats["interactive"][0] == 0 {
		t.Fatal("no interactive request succeeded during the storm")
	}
	shedTotal := 0
	for _, cls := range []string{"default", "batch"} {
		shedTotal += classStats[cls][http.StatusTooManyRequests] + classStats[cls][http.StatusServiceUnavailable]
	}
	if shedTotal == 0 {
		t.Fatalf("storm never pushed the gate into shedding (stats: %v) — not a 4x overload", classStats)
	}
	if !sawNotReady {
		t.Fatalf("readyz never reported 503 during the storm (stats: %v)", classStats)
	}

	// --- Phase 3: recovery ---
	// Readiness returns within 5s of the load stopping.
	recovered := false
	for time.Since(stormEnd) < 5*time.Second {
		if e.readyzStatus(t) == http.StatusOK {
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("readyz still 503 5s after load removal")
	}
	// The storm's goroutines drained — no leaks from shed or timed-out
	// requests.
	goroutinesOK := false
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baselineGoroutines+5 {
			goroutinesOK = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !goroutinesOK {
		t.Fatalf("goroutines %d, baseline %d — leak after the storm", runtime.NumGoroutine(), baselineGoroutines)
	}
	// And the platform still works end to end.
	out, err := e.c.Classify(ctx, e.proj.ID, features, false)
	if err != nil || !out.Success {
		t.Fatalf("classify after recovery: %v %+v", err, out)
	}
	// The metrics DTO reports what happened.
	m, err := e.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resilience == nil || m.Resilience.Shed == 0 {
		t.Fatalf("resilience metrics after storm: %+v", m.Resilience)
	}
	if m.Resilience.ShedByClass["interactive"] != 0 {
		t.Fatalf("gate counted interactive sheds: %+v", m.Resilience.ShedByClass)
	}
	fmt.Printf("chaos storm: %v, gate sheds by class: %v\n", classStats, m.Resilience.ShedByClass)
}

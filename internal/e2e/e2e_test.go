// Package e2e is the repository's end-to-end smoke suite: it boots the
// full platform (registry + orchestrating scheduler + REST API) over
// httptest and drives the whole MLOps loop — signed upload, v2 impulse
// graph, async training watched through the live event stream, int8
// quantization, EON-compiled deployment and classification — through
// the typed client only, exactly as an external automation would. This
// is the tier-1 proof that the layers actually compose; every future PR
// runs it.
package e2e

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
	"edgepulse/internal/core"
	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/synth"
)

// env is one booted platform instance plus an authenticated client and
// a project loaded with a small synthetic keyword dataset.
type env struct {
	server *httptest.Server
	c      *client.Client
	proj   *v1.CreateProjectResponse
}

func newEnv(t *testing.T) *env { return newEnvClips(t, 0.5) }

// newEnvClips boots the platform with keyword clips of the given length
// — streaming tests train on full-second utterances to match the
// geometry synth.Stream embeds in a live feed.
func newEnvClips(t *testing.T, clipSeconds float64) *env {
	t.Helper()
	registry := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 2})
	t.Cleanup(sched.Shutdown)
	server := httptest.NewServer(api.NewServer(registry, sched).Handler())
	t.Cleanup(server.Close)

	ctx := context.Background()
	c := client.New(server.URL)
	user, err := c.CreateUser(ctx, "e2e-bot")
	if err != nil {
		t.Fatal(err)
	}
	c = c.WithAPIKey(user.APIKey)
	proj, err := c.CreateProject(ctx, "wake-word")
	if err != nil {
		t.Fatal(err)
	}

	// Signed acquisition upload of a synthetic 2-class keyword dataset,
	// through the same ingestion endpoint a device daemon uses.
	ds, err := synth.KWSDataset(2, 10, 8000, clipSeconds, 0.03, 42)
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
			DeviceName: "device-01", DeviceType: "NANO33BLE",
			IntervalMS: 1000.0 / 8000.0,
			Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
			Values:     values,
		}, proj.HMACKey, 1670000000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.UploadSample(ctx, proj.ID, client.UploadParams{
			Label: s.Label, Name: s.Name, Format: "acquisition",
		}, doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Rebalance(ctx, proj.ID, 0.25); err != nil {
		t.Fatal(err)
	}
	return &env{server: server, c: c, proj: proj}
}

// setImpulse uploads the v2 block-graph design.
func (e *env) setImpulse(t *testing.T) {
	t.Helper()
	cfg := core.Config{
		Version: core.ConfigVersion,
		Name:    "wake-word",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1},
		DSP: []core.DSPBlockSpec{{
			Name: "audio", Type: "mfe",
			Params: map[string]float64{"num_filters": 16, "fft_length": 128},
		}},
		Learn:   []core.LearnBlockSpec{{Type: core.LearnClassification, Inputs: []string{"audio"}}},
		Classes: []string{"noise", "yes"},
	}
	resp, err := e.c.SetImpulse(context.Background(), e.proj.ID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) != 1 || resp.Blocks[0].Name != "audio" {
		t.Fatalf("impulse blocks: %+v", resp.Blocks)
	}
}

// TestFullPipelineWithStreamedProgress is the tier-1 smoke: the entire
// upload → impulse → train → quantize → EON deploy → classify flow,
// with the training job watched live through the streaming events API.
func TestFullPipelineWithStreamedProgress(t *testing.T) {
	e := newEnv(t)
	e.setImpulse(t)
	ctx := context.Background()

	const epochs = 8
	accepted, err := e.c.Train(ctx, e.proj.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "conv1d", Depth: 2, StartFilters: 8, EndFilters: 16},
		Epochs:       epochs,
		LearningRate: 0.005,
		Quantize:     true,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Watch the whole run through the live stream while it executes.
	var events []v1.JobEvent
	streamCtx, cancelStream := context.WithTimeout(ctx, 120*time.Second)
	defer cancelStream()
	if err := e.c.StreamJobEvents(streamCtx, accepted.JobID, 0, func(ev v1.JobEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The stream is ordered, contiguous and ends with the terminal
	// finished event.
	if len(events) < 5 {
		t.Fatalf("only %d events streamed", len(events))
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d — gap or duplicate in stream", i, ev.Seq)
		}
	}
	first, last := events[0], events[len(events)-1]
	if first.Type != v1.JobEventState || first.Status != v1.JobQueued {
		t.Fatalf("first event %+v", first)
	}
	if !last.Terminal() || last.Status != v1.JobFinished {
		t.Fatalf("last event %+v", last)
	}
	// Real epoch progress: the "train" stage reported monotonically
	// non-decreasing percentages and reached 100.
	var trainPcts []float64
	stages := map[string]bool{}
	for _, ev := range events {
		if ev.Type == v1.JobEventProgress {
			stages[ev.Stage] = true
			if ev.Stage == "train" {
				trainPcts = append(trainPcts, ev.Progress)
			}
		}
	}
	if len(trainPcts) < epochs {
		t.Fatalf("train progress events %d, want >= %d (one per epoch)", len(trainPcts), epochs)
	}
	for i := 1; i < len(trainPcts); i++ {
		if trainPcts[i] < trainPcts[i-1] {
			t.Fatalf("train progress regressed: %v", trainPcts)
		}
	}
	if trainPcts[len(trainPcts)-1] != 100 {
		t.Fatalf("train never reached 100%%: %v", trainPcts)
	}
	for _, stage := range []string{"build", "train", "evaluate", "quantize"} {
		if !stages[stage] {
			t.Fatalf("missing %q stage in progress events (saw %v)", stage, stages)
		}
	}

	// Last-Event-Id resume: replaying from a mid-stream cursor yields
	// exactly the tail — no gaps, no duplicates.
	mid := events[len(events)/2].Seq
	var resumed []v1.JobEvent
	if err := e.c.StreamJobEvents(ctx, accepted.JobID, mid, func(ev v1.JobEvent) error {
		resumed = append(resumed, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tail := events[len(events)/2+1:] // resume is exclusive of the cursor
	if len(resumed) != len(tail) {
		t.Fatalf("resume from %d delivered %d events, want %d", mid, len(resumed), len(tail))
	}
	for i := range tail {
		if resumed[i].Seq != tail[i].Seq || resumed[i].Type != tail[i].Type {
			t.Fatalf("resume mismatch at %d: %+v vs %+v", i, resumed[i], tail[i])
		}
	}
	// The long-poll fallback agrees with the stream.
	poll, err := e.c.JobEvents(ctx, accepted.JobID, mid, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !poll.Done || len(poll.Events) != len(tail) {
		t.Fatalf("poll after %d: done=%v %d events, want %d", mid, poll.Done, len(poll.Events), len(tail))
	}

	// The trained model is real: accuracy holds on the test split.
	res, err := e.c.JobResult(ctx, accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := res.TrainResult()
	if err != nil {
		t.Fatal(err)
	}
	if trained.Accuracy < 0.6 {
		t.Fatalf("accuracy %.3f", trained.Accuracy)
	}
	if !trained.Quantized {
		t.Fatal("quantization skipped")
	}

	// Classify a fresh synthetic window, float and int8.
	sig, err := synth.Keyword("yes", 8000, 0.5, 0.02, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	for _, quantized := range []bool{false, true} {
		out, err := e.c.Classify(ctx, e.proj.ID, sig.Data, quantized)
		if err != nil {
			t.Fatal(err)
		}
		if out.Label == "" || len(out.Classification) != 2 {
			t.Fatalf("classify(quantized=%v): %+v", quantized, out)
		}
	}

	// EON-compiled deployment artifacts (quantized C++ library + EIM).
	dep, err := e.c.Deployment(ctx, e.proj.ID, "cpp", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Files) < 4 {
		t.Fatalf("deployment files: %d", len(dep.Files))
	}
	blob, err := e.c.DeploymentEIM(ctx, e.proj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 100 || string(blob[:4]) != "EPIM" {
		t.Fatalf("EIM blob: %d bytes", len(blob))
	}

	// The scheduler surfaced the run in its per-kind metrics.
	metrics, err := e.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	foundKind := false
	for _, k := range metrics.Scheduler.Kinds {
		if k.Kind == "training" && k.Count >= 1 {
			foundKind = true
		}
	}
	if !foundKind || metrics.Scheduler.Completed < 1 {
		t.Fatalf("scheduler metrics: %+v", metrics.Scheduler)
	}
}

// TestCancellationStopsTraining proves the cancellation contract end to
// end: a long training job is cancelled mid-epochs over the API, the
// trainer observes its context (partial epochs stop), and the event
// stream delivers the terminal cancelled event.
func TestCancellationStopsTraining(t *testing.T) {
	e := newEnv(t)
	e.setImpulse(t)
	ctx := context.Background()

	// Far more epochs than the fast path needs, so cancellation lands
	// mid-training.
	accepted, err := e.c.Train(ctx, e.proj.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "conv1d", Depth: 2, StartFilters: 8, EndFilters: 16},
		Epochs:       100000,
		LearningRate: 0.005,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stream until real training progress appears, then cancel.
	var mu sync.Mutex
	var events []v1.JobEvent
	trainProgress := make(chan struct{})
	var progressOnce sync.Once
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- e.c.StreamJobEvents(ctx, accepted.JobID, 0, func(ev v1.JobEvent) error {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			if ev.Type == v1.JobEventProgress && ev.Stage == "train" && ev.Progress > 0 {
				progressOnce.Do(func() { close(trainProgress) })
			}
			return nil
		})
	}()
	select {
	case <-trainProgress:
	case <-time.After(60 * time.Second):
		t.Fatal("training never reported progress")
	}
	cancelled, err := e.c.CancelJob(ctx, accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !cancelled.Cancelled {
		t.Fatalf("cancel response: %+v", cancelled)
	}

	// The job reaches the cancelled terminal state promptly — the
	// trainer stops mid-epoch instead of finishing 100k epochs.
	waited, err := e.c.WaitJob(ctx, accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if waited.Status != v1.JobCancelled {
		t.Fatalf("status after cancel: %s (%s)", waited.Status, waited.Job.Error)
	}
	// The stream terminates with the cancelled event.
	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("event stream did not terminate after cancellation")
	}
	mu.Lock()
	defer mu.Unlock()
	lastEvent := events[len(events)-1]
	if !lastEvent.Terminal() || lastEvent.Status != v1.JobCancelled {
		t.Fatalf("stream end after cancel: %+v", lastEvent)
	}
	// Partial epochs: progress never reached 100.
	for _, ev := range events {
		if ev.Type == v1.JobEventProgress && ev.Stage == "train" && ev.Progress >= 100 {
			t.Fatalf("training completed despite cancellation: %+v", ev)
		}
	}
	// The cancelled job left no result behind.
	if _, err := e.c.JobResult(ctx, accepted.JobID); err == nil {
		t.Fatal("cancelled job produced a result")
	}
	fmt.Println("cancelled after", len(events), "events")
}

// Streaming inference end to end: train a keyword model over the API,
// open a live session through the typed client, feed a synthetic stream
// with known utterance positions chunk by chunk, and check that the
// debounced detector fires exactly once per embedded keyword — the
// performance-calibration contract (paper Sec. 4.4) proven over the
// wire instead of in-process.
package e2e

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/calibration"
	"edgepulse/internal/core"
	"edgepulse/internal/synth"
)

// trainStreamModel configures a 1 s window / 250 ms stride impulse and
// trains it to completion through the job API.
func trainStreamModel(t *testing.T, e *env) {
	t.Helper()
	ctx := context.Background()
	cfg := core.Config{
		Version: core.ConfigVersion,
		Name:    "live-kws",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: 1000, StrideMS: 250, FrequencyHz: 8000, Axes: 1},
		DSP: []core.DSPBlockSpec{{
			Name: "audio", Type: "mfe",
			Params: map[string]float64{"num_filters": 16, "fft_length": 128},
		}},
		Learn:   []core.LearnBlockSpec{{Type: core.LearnClassification, Inputs: []string{"audio"}}},
		Classes: []string{"noise", "yes"},
	}
	if _, err := e.c.SetImpulse(ctx, e.proj.ID, cfg); err != nil {
		t.Fatal(err)
	}
	accepted, err := e.c.Train(ctx, e.proj.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "conv1d", Depth: 2, StartFilters: 8, EndFilters: 16},
		Epochs:       8,
		LearningRate: 0.005,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := e.c.WaitJob(ctx, accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != v1.JobFinished {
		t.Fatalf("training ended as %s: %s", done.Status, done.Job.Error)
	}
}

// sessionRun is what one live session over a synthetic feed reported.
type sessionRun struct {
	info       v1.StreamOpenResponse
	closed     *v1.StreamCloseResponse
	pushed     int
	results    int
	detections []v1.StreamEvent
}

// runSession opens a session with req, tails its event feed while it
// pushes src in stride-sized chunks, like a device UI, and closes it.
func runSession(t *testing.T, e *env, req v1.StreamOpenRequest, src *synth.Source) sessionRun {
	t.Helper()
	ctx := context.Background()
	sess, err := e.c.OpenStream(ctx, e.proj.ID, req)
	if err != nil {
		t.Fatal(err)
	}
	run := sessionRun{info: sess.Info}
	var mu sync.Mutex
	var lastSeq int64
	tailCtx, cancelTail := context.WithTimeout(ctx, 120*time.Second)
	defer cancelTail()
	tailDone := make(chan error, 1)
	go func() {
		tailDone <- sess.Events(tailCtx, 0, func(ev v1.StreamEvent) error {
			mu.Lock()
			defer mu.Unlock()
			if ev.Seq != lastSeq+1 {
				t.Errorf("event seq %d after %d — gap or duplicate", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			switch ev.Type {
			case "result":
				run.results++
			case "detection":
				run.detections = append(run.detections, ev)
			}
			return nil
		})
	}()

	// Push the feed in stride-sized chunks until the source runs dry.
	for {
		chunk := src.Next(sess.Info.StrideSamples)
		if chunk == nil {
			break
		}
		if _, err := sess.Push(ctx, chunk); err != nil {
			t.Fatal(err)
		}
		run.pushed += len(chunk)
	}
	if run.closed, err = sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-tailDone; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return run
}

// detectionsOf maps a session's detection events onto the scorer's
// (window start, label) pairs.
func detectionsOf(events []v1.StreamEvent) []calibration.Detection {
	dets := make([]calibration.Detection, len(events))
	for i, ev := range events {
		dets[i] = calibration.Detection{WindowStart: int(ev.WindowStart), Label: ev.Label}
	}
	return dets
}

// TestStreamingKeywordDetections is the streaming acceptance contract:
// a 12 s live feed with 3 embedded "yes" utterances, pushed in stride
// sized chunks through the typed client, yields one rolling result per
// window and exactly 3 debounced detections, one credited to each
// ground-truth utterance.
func TestStreamingKeywordDetections(t *testing.T) {
	e := newEnvClips(t, 1.0)
	trainStreamModel(t, e)

	const rate = 8000
	src, truth, err := synth.NewStreamSource("yes", rate, 12, 3, 0.02, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 3 {
		t.Fatalf("ground truth: %d events", len(truth))
	}

	// Release sits just under Threshold: this small model's class scores
	// cluster around 0.5, so the default hysteresis level (0.45) would
	// never re-arm between utterances only a few strides apart.
	run := runSession(t, e, v1.StreamOpenRequest{
		Threshold:    0.6,
		Release:      0.55,
		Smooth:       2,
		Suppress:     4,
		IgnoreLabels: []string{"noise"},
	}, src)
	if run.info.WindowSamples != rate || run.info.StrideSamples != rate/4 {
		t.Fatalf("session geometry %+v", run.info)
	}

	wantWindows := (run.pushed-run.info.WindowSamples)/run.info.StrideSamples + 1
	if run.closed.Stats.FramesIn != int64(run.pushed) || run.closed.Stats.Windows != int64(wantWindows) {
		t.Fatalf("close stats %+v (pushed %d, want %d windows)", run.closed.Stats, run.pushed, wantWindows)
	}
	if run.results != wantWindows {
		t.Fatalf("streamed %d rolling results, want one per window (%d)", run.results, wantWindows)
	}
	if run.closed.Stats.Detections != int64(len(run.detections)) {
		t.Fatalf("stats report %d detections, feed delivered %d", run.closed.Stats.Detections, len(run.detections))
	}

	// Exactly one debounced detection per embedded utterance.
	out := calibration.Score(truth, detectionsOf(run.detections), run.info.WindowSamples)
	if out.Credited != len(truth) || out.FalseAccepts != 0 {
		t.Fatalf("%+v for %d utterances: detections %+v, truth %+v", out, len(truth), run.detections, truth)
	}
}

// TestCalibrationSuggestionFiresInSession: the operating point
// calibration suggests is the detector a session runs. The feed's
// windows are classified in one batch, calibration searches over them,
// and a session opened with a suggestion's settings over the same feed
// fires exactly the detections (window start, label) calibration's
// replay predicted.
func TestCalibrationSuggestionFiresInSession(t *testing.T) {
	e := newEnvClips(t, 1.0)
	trainStreamModel(t, e)
	ctx := context.Background()

	const rate, stride = 8000, 2000
	sig, truth, err := synth.Stream("yes", rate, 12, 3, 0.02, 21)
	if err != nil {
		t.Fatal(err)
	}
	classes := []string{"noise", "yes"}
	cal := calibration.Stream{
		Classes: classes, WindowSamples: rate, Rate: rate,
		TotalSamples: sig.Frames(), Events: truth,
	}
	var windows [][]float32
	for start := 0; start+rate <= sig.Frames(); start += stride {
		windows = append(windows, sig.Data[start:start+rate])
		cal.WindowStarts = append(cal.WindowStarts, start)
	}
	batch, err := e.c.ClassifyBatch(ctx, e.proj.ID, windows, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range batch.Results {
		cal.Scores = append(cal.Scores, []float32{r.Classification["noise"], r.Classification["yes"]})
	}
	suggestions, err := calibration.Calibrate(cal, []string{"noise"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	best := suggestions[len(suggestions)-1] // lowest FRR
	want := calibration.Replay(cal, best.Config)
	if len(want) == 0 {
		t.Fatalf("suggestion %+v fires nothing: no detections to compare", best)
	}

	c := best.Config
	run := runSession(t, e, v1.StreamOpenRequest{
		Threshold: c.Threshold, Release: c.Release, Smooth: c.Smooth,
		Suppress: c.Suppress, IgnoreLabels: c.Ignore,
	}, synth.NewSource(sig, false))
	if run.closed.Stats.Windows != int64(len(windows)) {
		t.Fatalf("session classified %d windows, calibration %d", run.closed.Stats.Windows, len(windows))
	}
	if got := detectionsOf(run.detections); !slices.Equal(got, want) {
		t.Fatalf("session with %+v fired %+v, calibration's replay %+v", c, got, want)
	}
	if out := calibration.Score(truth, want, rate); out != best.Outcome {
		t.Fatalf("replay scores %+v, the suggestion reported %+v", out, best.Outcome)
	}
}

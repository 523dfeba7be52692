package client

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/jobs"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/project"
)

// newStreamStudio boots the platform with one project that already has
// a (randomly initialized) trained impulse, skipping the training job.
func newStreamStudio(t *testing.T) (*Client, int) {
	t.Helper()
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 2})
	t.Cleanup(sched.Shutdown)
	srv := httptest.NewServer(api.NewServer(reg, sched).Handler())
	t.Cleanup(srv.Close)
	c := New(srv.URL)
	ctx := context.Background()
	user, err := c.CreateUser(ctx, "streamer")
	if err != nil {
		t.Fatal(err)
	}
	c = c.WithAPIKey(user.APIKey)
	proj, err := c.CreateProject(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.GetProject(proj.ID)
	if err != nil {
		t.Fatal(err)
	}

	imp := core.New("client-stream-test")
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
	p.SetImpulse(imp)
	return c, proj.ID
}

func TestClientStreamSession(t *testing.T) {
	ctx := context.Background()
	c, projectID := newStreamStudio(t)

	sess, err := c.OpenStream(ctx, projectID, v1.StreamOpenRequest{Threshold: 0.4, Smooth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() == "" || sess.Info.WindowSamples != 1000 || sess.Info.StrideSamples != 500 {
		t.Fatalf("session info %+v", sess.Info)
	}

	// Tail events concurrently while pushing; the feed ends with the
	// close below.
	type tailResult struct {
		events []v1.StreamEvent
		err    error
	}
	done := make(chan tailResult, 1)
	go func() {
		var events []v1.StreamEvent
		err := sess.Events(ctx, 0, func(e v1.StreamEvent) error {
			events = append(events, e)
			return nil
		})
		done <- tailResult{events, err}
	}()

	samples := make([]float32, 2000)
	for i := range samples {
		samples[i] = 0.5 * float32(math.Sin(2*math.Pi*700*float64(i)/4000))
	}
	// Push in uneven chunks; windows land at frames 0, 500, 1000.
	for _, chunk := range [][]float32{samples[:900], samples[900:1300], samples[1300:]} {
		if _, err := sess.Push(ctx, chunk); err != nil {
			t.Fatal(err)
		}
	}

	closed, err := sess.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Stats.FramesIn != 2000 || closed.Stats.Windows != 3 {
		t.Fatalf("close stats %+v", closed.Stats)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	var results int
	for i, ev := range res.events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d seq %d", i, ev.Seq)
		}
		if ev.Type == "result" {
			results++
		}
	}
	if results != 3 {
		t.Fatalf("%d results, want 3 (%+v)", results, res.events)
	}
	if last := res.events[len(res.events)-1]; !last.Terminal() {
		t.Fatalf("feed did not end terminally: %+v", last)
	}

	// The closed session's feed replays from any cursor (reconnect-style
	// resume against the retained log).
	var replay []v1.StreamEvent
	if err := sess.Events(ctx, 2, func(e v1.StreamEvent) error {
		replay = append(replay, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(res.events)-2 || replay[0].Seq != 3 {
		t.Fatalf("replay after seq 2: %d events, first %+v", len(replay), replay[0])
	}

	// Pushing after close surfaces the typed conflict error.
	var apiErr *APIError
	if _, err := sess.Push(ctx, samples[:500]); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("push after close: %v", err)
	}
}

func TestClientOpenStreamUntrained(t *testing.T) {
	ctx := context.Background()
	c, projectID := newStreamStudio(t)
	bare, err := c.CreateProject(ctx, "untrained")
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if _, err := c.OpenStream(ctx, bare.ID, v1.StreamOpenRequest{}); !errors.As(err, &apiErr) || apiErr.Code != v1.CodeBadRequest {
		t.Fatalf("open on untrained project: %v", err)
	}
	_ = projectID
}

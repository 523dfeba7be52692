// Streaming keyword spotting over the live inference gateway: boot the
// platform, train a small wake-word model through the job API, then
// open a streaming session and feed a 12-second synthetic audio stream
// with three embedded "yes" utterances chunk by chunk — exactly how a
// device daemon would forward microphone frames. Rolling window results
// and debounced detection events arrive on the session's NDJSON feed
// through the typed client; the demo checks that the detector fires
// exactly once per utterance.
//
//	go run ./examples/streaming_kws
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
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

const rate = 8000

func main() {
	// Boot the platform in-process (in production: cmd/ei-studio).
	registry := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 4})
	defer sched.Shutdown()
	server := httptest.NewServer(api.NewServer(registry, sched).Handler())
	defer server.Close()
	ctx := context.Background()

	c := client.New(server.URL)
	user, err := c.CreateUser(ctx, "live-bot")
	if err != nil {
		log.Fatal(err)
	}
	c = c.WithAPIKey(user.APIKey)
	proj, err := c.CreateProject(ctx, "wake-word-live")
	if err != nil {
		log.Fatal(err)
	}

	// 1. Train a 1 s window / 250 ms stride keyword model over the API.
	fmt.Println("== training the wake-word model ==")
	trainModel(ctx, c, proj)

	// 2. Open a live session. The debounce settings are the streaming
	// post-processing contract: smoothed score >= threshold fires, the
	// class re-arms below release, and "noise" never fires.
	sess, err := c.OpenStream(ctx, proj.ID, v1.StreamOpenRequest{
		Threshold:    0.6,
		Release:      0.55,
		Smooth:       2,
		Suppress:     4,
		IgnoreLabels: []string{"noise"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== session %s: %d-sample windows every %d samples at %d Hz ==\n",
		sess.ID(), sess.Info.WindowSamples, sess.Info.StrideSamples, sess.Info.Rate)

	// 3. Synthesize the live feed: 12 s of background with 3 "yes"
	// utterances at known positions.
	src, truth, err := synth.NewStreamSource("yes", rate, 12, 3, 0.02, 21)
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range truth {
		fmt.Printf("  ground truth: %q at %.2fs..%.2fs\n",
			ev.Label, float64(ev.StartSample)/rate, float64(ev.EndSample)/rate)
	}

	// 4. Tail the event feed concurrently with the pushes.
	detections := 0
	tailDone := make(chan error, 1)
	go func() {
		tailDone <- sess.Events(ctx, 0, func(ev v1.StreamEvent) error {
			switch ev.Type {
			case "result":
				fmt.Printf("  window @ %5.2fs  %-6s %.2f\n",
					float64(ev.WindowStart)/rate, ev.Label, ev.Score)
			case "detection":
				detections++
				fmt.Printf("  *** detected %q (smoothed %.2f) at %.2fs\n",
					ev.Label, ev.Score, float64(ev.WindowStart)/rate)
			}
			return nil
		})
	}()

	// 5. Push stride-sized chunks until the source runs dry, then close
	// — the server flushes queued frames before reporting final stats.
	for {
		chunk := src.Next(sess.Info.StrideSamples)
		if chunk == nil {
			break
		}
		if _, err := sess.Push(ctx, chunk); err != nil {
			log.Fatal(err)
		}
	}
	closed, err := sess.Close(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if err := <-tailDone; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== closed: %d frames in, %d windows, %d detections, %d dropped ==\n",
		closed.Stats.FramesIn, closed.Stats.Windows, closed.Stats.Detections, closed.Stats.Dropped)
	if detections != len(truth) {
		log.Fatalf("debounce contract broken: %d detections for %d utterances", detections, len(truth))
	}
	fmt.Printf("exactly %d debounced detections for %d utterances\n", detections, len(truth))
}

// trainModel uploads a signed 1 s-clip keyword dataset, configures the
// impulse and runs the training job to completion.
func trainModel(ctx context.Context, c *client.Client, proj *v1.CreateProjectResponse) {
	ds, err := synth.KWSDataset(2, 10, rate, 1.0, 0.03, 42)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range ds.List("") {
		s, err := ds.Get(h.ID)
		if err != nil {
			log.Fatal(err)
		}
		values := make([][]float64, s.Signal.Frames())
		for i := range values {
			values[i] = []float64{float64(s.Signal.Data[i])}
		}
		doc, err := ingest.SignJSON(ingest.Payload{
			DeviceName: "device-01", DeviceType: "NANO33BLE",
			IntervalMS: 1000.0 / rate,
			Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
			Values:     values,
		}, proj.HMACKey, time.Now().Unix())
		if err != nil {
			log.Fatal(err)
		}
		if _, err := c.UploadSample(ctx, proj.ID, client.UploadParams{
			Label: s.Label, Name: s.Name, Format: "acquisition",
		}, doc); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := c.Rebalance(ctx, proj.ID, 0.25); err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{
		Version: core.ConfigVersion,
		Name:    "wake-word-live",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: 1000, StrideMS: 250, FrequencyHz: rate, Axes: 1},
		DSP: []core.DSPBlockSpec{{
			Name: "audio", Type: "mfe",
			Params: map[string]float64{"num_filters": 16, "fft_length": 128},
		}},
		Learn:   []core.LearnBlockSpec{{Type: core.LearnClassification, Inputs: []string{"audio"}}},
		Classes: []string{"noise", "yes"},
	}
	if _, err := c.SetImpulse(ctx, proj.ID, cfg); err != nil {
		log.Fatal(err)
	}
	accepted, err := c.Train(ctx, proj.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "conv1d", Depth: 2, StartFilters: 8, EndFilters: 16},
		Epochs:       8,
		LearningRate: 0.005,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}
	done, err := c.WaitJob(ctx, accepted.JobID)
	if err != nil {
		log.Fatal(err)
	}
	if done.Status != v1.JobFinished {
		log.Fatal("training ended as ", done.Status, ": ", done.Job.Error)
	}
	res, err := c.JobResult(ctx, accepted.JobID)
	if err != nil {
		log.Fatal(err)
	}
	trained, err := res.TrainResult()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: accuracy %.3f\n", trained.Accuracy)
}

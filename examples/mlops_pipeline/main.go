// MLOps pipeline: the full automated loop over the REST API, exactly as a
// CI system would drive the platform (paper Sec. 4.9): bootstrap a user,
// create a project, ingest HMAC-signed sensor data, configure the
// impulse, run an async training job on the autoscaling scheduler,
// long-poll it to completion, download the EIM deployment artifact, and
// run inference with the deployed model — no direct library calls to the
// ML internals, only the typed v1 API through internal/client.
//
//	go run ./examples/mlops_pipeline
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

func main() {
	// Boot the platform in-process (in production: cmd/ei-studio).
	registry := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 4, ScaleInterval: 20 * time.Millisecond})
	defer sched.Shutdown()
	server := httptest.NewServer(api.NewServer(registry, sched).Handler())
	defer server.Close()
	fmt.Println("studio API at", server.URL)
	ctx := context.Background()

	// 1. Bootstrap a user + project.
	c := client.New(server.URL)
	user, err := c.CreateUser(ctx, "ci-bot")
	if err != nil {
		log.Fatal(err)
	}
	c = c.WithAPIKey(user.APIKey)
	proj, err := c.CreateProject(ctx, "wake-word")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("project %d created (ingestion key %s...)\n", proj.ID, proj.HMACKey[:10])

	// 2. Ingest signed device data.
	ds, err := synth.KWSDataset(2, 12, 8000, 0.5, 0.03, 42)
	if err != nil {
		log.Fatal(err)
	}
	uploaded := 0
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
			IntervalMS: 1000.0 / 8000.0,
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
		uploaded++
	}
	fmt.Printf("ingested %d signed samples\n", uploaded)
	if _, err := c.Rebalance(ctx, proj.ID, 0.25); err != nil {
		log.Fatal(err)
	}

	// 3. Configure the impulse.
	cfg := core.Config{
		Version: core.ConfigVersion,
		Name:    "wake-word",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1},
		DSP: []core.DSPBlockSpec{{
			Type: "mfe", Params: map[string]float64{"num_filters": 16, "fft_length": 128},
		}},
		Learn:   []core.LearnBlockSpec{{Type: core.LearnClassification}},
		Classes: []string{"noise", "yes"},
	}
	imp, err := c.SetImpulse(ctx, proj.ID, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("impulse:", imp.Dataflow)

	// 4. Async training job with quantization, watched through the
	// live event stream: ordered state transitions, real per-epoch
	// progress and log lines, resumable via Last-Event-Id.
	accepted, err := c.Train(ctx, proj.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "conv1d", Depth: 2, StartFilters: 8, EndFilters: 16},
		Epochs:       10,
		LearningRate: 0.005,
		Quantize:     true,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training job:", accepted.JobID)
	var final string
	if err := c.StreamJobEvents(ctx, accepted.JobID, 0, func(e v1.JobEvent) error {
		switch e.Type {
		case v1.JobEventState:
			fmt.Println("  [job] ->", e.Status)
			if e.Terminal() {
				final = e.Status
			}
		case v1.JobEventProgress:
			fmt.Printf("  [job] %s %.0f%%\n", e.Stage, e.Progress)
		case v1.JobEventLog:
			fmt.Println("  [job]", e.Message)
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	if final != v1.JobFinished {
		j, _ := c.Job(ctx, accepted.JobID)
		if j != nil {
			log.Fatal("training ended as ", final, ": ", j.Job.Error)
		}
		log.Fatal("training ended as ", final)
	}
	resultResp, err := c.JobResult(ctx, accepted.JobID)
	if err != nil {
		log.Fatal(err)
	}
	trained, err := resultResp.TrainResult()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: accuracy %.3f, quantized=%v\n", trained.Accuracy, trained.Quantized)

	// 5. Profile for the deployment target.
	profile, err := c.Profile(ctx, proj.ID, "nano-33-ble-sense")
	if err != nil {
		log.Fatal(err)
	}
	if profile.Int8 != nil {
		fmt.Printf("int8 on-device estimate: %.1f ms, %.1f KB RAM, fits=%v\n",
			profile.Int8.TotalMS, profile.Int8.RAMKB, profile.Int8.Fits)
	}

	// 6. Download and run the EIM deployment.
	blob, err := c.DeploymentEIM(ctx, proj.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("downloaded model.eim (%d bytes)\n", len(blob))
	deployed, err := core.ParseArtifact(blob)
	if err != nil {
		log.Fatal(err)
	}
	clip, err := ds.Get(ds.List("")[0].ID)
	if err != nil {
		log.Fatal(err)
	}
	res, err := deployed.ClassifyQuantized(clip.Signal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed model: sample labeled %q classified as %q %v\n", clip.Label, res.Label, res.Scores)
}

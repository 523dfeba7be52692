// Sensor fusion: a multi-block impulse graph driven end-to-end through
// the REST API and the typed Go client (paper Sec. 3, Fig. 2 — real
// impulses carry multiple DSP blocks, one per sensor modality). A
// 4-axis machine-monitoring signal (3-axis accelerometer + contact
// microphone, interleaved at one rate) feeds two DSP blocks — spectral
// analysis on axes 0-2 and MFE on axis 3 — whose outputs concatenate
// into one composite feature vector consumed by a classifier, while a
// K-means anomaly block watches the vibration features alone. The
// design trains, quantizes, EON-compiles and classifies without any
// direct library calls into the ML internals.
//
//	go run ./examples/sensor_fusion
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http/httptest"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
)

const (
	rateHz   = 4000
	windowMS = 500
	axes     = 4 // 3 accelerometer + 1 microphone, interleaved
)

// fusedSample synthesizes one window of interleaved 4-axis data. The
// "alarm" condition shows up in both modalities: a 50 Hz vibration with
// harmonics on the accelerometer and an 800 Hz whine on the microphone.
func fusedSample(label string, rng *rand.Rand) []float32 {
	frames := windowMS * rateHz / 1000
	out := make([]float32, frames*axes)
	alarm := label == "alarm"
	phase := rng.Float64() * 2 * math.Pi
	for t := 0; t < frames; t++ {
		ts := float64(t) / rateHz
		for a := 0; a < 3; a++ {
			v := 0.05 * rng.NormFloat64()
			if alarm {
				v += 0.6*math.Sin(2*math.Pi*50*ts+phase+float64(a)) +
					0.25*math.Sin(2*math.Pi*150*ts+phase)
			}
			out[t*axes+a] = float32(v)
		}
		mic := 0.05 * rng.NormFloat64()
		if alarm {
			mic += 0.5 * math.Sin(2*math.Pi*800*ts+phase)
		}
		out[t*axes+3] = float32(mic)
	}
	return out
}

func main() {
	// Boot the platform in-process (in production: cmd/ei-studio).
	registry := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 4})
	defer sched.Shutdown()
	server := httptest.NewServer(api.NewServer(registry, sched).Handler())
	defer server.Close()
	ctx := context.Background()

	c := client.New(server.URL)
	user, err := c.CreateUser(ctx, "fusion-bot")
	if err != nil {
		log.Fatal(err)
	}
	c = c.WithAPIKey(user.APIKey)
	proj, err := c.CreateProject(ctx, "machine-monitor")
	if err != nil {
		log.Fatal(err)
	}

	// The design catalog lists every registered DSP and learn block
	// with its parameter schema.
	catalog, err := c.Blocks(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("block catalog: dsp [")
	for i, b := range catalog.DSP {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(b.Type)
	}
	fmt.Print("], learn [")
	for i, b := range catalog.Learn {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(b.Type)
	}
	fmt.Println("]")

	// Ingest signed 4-sensor acquisition documents.
	rng := rand.New(rand.NewSource(11))
	sensors := []ingest.Sensor{
		{Name: "accX", Units: "m/s2"}, {Name: "accY", Units: "m/s2"},
		{Name: "accZ", Units: "m/s2"}, {Name: "mic", Units: "wav"},
	}
	uploaded := 0
	for _, label := range []string{"idle", "alarm"} {
		for i := 0; i < 14; i++ {
			raw := fusedSample(label, rng)
			values := make([][]float64, len(raw)/axes)
			for t := range values {
				row := make([]float64, axes)
				for a := 0; a < axes; a++ {
					row[a] = float64(raw[t*axes+a])
				}
				values[t] = row
			}
			doc, err := ingest.SignJSON(ingest.Payload{
				DeviceName: "pump-07", DeviceType: "MONITOR",
				IntervalMS: 1000.0 / rateHz,
				Sensors:    sensors, Values: values,
			}, proj.HMACKey, time.Now().Unix())
			if err != nil {
				log.Fatal(err)
			}
			if _, err := c.UploadSample(ctx, proj.ID, client.UploadParams{
				Label: label, Name: fmt.Sprintf("%s-%02d", label, i), Format: "acquisition",
			}, doc); err != nil {
				log.Fatal(err)
			}
			uploaded++
		}
	}
	fmt.Printf("ingested %d fused samples\n", uploaded)
	if _, err := c.Rebalance(ctx, proj.ID, 0.25); err != nil {
		log.Fatal(err)
	}

	// The v2 design: two DSP blocks over disjoint axis subsets, a
	// classifier fusing both outputs, and an anomaly block watching
	// only the vibration features.
	cfg := core.Config{
		Version: core.ConfigVersion,
		Name:    "machine-monitor",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: windowMS, FrequencyHz: rateHz, Axes: axes},
		DSP: []core.DSPBlockSpec{
			{
				Name: "vibration", Type: "spectral-analysis",
				Params: map[string]float64{"fft_length": 64, "num_peaks": 8},
				Axes:   []int{0, 1, 2},
			},
			{
				Name: "audio", Type: "mfe",
				Params: map[string]float64{"num_filters": 16, "fft_length": 128, "frame_length": 0.02, "frame_stride": 0.02},
				Axes:   []int{3},
			},
		},
		Learn: []core.LearnBlockSpec{
			{Type: core.LearnClassification, Inputs: []string{"vibration", "audio"}},
			{Type: core.LearnAnomaly, Inputs: []string{"vibration"}, Params: map[string]float64{"clusters": 3}},
		},
		Classes: []string{"alarm", "idle"},
	}
	imp, err := c.SetImpulse(ctx, proj.ID, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("impulse:", imp.Dataflow)
	fmt.Println("composite feature shape:", imp.FeatureShape)
	for _, b := range imp.Blocks {
		fmt.Printf("  block %-10s %-18s -> offset %d, size %d\n", b.Name, b.Type, b.Offset, b.Size)
	}

	// Train (MLP over the fused flat vector), quantize, and fit the
	// anomaly block — one job.
	accepted, err := c.Train(ctx, proj.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "mlp", Hidden: 24},
		Epochs:       8,
		LearningRate: 0.005,
		Quantize:     true,
		Seed:         3,
	})
	if err != nil {
		log.Fatal(err)
	}
	done, err := c.WaitJob(ctx, accepted.JobID)
	if err != nil {
		log.Fatal(err)
	}
	if done.Status == v1.JobFailed {
		log.Fatal("training failed: ", done.Job.Error)
	}
	resultResp, err := c.JobResult(ctx, accepted.JobID)
	if err != nil {
		log.Fatal(err)
	}
	trained, err := resultResp.TrainResult()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: accuracy %.3f, quantized=%v, anomaly=%v\n",
		trained.Accuracy, trained.Quantized, trained.AnomalyTrained)

	// Classify one raw fused window through the API (both precisions).
	alarmRaw := fusedSample("alarm", rng)
	res, err := c.Classify(ctx, proj.ID, alarmRaw, false)
	if err != nil {
		log.Fatal(err)
	}
	qres, err := c.Classify(ctx, proj.ID, alarmRaw, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alarm window: float=%q int8=%q anomaly=%.2f\n", res.Label, qres.Label, res.Anomaly)

	// EON-compiled C++ deployment of the fused design.
	art, err := c.Deployment(ctx, proj.ID, "cpp", true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EON-compiled C++ library (%d files):\n", len(art.Files))
	for name := range art.Files {
		fmt.Println("  ", name)
	}

	// EIM round trip: the deployed binary re-runs the fused graph
	// locally with the same result.
	blob, err := c.DeploymentEIM(ctx, proj.ID)
	if err != nil {
		log.Fatal(err)
	}
	deployed, err := core.ParseArtifact(blob)
	if err != nil {
		log.Fatal(err)
	}
	local, err := deployed.ClassifyQuantized(dsp.Signal{Data: alarmRaw, Rate: rateHz, Axes: axes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed EIM (%d bytes): alarm window classified as %q\n", len(blob), local.Label)
}

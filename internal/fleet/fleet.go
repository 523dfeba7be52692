// Package fleet is the macro load harness: it drives M synthetic
// devices — seeded audio and vibration sources from internal/synth —
// through configurable scenario mixes (bulk upload, live streaming
// sessions with embedded keyword ground truth, one-shot and batched
// classify, background train/tune jobs) against a live target, a
// single daemon or a gateway + worker fleet, entirely through the
// typed internal/client. It measures per-op p50/p95/p99 latency,
// throughput, the shed/error breakdown by stable code, detection
// recall against the synthesizer's ground truth, and the target's
// goroutine/heap movement via /metrics, and can write the result as a
// stamped JSON record (WriteRecord).
//
// Everything is deterministic from Config.Seed: device i derives its
// stream with synth.Derive(seed, i), so a run is reproducible up to
// scheduling — the same utterances land at the same sample offsets on
// every run.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/calibration"
	"edgepulse/internal/client"
	"edgepulse/internal/core"
	"edgepulse/internal/ingest"
	"edgepulse/internal/synth"
)

const (
	// opTimeout bounds any single request during the storm.
	opTimeout = 60 * time.Second
	// jobTimeout bounds waiting for a background train/tune job.
	jobTimeout = 180 * time.Second
	// readyTimeout bounds waiting for the target's readiness probe.
	readyTimeout = 30 * time.Second
	// maxPushRetries bounds per-chunk backpressure retries inside one
	// streaming session; past it the session counts a hard error.
	maxPushRetries = 100
	// streamNoise keeps the synthetic feeds comfortably detectable: the
	// SLO gates on exact recall, so the noise floor is part of the
	// contract, not a tunable.
	streamNoise = 0.02
	// streamThreshold/streamRelease are the detector's firing and
	// hysteresis-re-arm levels. Calibrated empirically over hundreds of
	// derived device seeds: high enough that pure noise never fires,
	// low enough that every embedded utterance clears it even when the
	// random clip offset straddles window boundaries.
	streamThreshold = 0.52
	streamRelease   = 0.48
	// uploadStampBase spaces signed-document timestamps so every
	// (device, iteration) pair uploads a unique acquisition doc.
	uploadStampBase = 1700000000
	// datasetSeed is fixed independently of Config.Seed: the serving
	// model must be the same known-good model on every run, or recall
	// would ride on training-set luck instead of the streaming plane.
	datasetSeed = 42
)

// Mix weights the scenarios across the device fleet: with weights
// {Upload:2, Classify:4}, four of every six devices classify and two
// upload. A device runs a single scenario for the whole storm, like a
// real sensor does.
type Mix struct {
	Upload   int `json:"upload,omitempty"`
	Classify int `json:"classify,omitempty"`
	Batch    int `json:"batch,omitempty"`
	Stream   int `json:"stream,omitempty"`
	Train    int `json:"train,omitempty"`
	Tune     int `json:"tune,omitempty"`
}

// DefaultMix leans interactive, the way a device fleet does: mostly
// classification traffic, a steady trickle of uploads and streams, and
// occasional background training.
func DefaultMix() Mix {
	return Mix{Upload: 2, Classify: 4, Batch: 1, Stream: 1, Train: 1, Tune: 1}
}

// scenarios is the canonical expansion order, so a mix always produces
// the same device assignment.
var scenarios = []struct {
	name   string
	weight func(Mix) int
}{
	{"upload", func(m Mix) int { return m.Upload }},
	{"classify", func(m Mix) int { return m.Classify }},
	{"batch", func(m Mix) int { return m.Batch }},
	{"stream", func(m Mix) int { return m.Stream }},
	{"train", func(m Mix) int { return m.Train }},
	{"tune", func(m Mix) int { return m.Tune }},
}

// pattern expands the weights into the repeating device assignment:
// device i runs pattern[i % len(pattern)].
func (m Mix) pattern() []string {
	var p []string
	for _, s := range scenarios {
		for i := 0; i < s.weight(m); i++ {
			p = append(p, s.name)
		}
	}
	return p
}

// Total is the sum of all weights.
func (m Mix) Total() int {
	t := 0
	for _, s := range scenarios {
		t += s.weight(m)
	}
	return t
}

// maxMixWeight bounds one scenario's weight: the weights are ratios,
// and pattern expands them into a slice of Total entries.
const maxMixWeight = 1000

// ParseMix parses "classify=4,stream=1,upload=2" into a Mix. Unknown
// scenario names and weights that are not integers in 0..maxMixWeight
// are errors; omitted scenarios get weight 0. It accepts what
// Mix.String writes.
func ParseMix(s string) (Mix, error) {
	var m Mix
	if strings.TrimSpace(s) == "" {
		return m, fmt.Errorf("fleet: empty mix")
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("fleet: mix entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 || w > maxMixWeight {
			return m, fmt.Errorf("fleet: mix weight %q must be an integer in 0..%d", val, maxMixWeight)
		}
		switch strings.TrimSpace(name) {
		case "upload":
			m.Upload = w
		case "classify":
			m.Classify = w
		case "batch":
			m.Batch = w
		case "stream":
			m.Stream = w
		case "train":
			m.Train = w
		case "tune":
			m.Tune = w
		default:
			return m, fmt.Errorf("fleet: unknown scenario %q", name)
		}
	}
	if m.Total() == 0 {
		return m, fmt.Errorf("fleet: mix has no positive weights")
	}
	return m, nil
}

// String renders the mix in ParseMix's syntax, positive weights only,
// in canonical scenario order.
func (m Mix) String() string {
	var parts []string
	for _, s := range scenarios {
		if w := s.weight(m); w > 0 {
			parts = append(parts, s.name+"="+strconv.Itoa(w))
		}
	}
	return strings.Join(parts, ",")
}

// Config describes one fleet run. The zero value is not runnable; use
// (Config).withDefaults via Run, which fills every unset knob.
type Config struct {
	// Devices is M, the synthetic device count.
	Devices int `json:"devices"`
	// OpsPerDevice is how many scenario iterations each device runs
	// (for a streaming device, one iteration is one full session).
	OpsPerDevice int `json:"ops_per_device"`
	// Seed roots every derived per-device stream.
	Seed int64 `json:"seed"`
	// Mix weights the scenarios across devices.
	Mix Mix `json:"mix"`
	// Concurrency caps simultaneously active devices (0 = all at once).
	Concurrency int `json:"concurrency,omitempty"`
	// Quantized classifies and streams against the int8 model.
	Quantized bool `json:"quantized,omitempty"`

	// Rate is the audio sample rate in Hz (default 8000).
	Rate int `json:"rate,omitempty"`
	// TrainEpochs trains the serving model during setup (default 8).
	TrainEpochs int `json:"train_epochs,omitempty"`
	// BatchWindows sizes each classify_batch request (default 8).
	BatchWindows int `json:"batch_windows,omitempty"`
	// UploadFrames sizes each uploaded acquisition doc (default 64).
	UploadFrames int `json:"upload_frames,omitempty"`
	// StreamSeconds is each streaming session's feed length (default 8)
	// with StreamEvents embedded utterances (default 2).
	StreamSeconds float64 `json:"stream_seconds,omitempty"`
	StreamEvents  int     `json:"stream_events,omitempty"`
	// JobEpochs sizes the background train/tune jobs (default 2).
	JobEpochs int `json:"job_epochs,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Devices <= 0 {
		c.Devices = 8
	}
	if c.OpsPerDevice <= 0 {
		c.OpsPerDevice = 4
	}
	if c.Mix.Total() == 0 {
		c.Mix = DefaultMix()
	}
	if c.Rate <= 0 {
		c.Rate = 8000
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 8
	}
	if c.BatchWindows <= 0 {
		c.BatchWindows = 8
	}
	if c.UploadFrames <= 0 {
		c.UploadFrames = 64
	}
	if c.StreamSeconds <= 0 {
		c.StreamSeconds = 8
	}
	if c.StreamEvents <= 0 {
		c.StreamEvents = 2
	}
	if c.JobEpochs <= 0 {
		c.JobEpochs = 2
	}
	return c
}

// runner carries one run's state: the authenticated client, the two
// projects (a serving project trained once during setup so inference
// quality is fixed, and a separate jobs project absorbing the
// train/tune load without touching the serving model), and the sinks.
type runner struct {
	cfg    Config
	c      *client.Client
	serve  *v1.CreateProjectResponse
	jobs   *v1.CreateProjectResponse
	rec    *recorder
	recall *recallAgg
}

// Run executes one fleet storm against the target base URL and returns
// the measured Result. Setup failures (unreachable target, training
// failure) return an error; per-device failures during the storm are
// recorded in the result instead.
func Run(ctx context.Context, target string, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := &runner{
		cfg:    cfg,
		c:      client.New(target, client.WithRetries(0)),
		rec:    newRecorder(),
		recall: &recallAgg{},
	}

	setupStart := time.Now()
	if err := r.awaitReady(ctx, target); err != nil {
		return nil, err
	}
	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)

	before := r.runtimeSnapshot(ctx)

	stormStart := time.Now()
	r.storm(ctx)
	wall := time.Since(stormStart)

	after := r.settleSnapshot(ctx)

	res := &Result{
		Target:       target,
		Config:       cfg,
		SetupSeconds: setup.Seconds(),
		WallSeconds:  wall.Seconds(),
		Ops:          r.rec.stats(wall),
		Recall:       r.recall.stats(),
	}
	if before != nil && after != nil {
		res.TargetDelta = TargetDelta{
			Available:      true,
			Goroutines:     after.Goroutines - before.Goroutines,
			HeapAllocBytes: int64(after.HeapAllocBytes) - int64(before.HeapAllocBytes),
		}
	}
	return res, nil
}

// awaitReady polls the readiness probe until the target accepts
// traffic, so a just-booted daemon or gateway doesn't eat the first
// wave of the storm as 503s.
func (r *runner) awaitReady(ctx context.Context, target string) error {
	deadline := time.Now().Add(readyTimeout)
	var last error
	for time.Now().Before(deadline) {
		probeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		ready, err := r.c.Ready(probeCtx)
		cancel()
		if err == nil && ready.Ready {
			return nil
		}
		last = err
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	return fmt.Errorf("fleet: target %s not ready after %s (last error: %v)", target, readyTimeout, last)
}

// setup provisions the account and projects and trains the serving
// model to completion, so every storm measurement runs against a fixed,
// known-good impulse.
func (r *runner) setup(ctx context.Context) error {
	user, err := r.c.CreateUser(ctx, "ei-fleet")
	if err != nil {
		return fmt.Errorf("fleet: create user: %w", err)
	}
	r.c = r.c.WithAPIKey(user.APIKey)

	r.serve, err = r.c.CreateProject(ctx, "fleet-serve")
	if err != nil {
		return fmt.Errorf("fleet: create serving project: %w", err)
	}
	// Full-second clips and a 1 s window / 250 ms stride geometry: the
	// same shape synth.Stream embeds in live feeds, so streamed windows
	// look exactly like training windows.
	if err := r.provision(ctx, r.serve, 16, 1.0, 1000, 250); err != nil {
		return err
	}
	if err := r.train(ctx, r.serve.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "conv1d", Depth: 2, StartFilters: 8, EndFilters: 16},
		Epochs:       r.cfg.TrainEpochs,
		LearningRate: 0.005,
		Quantize:     r.cfg.Quantized,
		Seed:         7,
	}); err != nil {
		return fmt.Errorf("fleet: serving model: %w", err)
	}

	if r.cfg.Mix.Train > 0 || r.cfg.Mix.Tune > 0 {
		r.jobs, err = r.c.CreateProject(ctx, "fleet-jobs")
		if err != nil {
			return fmt.Errorf("fleet: create jobs project: %w", err)
		}
		if err := r.provision(ctx, r.jobs, 6, 0.5, 500, 0); err != nil {
			return err
		}
	}
	return nil
}

// provision uploads a signed synthetic keyword dataset into p and
// configures its impulse graph.
func (r *runner) provision(ctx context.Context, p *v1.CreateProjectResponse, perClass int, clipSeconds float64, windowMS, strideMS int) error {
	ds, err := synth.KWSDataset(2, perClass, r.cfg.Rate, clipSeconds, 0.03, datasetSeed)
	if err != nil {
		return fmt.Errorf("fleet: synthesize dataset: %w", err)
	}
	stamp := int64(uploadStampBase)
	for _, h := range ds.List("") {
		s, err := ds.Get(h.ID)
		if err != nil {
			return err
		}
		values := make([][]float64, s.Signal.Frames())
		for i := range values {
			values[i] = []float64{float64(s.Signal.Data[i])}
		}
		stamp++
		doc, err := r.sign(p.HMACKey, values, stamp)
		if err != nil {
			return err
		}
		if _, err := r.c.UploadSample(ctx, p.ID, client.UploadParams{
			Label: s.Label, Name: s.Name, Format: "acquisition",
		}, doc); err != nil {
			return fmt.Errorf("fleet: seed upload: %w", err)
		}
	}
	if _, err := r.c.Rebalance(ctx, p.ID, 0.25); err != nil {
		return fmt.Errorf("fleet: rebalance: %w", err)
	}
	cfg := core.Config{
		Version: core.ConfigVersion,
		Name:    p.Name,
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: windowMS, StrideMS: strideMS, FrequencyHz: r.cfg.Rate, Axes: 1},
		DSP: []core.DSPBlockSpec{{
			Name: "audio", Type: "mfe",
			Params: map[string]float64{"num_filters": 16, "fft_length": 128},
		}},
		Learn:   []core.LearnBlockSpec{{Type: core.LearnClassification, Inputs: []string{"audio"}}},
		Classes: []string{"noise", "yes"},
	}
	if _, err := r.c.SetImpulse(ctx, p.ID, cfg); err != nil {
		return fmt.Errorf("fleet: set impulse: %w", err)
	}
	return nil
}

func (r *runner) sign(hmacKey string, values [][]float64, stamp int64) ([]byte, error) {
	return ingest.SignJSON(ingest.Payload{
		DeviceName: "fleet-device", DeviceType: "NANO33BLE",
		IntervalMS: 1000.0 / float64(r.cfg.Rate),
		Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
		Values:     values,
	}, hmacKey, stamp)
}

// train submits a training job and waits for its terminal state.
func (r *runner) train(ctx context.Context, projectID int, req v1.TrainRequest) error {
	accepted, err := r.c.Train(ctx, projectID, req)
	if err != nil {
		return err
	}
	waitCtx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	done, err := r.c.WaitJob(waitCtx, accepted.JobID)
	if err != nil {
		return err
	}
	if done.Status != v1.JobFinished {
		return fmt.Errorf("training ended %s: %s", done.Status, done.Job.Error)
	}
	return nil
}

// runtimeSnapshot reads the target's runtime gauges (nil when the
// target doesn't serve them).
func (r *runner) runtimeSnapshot(ctx context.Context) *v1.RuntimeMetrics {
	mCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	m, err := r.c.Metrics(mCtx)
	if err != nil || m.Runtime == nil {
		return nil
	}
	return m.Runtime
}

// settleSnapshot polls the runtime gauges for a moment after the storm
// so in-flight request goroutines drain before the delta is taken, and
// returns the lowest goroutine reading observed.
func (r *runner) settleSnapshot(ctx context.Context) *v1.RuntimeMetrics {
	var best *v1.RuntimeMetrics
	for i := 0; i < 20; i++ {
		snap := r.runtimeSnapshot(ctx)
		if snap != nil && (best == nil || snap.Goroutines < best.Goroutines) {
			best = snap
		}
		select {
		case <-ctx.Done():
			return best
		case <-time.After(100 * time.Millisecond):
		}
	}
	return best
}

// storm runs every device to completion.
func (r *runner) storm(ctx context.Context) {
	pattern := r.cfg.Mix.pattern()
	limit := r.cfg.Concurrency
	if limit <= 0 || limit > r.cfg.Devices {
		limit = r.cfg.Devices
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for dev := 0; dev < r.cfg.Devices; dev++ {
		scenario := pattern[dev%len(pattern)]
		wg.Add(1)
		go func(dev int, scenario string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			devSeed := synth.Derive(r.cfg.Seed, dev)
			for iter := 0; iter < r.cfg.OpsPerDevice; iter++ {
				if ctx.Err() != nil {
					return
				}
				iterSeed := synth.Derive(devSeed, iter)
				switch scenario {
				case "upload":
					r.opUpload(ctx, dev, iter, iterSeed)
				case "classify":
					r.opClassify(ctx, iterSeed)
				case "batch":
					r.opBatch(ctx, iterSeed)
				case "stream":
					r.opStream(ctx, iterSeed)
				case "train":
					r.opTrain(ctx, iterSeed)
				case "tune":
					r.opTune(ctx, iterSeed)
				}
			}
		}(dev, scenario)
	}
	wg.Wait()
}

// timed runs one attempt under the op timeout and records its outcome.
func (r *runner) timed(ctx context.Context, op string, fn func(context.Context) error) (shed bool, err error) {
	opCtx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	start := time.Now()
	err = fn(opCtx)
	return r.rec.observe(op, time.Since(start), err), err
}

// opUpload pushes one signed acquisition document of fresh synthetic
// vibration-shaped values; content and timestamp are unique per
// (device, iteration) so the dedup path never rejects them.
func (r *runner) opUpload(ctx context.Context, dev, iter int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	values := make([][]float64, r.cfg.UploadFrames)
	for i := range values {
		values[i] = []float64{rng.NormFloat64() * 0.1}
	}
	label := "noise"
	if iter%2 == 0 {
		label = "yes"
	}
	stamp := int64(uploadStampBase) + int64(dev+1)*1_000_000 + int64(iter)
	doc, err := r.sign(r.serve.HMACKey, values, stamp)
	if err != nil {
		r.rec.fail(OpUpload, "sign")
		return
	}
	r.timed(ctx, OpUpload, func(c context.Context) error {
		_, err := r.c.UploadSample(c, r.serve.ID, client.UploadParams{
			Label: label, Name: fmt.Sprintf("fleet-%d-%d", dev, iter), Format: "acquisition",
		}, doc)
		return err
	})
}

// window synthesizes one keyword window matching the serving impulse
// geometry (1 s at the configured rate).
func (r *runner) window(seed int64) ([]float32, error) {
	label := "yes"
	if seed%2 == 0 {
		label = "noise"
	}
	sig, err := synth.Keyword(label, r.cfg.Rate, 1.0, streamNoise, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return sig.Data, nil
}

func (r *runner) opClassify(ctx context.Context, seed int64) {
	w, err := r.window(seed)
	if err != nil {
		r.rec.fail(OpClassify, "synth")
		return
	}
	r.timed(ctx, OpClassify, func(c context.Context) error {
		_, err := r.c.Classify(c, r.serve.ID, w, r.cfg.Quantized)
		return err
	})
}

func (r *runner) opBatch(ctx context.Context, seed int64) {
	windows := make([][]float32, r.cfg.BatchWindows)
	for i := range windows {
		w, err := r.window(synth.Derive(seed, i))
		if err != nil {
			r.rec.fail(OpClassifyBatch, "synth")
			return
		}
		windows[i] = w
	}
	r.timed(ctx, OpClassifyBatch, func(c context.Context) error {
		_, err := r.c.ClassifyBatch(c, r.serve.ID, windows, r.cfg.Quantized)
		return err
	})
}

// opStream runs one complete streaming session: open, concurrent event
// tail, stride-sized pushes with bounded backpressure retries, close,
// then a ground-truth comparison. Recall is only credited for sessions
// that completed cleanly; an aborted session surfaces as hard errors
// instead.
func (r *runner) opStream(ctx context.Context, seed int64) {
	src, truth, err := synth.NewStreamSource("yes", r.cfg.Rate, r.cfg.StreamSeconds, r.cfg.StreamEvents, streamNoise, seed)
	if err != nil {
		r.rec.fail(OpStreamOpen, "synth")
		return
	}

	var sess *client.StreamSession
	if _, err := r.timed(ctx, OpStreamOpen, func(c context.Context) error {
		// Release just under Threshold: the small model's class scores
		// cluster, so the default hysteresis would never re-arm between
		// utterances only a few strides apart.
		s, err := r.c.OpenStream(c, r.serve.ID, v1.StreamOpenRequest{
			Quantized:    r.cfg.Quantized,
			Threshold:    streamThreshold,
			Release:      streamRelease,
			Smooth:       2,
			Suppress:     4,
			IgnoreLabels: []string{"noise"},
		})
		sess = s
		return err
	}); err != nil {
		return
	}

	var mu sync.Mutex
	var detections []v1.StreamEvent
	tailCtx, cancelTail := context.WithTimeout(ctx, jobTimeout)
	defer cancelTail()
	tailDone := make(chan error, 1)
	go func() {
		tailDone <- sess.Events(tailCtx, 0, func(ev v1.StreamEvent) error {
			if ev.Type == "detection" {
				mu.Lock()
				detections = append(detections, ev)
				mu.Unlock()
			}
			return nil
		})
	}()

	clean := r.pushAll(ctx, sess, src)

	if _, err := r.timed(ctx, OpStreamClose, func(c context.Context) error {
		_, err := sess.Close(c)
		return err
	}); err != nil {
		clean = false
	}
	if err := <-tailDone; err != nil {
		r.rec.fail(OpStreamClose, "event_tail")
		clean = false
	}
	if !clean {
		return
	}

	mu.Lock()
	defer mu.Unlock()
	r.scoreSession(sess.Info.WindowSamples, truth, detections)
}

// pushAll feeds the whole source in stride-sized chunks, retrying each
// chunk through backpressure sheds so ground truth is never lost to a
// drop. Returns false when a chunk hit a hard error or exhausted its
// retry budget.
func (r *runner) pushAll(ctx context.Context, sess *client.StreamSession, src *synth.Source) bool {
	for {
		chunk := src.Next(sess.Info.StrideSamples)
		if chunk == nil {
			return true
		}
		attempts := 0
		for {
			shed, err := r.timed(ctx, OpStreamPush, func(c context.Context) error {
				_, err := sess.Push(c, chunk)
				return err
			})
			if err == nil {
				break
			}
			if !shed {
				return false
			}
			attempts++
			if attempts > maxPushRetries {
				r.rec.fail(OpStreamPush, "retry_budget")
				return false
			}
			wait := 50 * time.Millisecond
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 && apiErr.RetryAfter < time.Second {
				wait = apiErr.RetryAfter
			}
			select {
			case <-ctx.Done():
				return false
			case <-time.After(wait):
			}
		}
	}
}

// scoreSession credits the session's detections to ground truth with
// calibration.Score: each utterance should be hit exactly once, and
// surplus or non-overlapping detections are false fires.
func (r *runner) scoreSession(windowSamples int, truth []synth.Event, detections []v1.StreamEvent) {
	dets := make([]calibration.Detection, len(detections))
	for i, d := range detections {
		dets[i] = calibration.Detection{WindowStart: int(d.WindowStart), Label: d.Label}
	}
	out := calibration.Score(truth, dets, windowSamples)
	r.recall.add(len(truth), out.Credited, out.Missed, out.FalseAccepts)
}

// opTrain submits a background training job on the jobs project and
// waits it out. The measured latency is the submission; a job that
// ends failed counts as a hard error.
func (r *runner) opTrain(ctx context.Context, seed int64) {
	var accepted *v1.JobAccepted
	if _, err := r.timed(ctx, OpTrain, func(c context.Context) error {
		a, err := r.c.Train(c, r.jobs.ID, v1.TrainRequest{
			Model:        v1.ModelSpec{Type: "conv1d", Depth: 1, StartFilters: 4, EndFilters: 4},
			Epochs:       r.cfg.JobEpochs,
			LearningRate: 0.005,
			Seed:         seed,
		})
		accepted = a
		return err
	}); err != nil {
		return
	}
	r.awaitJob(ctx, OpTrain, accepted.JobID)
}

func (r *runner) opTune(ctx context.Context, seed int64) {
	var accepted *v1.JobAccepted
	if _, err := r.timed(ctx, OpTune, func(c context.Context) error {
		a, err := r.c.Tuner(c, r.jobs.ID, v1.TunerRequest{
			MaxTrials: 1, Epochs: 1, Seed: seed,
		})
		accepted = a
		return err
	}); err != nil {
		return
	}
	r.awaitJob(ctx, OpTune, accepted.JobID)
}

// awaitJob waits for a submitted job's terminal state, outside the
// latency measurement: queue wait is scheduler capacity, not request
// latency.
func (r *runner) awaitJob(ctx context.Context, op, jobID string) {
	waitCtx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	done, err := r.c.WaitJob(waitCtx, jobID)
	if err != nil {
		r.rec.fail(op, "job_wait")
		return
	}
	if done.Status != v1.JobFinished {
		r.rec.fail(op, "job_"+done.Status)
	}
}

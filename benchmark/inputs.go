package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/dsp"
	"edgepulse/internal/ingest"
	"edgepulse/internal/synth"
)

const (
	poolSize   = 64    // distinct 1 s windows the caller cycles through
	sampleRate = 16000 // Hz
	batchSize  = 8     // windows per serve_batch_i8 request
	imagePool  = 8     // distinct images per vision workload
	// iatBase is the fixed issue time uploads count up from, so that a
	// seed fixes every byte of every request body.
	iatBase = 1_700_000_000
)

// inputs is everything a run feeds the system, made from the seed alone.
type inputs struct {
	seed int64
	// pool holds 1 s / 16 kHz synthetic keyword utterances.
	pool [][]float32
	// rows[w] is pool[w] as acquisition payload rows (one value per
	// row), built on the first upload: a million small slices that every
	// GC cycle would otherwise have to mark in workloads that never
	// upload, which is the benchmark's weight and not the system's.
	rowsOnce sync.Once
	rows     [][][]float64
	// vww and ic are raw camera frames (160×120 and 32×32 RGB, 0..255).
	vww, ic []dsp.Signal
}

func newInputs(seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	labels := synth.KWSLabels(5)
	for w := 0; w < poolSize; w++ {
		rng := rand.New(rand.NewSource(synth.Derive(seed, w)))
		sig, err := synth.Keyword(labels[w%len(labels)], sampleRate, 1.0, 0.05, rng)
		if err != nil {
			return nil, fmt.Errorf("inputs: window %d: %w", w, err)
		}
		in.pool = append(in.pool, sig.Data)
	}
	image := func(dev, w, h int) dsp.Signal {
		rng := rand.New(rand.NewSource(synth.Derive(seed, dev)))
		px := make([]float32, w*h*3)
		for i := range px {
			px[i] = float32(rng.Intn(256))
		}
		return dsp.Signal{Data: px, Axes: 3, Width: w, Height: h}
	}
	for i := 0; i < imagePool; i++ {
		in.vww = append(in.vww, image(1000+i, 160, 120))
		in.ic = append(in.ic, image(2000+i, 32, 32))
	}
	return in, nil
}

// kwsSignal wraps a pool window in the KWS impulse's geometry, as the
// classify handler does with a request's features.
func kwsSignal(win []float32) dsp.Signal {
	return dsp.Signal{Data: win, Rate: sampleRate, Axes: 1}
}

// signals returns the raw inputs of reference model id.
func (in *inputs) signals(id string) []dsp.Signal {
	switch id {
	case "vww":
		return in.vww
	case "ic":
		return in.ic
	}
	out := make([]dsp.Signal, len(in.pool))
	for i, win := range in.pool {
		out[i] = kwsSignal(win)
	}
	return out
}

// classifyBody is the request body client.Classify sends for a window.
func (in *inputs) classifyBody(w int) ([]byte, error) {
	return json.Marshal(v1.ClassifyRequest{Features: in.pool[w]})
}

// batch returns the batchSize consecutive pool windows starting at w.
func (in *inputs) batch(w int) [][]float32 {
	out := make([][]float32, batchSize)
	for k := range out {
		out[k] = in.pool[(w+k)%poolSize]
	}
	return out
}

// batchBody is the request body client.ClassifyBatch sends.
func (in *inputs) batchBody(w int) ([]byte, error) {
	return json.Marshal(v1.ClassifyBatchRequest{Windows: in.batch(w), Quantized: true})
}

// payload builds the acquisition payload of upload number seq: a pool
// window whose first sample is replaced by a value only this upload
// has, so every document hashes to a new sample.
func (in *inputs) payload(seq int) ingest.Payload {
	in.rowsOnce.Do(func() {
		for _, win := range in.pool {
			rows := make([][]float64, len(win))
			for i, v := range win {
				rows[i] = []float64{float64(v)}
			}
			in.rows = append(in.rows, rows)
		}
	})
	base := in.rows[seq%poolSize]
	rows := make([][]float64, len(base))
	copy(rows, base)
	rows[0] = []float64{float64(seq) + 0.5}
	return ingest.Payload{
		DeviceName: fmt.Sprintf("bench-%d", in.seed),
		DeviceType: "BENCH",
		IntervalMS: 1000.0 / sampleRate,
		Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
		Values:     rows,
	}
}

// uploadDoc signs upload number seq with the project's HMAC key.
func (in *inputs) uploadDoc(seq int, hmacKey string) ([]byte, error) {
	return ingest.SignJSON(in.payload(seq), hmacKey, iatBase+int64(seq))
}

// uploadSignal is the signal the store must hold for upload seq.
func (in *inputs) uploadSignal(seq int) []float32 {
	out := append([]float32(nil), in.pool[seq%poolSize]...)
	out[0] = float32(float64(seq) + 0.5)
	return out
}

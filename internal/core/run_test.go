package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/synth"
	"edgepulse/internal/tensor"
	"edgepulse/internal/trainer"
)

// TestRunMatchesClassifyWindow: the score slice, argmax and anomaly
// score Run returns are ClassifyWindow's result bit for bit, in both
// precisions, with and without an anomaly block.
func TestRunMatchesClassifyWindow(t *testing.T) {
	for name, imp := range map[string]*Impulse{"classifier": batchImpulse(t), "with anomaly": anomalyImpulse(t)} {
		for _, quantized := range []bool{false, true} {
			for i, w := range batchWindows(4) {
				sig := imp.SignalFor(w)
				res, err := imp.ClassifyWindow(sig, quantized)
				if err != nil {
					t.Fatal(err)
				}
				scores := make([]float32, len(imp.Classes))
				best, anomaly, err := imp.Run(sig, quantized, scores)
				if err != nil {
					t.Fatal(err)
				}
				if imp.Classes[best] != res.Label || math.Float64bits(anomaly) != math.Float64bits(res.AnomalyScore) {
					t.Fatalf("%s int8=%v window %d: Run %s/%v, ClassifyWindow %s/%v",
						name, quantized, i, imp.Classes[best], anomaly, res.Label, res.AnomalyScore)
				}
				for c, label := range imp.Classes {
					if math.Float32bits(scores[c]) != math.Float32bits(res.Scores[label]) {
						t.Fatalf("%s int8=%v window %d: %s scores %v vs %v", name, quantized, i, label, scores[c], res.Scores[label])
					}
				}
			}
		}
	}
}

// TestRunRefusals: every way a window cannot be scored is an error from
// Run and from the ClassResult entries, never a quiet fallback.
func TestRunRefusals(t *testing.T) {
	sig := dsp.Signal{Data: batchWindows(1)[0], Rate: 8000, Axes: 1}
	scores := make([]float32, 2)

	floatOnly := batchImpulse(t)
	floatOnly.QModel = nil
	if _, _, err := floatOnly.Run(sig, true, scores); !errors.Is(err, ErrNoInt8Model) {
		t.Errorf("Run int8 without an int8 model: %v", err)
	}
	if _, err := floatOnly.ClassifyQuantized(sig); !errors.Is(err, ErrNoInt8Model) {
		t.Errorf("ClassifyQuantized without an int8 model: %v", err)
	}
	if _, err := floatOnly.ClassifyBatch(batchWindows(3), true); err == nil || err.Error() != ErrNoInt8Model.Error() {
		t.Errorf("ClassifyBatch int8 without an int8 model: %v", err)
	}
	if err := floatOnly.CheckClassifier(true); !errors.Is(err, ErrNoInt8Model) {
		t.Errorf("CheckClassifier int8 without an int8 model: %v", err)
	}
	if _, _, err := floatOnly.Run(sig, false, scores[:1]); err == nil {
		t.Error("Run accepted one score slot for two classes")
	}

	untrained := toneImpulse(t)
	if _, err := untrained.Classify(sig); err == nil {
		t.Error("Classify ran an impulse with no learn block")
	}
	if err := untrained.CheckClassifier(false); err == nil {
		t.Error("CheckClassifier passed an impulse with no classifier")
	}

	misfit := batchImpulse(t)
	misfit.Model = models.TinyMLP(10, 8, 2)
	if err := misfit.CheckClassifier(false); err == nil || !strings.Contains(err.Error(), "model input") {
		t.Errorf("CheckClassifier on a model that does not fit: %v", err)
	}
	if err := misfit.CheckClassifier(true); err != nil {
		t.Errorf("CheckClassifier on the fitting int8 model: %v", err)
	}
}

// TestRunAllocBudget: Run allocates less than Classify, whose only
// addition is the score map.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race-detector instrumentation")
	}
	imp := anomalyImpulse(t)
	sig := dsp.Signal{Data: batchWindows(1)[0], Rate: 8000, Axes: 1}
	scores := make([]float32, len(imp.Classes))
	for _, quantized := range []bool{false, true} {
		if _, err := imp.ClassifyWindow(sig, quantized); err != nil {
			t.Fatal(err)
		}
		run := testing.AllocsPerRun(20, func() { imp.Run(sig, quantized, scores) })
		classify := testing.AllocsPerRun(20, func() { imp.ClassifyWindow(sig, quantized) })
		if run >= classify {
			t.Errorf("int8=%v: Run allocates %v per window, ClassifyWindow %v", quantized, run, classify)
		}
	}
}

// TestRunAllocsKWS pins what Run allocates per window of the paper's
// keyword spotting impulse (1 s of 16 kHz audio through MFCC into a
// DS-CNN), float and int8: the DSP output and the scores (three
// allocations each: tensor, shape, data), plus one output shape each
// for the block and the layout check, which builds nothing else.
func TestRunAllocsKWS(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race-detector instrumentation")
	}
	block, err := dsp.NewMFCC(map[string]float64{
		"frame_length": 0.032, "frame_stride": 0.02,
		"num_filters": 32, "num_cepstral": 10, "fft_length": 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	imp := New("kws").UseDSP(block)
	imp.Input = InputBlock{Kind: TimeSeries, WindowMS: 1000, FrequencyHz: 16000, Axes: 1}
	imp.Classes = make([]string, 12)
	for i := range imp.Classes {
		imp.Classes[i] = string(rune('a' + i))
	}
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	model := models.KWSDSCNN(shape[0], shape[1], len(imp.Classes))
	if err := nn.InitWeights(model, 1); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sig := dsp.Signal{Data: make([]float32, 16000), Rate: 16000, Axes: 1}
	for i := range sig.Data {
		sig.Data[i] = float32(rng.NormFloat64()) * 0.1
	}
	x, err := imp.Features(sig)
	if err != nil {
		t.Fatal(err)
	}
	if imp.QModel, err = quant.Quantize(model, []*tensor.F32{x}); err != nil {
		t.Fatal(err)
	}
	scores := make([]float32, len(imp.Classes))
	for _, quantized := range []bool{false, true} {
		if _, _, err := imp.Run(sig, quantized, scores); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { imp.Run(sig, quantized, scores) }); n > 8 {
			t.Errorf("int8=%v: Run makes %v allocations per kws window, want <= 8", quantized, n)
		}
	}
}

// TestRunViewRestrictedLearnBlocks locks Run onto the per-learn-block
// feature views: a fused two-DSP-block design whose anomaly block
// watches only one block must classify and score without feeding the
// full composite vector to either learn block.
func TestRunViewRestrictedLearnBlocks(t *testing.T) {
	imp, err := FromConfig(Config{
		Name:  "fusion",
		Input: InputBlock{Kind: TimeSeries, WindowMS: 500, FrequencyHz: 4000, Axes: 2},
		DSP: []DSPBlockSpec{
			{Name: "vib", Type: "spectral-analysis", Params: map[string]float64{"fft_length": 64, "num_peaks": 8}, Axes: []int{0}},
			{Name: "aud", Type: "mfe", Params: map[string]float64{"num_filters": 8, "fft_length": 128}, Axes: []int{1}},
		},
		Learn: []LearnBlockSpec{
			{Type: LearnClassification, Inputs: []string{"vib", "aud"}},
			{Type: LearnAnomaly, Inputs: []string{"vib"}, Params: map[string]float64{"clusters": 2}},
		},
		Classes: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.KWSDataset(2, 8, 4000, 0.5, 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Widen the mono synth signals to 2 interleaved axes.
	fused := data.New()
	for _, h := range ds.List("") {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		wide := make([]float32, 2*len(s.Signal.Data))
		for i, v := range s.Signal.Data {
			wide[2*i], wide[2*i+1] = v, v
		}
		if _, err := fused.Add(&data.Sample{
			Name: s.Name, Label: s.Label, Category: s.Category,
			Signal: dsp.Signal{Data: wide, Rate: 4000, Axes: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	imp.Classes = fused.Labels()
	shape, err := imp.ClassifierShape()
	if err != nil {
		t.Fatal(err)
	}
	model := models.TinyMLP(shape.Elems(), 8, len(imp.Classes))
	if err := nn.InitWeights(model, 1); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	if _, err := imp.Train(fused, trainer.Config{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := imp.TrainAnomaly(fused, 0, 1); err != nil {
		t.Fatal(err)
	}
	clip, err := fused.Get(fused.List("")[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float32, len(imp.Classes))
	best, anomaly, err := imp.Run(clip.Signal, false, scores)
	if err != nil {
		t.Fatal(err)
	}
	if best < 0 || anomaly <= 0 {
		t.Fatalf("fused result: best %d, anomaly %v", best, anomaly)
	}
	// The anomaly block scores only its own view: the vib segment.
	composite, layout, err := imp.ExtractComposite(clip.Signal)
	if err != nil {
		t.Fatal(err)
	}
	vib := layout.Segments[0]
	if want := imp.Anomaly.Score(composite.Data[vib.Offset : vib.Offset+vib.Len]); anomaly != want {
		t.Fatalf("anomaly %v, the vib view scores %v", anomaly, want)
	}
	for _, w := range imp.Windows(clip.Signal) {
		if _, _, err := imp.Run(w, false, scores); err != nil {
			t.Fatal(err)
		}
	}
}

package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
	"edgepulse/internal/trainer"
)

// materialize loads every sample of a split (tests only — production
// paths stream via Batches).
func materialize(t testing.TB, ds *data.Dataset, cat data.Category) []*data.Sample {
	t.Helper()
	var out []*data.Sample
	for _, h := range ds.List(cat) {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// toneDataset builds a tiny two-class audio dataset: low tones vs high
// tones, trivially separable from MFE features.
func toneDataset(t testing.TB, perClass int) *data.Dataset {
	t.Helper()
	ds := data.New()
	rng := rand.New(rand.NewSource(1))
	make1 := func(freq float64, label string, i int) {
		n := 4000
		sig := make([]float32, n)
		for j := range sig {
			sig[j] = 0.5*float32(math.Sin(2*math.Pi*freq*float64(j)/8000)) +
				0.05*float32(rng.NormFloat64())
		}
		_, err := ds.Add(&data.Sample{
			Name:   label + string(rune('a'+i)),
			Label:  label,
			Signal: dsp.Signal{Data: sig, Rate: 8000, Axes: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perClass; i++ {
		make1(300+20*float64(i%5), "low", i)
		make1(2500+40*float64(i%5), "high", i)
	}
	ds.Rebalance(0.25)
	return ds
}

func toneImpulse(t testing.TB) *Impulse {
	t.Helper()
	imp := New("kws-test")
	imp.Input = InputBlock{Kind: TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1}
	block, err := dsp.New("mfe", map[string]float64{"num_filters": 16, "fft_length": 128})
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = []string{"high", "low"}
	return imp
}

func TestImpulseValidate(t *testing.T) {
	imp := toneImpulse(t)
	if err := imp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Missing DSP.
	bad := New("x")
	bad.Input = imp.Input
	bad.Classes = []string{"a"}
	if bad.Validate() == nil {
		t.Error("accepted missing DSP")
	}
	// Missing learn block.
	bad2 := toneImpulse(t)
	bad2.Classes = nil
	if bad2.Validate() == nil {
		t.Error("accepted missing learn block")
	}
	// Bad input config.
	bad3 := toneImpulse(t)
	bad3.Input.WindowMS = 0
	if bad3.Validate() == nil {
		t.Error("accepted zero window")
	}
	// Unknown input kind.
	bad4 := toneImpulse(t)
	bad4.Input.Kind = "quantum"
	if bad4.Validate() == nil {
		t.Error("accepted unknown kind")
	}
}

func TestFeatureShapeAndExtraction(t *testing.T) {
	imp := toneImpulse(t)
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	// 500ms at 8kHz = 4000 samples; frame 0.02*8000=160, stride 80:
	// (4000-160)/80+1 = 49 frames, 16 filters.
	if shape[0] != 49 || shape[1] != 16 {
		t.Fatalf("feature shape %v", shape)
	}
	sig := dsp.Signal{Data: make([]float32, 4000), Rate: 8000, Axes: 1}
	x, err := imp.Features(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Shape.Equal(shape) {
		t.Fatalf("extracted %v != declared %v", x.Shape, shape)
	}
}

func TestWindowingPadAndCrop(t *testing.T) {
	imp := toneImpulse(t)
	// Short signal: padded to window.
	short := dsp.Signal{Data: make([]float32, 100), Rate: 8000, Axes: 1}
	if _, err := imp.Features(short); err != nil {
		t.Fatalf("padded extraction failed: %v", err)
	}
	// Long signal: multiple windows.
	long := dsp.Signal{Data: make([]float32, 12000), Rate: 8000, Axes: 1}
	imp.Input.StrideMS = 250
	wins := imp.Windows(long)
	// 12000 samples, window 4000, stride 2000 -> starts 0,2000,...,8000 = 5.
	if len(wins) != 5 {
		t.Fatalf("%d windows, want 5", len(wins))
	}
	for _, w := range wins {
		if w.Frames() != 4000 {
			t.Fatalf("window frames %d", w.Frames())
		}
	}
}

func TestEndToEndTrainQuantizeClassify(t *testing.T) {
	imp := toneImpulse(t)
	ds := toneDataset(t, 12)
	shape, _ := imp.FeatureShape()
	model, err := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.InitWeights(model, 42); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	if _, err := imp.Train(ds, trainer.Config{Epochs: 8, LearningRate: 0.005, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	acc, conf, err := imp.Evaluate(ds, data.Testing)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("test accuracy %.2f, want > 0.8 (confusion %v)", acc, conf)
	}
	// Quantize and compare.
	if err := imp.Quantize(ds); err != nil {
		t.Fatal(err)
	}
	agree, correct := 0, 0
	tests := materialize(t, ds, data.Testing)
	for _, s := range tests {
		f, err := imp.Classify(s.Signal)
		if err != nil {
			t.Fatal(err)
		}
		q, err := imp.ClassifyQuantized(s.Signal)
		if err != nil {
			t.Fatal(err)
		}
		if f.Label == q.Label {
			agree++
		}
		if f.Label == s.Label {
			correct++
		}
	}
	if agree < len(tests)*8/10 {
		t.Fatalf("float/int8 agreement %d/%d", agree, len(tests))
	}
	// The window pipeline scores as well as Evaluate's feature path.
	if correct < len(tests)*8/10 {
		t.Fatalf("Classify accuracy %d/%d", correct, len(tests))
	}
}

func TestClassifyScores(t *testing.T) {
	imp := toneImpulse(t)
	shape, _ := imp.FeatureShape()
	model, _ := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, 2)
	nn.InitWeights(model, 1)
	imp.AttachClassifier(model)
	sig := dsp.Signal{Data: make([]float32, 4000), Rate: 8000, Axes: 1}
	res, err := imp.Classify(sig)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 2 {
		t.Fatalf("scores: %v", res.Scores)
	}
	var sum float32
	for _, v := range res.Scores {
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-4 {
		t.Errorf("scores sum %g", sum)
	}
	if res.Label != "high" && res.Label != "low" {
		t.Errorf("label %q", res.Label)
	}
}

func TestAnomalyBlock(t *testing.T) {
	imp := toneImpulse(t)
	imp.Classes = nil // anomaly-only impulse
	ds := toneDataset(t, 8)
	if err := imp.TrainAnomaly(ds, 3, 5); err != nil {
		t.Fatal(err)
	}
	if err := imp.Validate(); err != nil {
		t.Fatal(err)
	}
	// A normal (training-like) tone scores lower than white noise.
	normal := materialize(t, ds, data.Training)[0].Signal
	rng := rand.New(rand.NewSource(9))
	noise := make([]float32, 4000)
	for i := range noise {
		noise[i] = float32(rng.NormFloat64())
	}
	rNorm, err := imp.Classify(normal)
	if err != nil {
		t.Fatal(err)
	}
	rNoise, err := imp.Classify(dsp.Signal{Data: noise, Rate: 8000, Axes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rNoise.AnomalyScore <= rNorm.AnomalyScore {
		t.Errorf("noise score %.2f not above normal %.2f", rNoise.AnomalyScore, rNorm.AnomalyScore)
	}
}

func TestAttachClassifierValidation(t *testing.T) {
	imp := toneImpulse(t)
	wrongShape := models.TinyMLP(10, 8, 2)
	if err := imp.AttachClassifier(wrongShape); err == nil {
		t.Error("accepted wrong input shape")
	}
	shape, _ := imp.FeatureShape()
	wrongClasses, _ := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, 5)
	if err := imp.AttachClassifier(wrongClasses); err == nil {
		t.Error("accepted wrong class count")
	}
}

// TestClassifyRejectsMisshapedModel covers the guard that replaced
// Model.Forward's silent reroute into the training path: a model placed
// on the impulse without AttachClassifier, whose input disagrees with
// the design's feature view, is an error in both precisions, not a panic.
func TestClassifyRejectsMisshapedModel(t *testing.T) {
	imp := batchImpulse(t)
	sig := dsp.Signal{Data: batchWindows(1)[0], Rate: 8000, Axes: 1}
	if _, err := imp.Classify(sig); err != nil {
		t.Fatalf("well-shaped classify: %v", err)
	}
	wrong := models.TinyMLP(10, 8, 2)
	if err := nn.InitWeights(wrong, 1); err != nil {
		t.Fatal(err)
	}
	qwrong, err := quant.Quantize(wrong, []*tensor.F32{tensor.NewF32(10)})
	if err != nil {
		t.Fatal(err)
	}
	imp.Model, imp.QModel = wrong, qwrong
	if _, err := imp.Classify(sig); err == nil {
		t.Error("float classify accepted a model whose input shape differs from the feature view")
	}
	if _, err := imp.ClassifyQuantized(sig); err == nil {
		t.Error("int8 classify accepted a model whose input shape differs from the feature view")
	}
}

func TestTrainErrors(t *testing.T) {
	imp := toneImpulse(t)
	ds := toneDataset(t, 4)
	if _, err := imp.Train(ds, trainer.Config{}); err == nil {
		t.Error("trained without classifier")
	}
	shape, _ := imp.FeatureShape()
	model, _ := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, 2)
	nn.InitWeights(model, 1)
	imp.AttachClassifier(model)
	imp.Classes = []string{"nope", "nada"}
	if _, err := imp.Train(ds, trainer.Config{Epochs: 1}); err == nil {
		t.Error("trained with no matching labels")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	imp := toneImpulse(t)
	cfg := imp.Config()
	blob, err := json.Marshal(imp)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseConfig(blob)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != cfg.Name || len(parsed.DSP) != 1 || parsed.DSP[0].Type != "mfe" {
		t.Fatalf("parsed: %+v", parsed)
	}
	imp2, err := FromConfig(parsed)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := imp.FeatureShape()
	s2, _ := imp2.FeatureShape()
	if !s1.Equal(s2) {
		t.Fatalf("shapes differ: %v vs %v", s1, s2)
	}
	if imp2.DSP[0].Block.Params()["num_filters"] != 16 {
		t.Error("DSP params lost")
	}
}

func TestFromConfigValidation(t *testing.T) {
	if _, err := FromConfig(Config{}); err == nil {
		t.Error("accepted empty config")
	}
	if _, err := FromConfig(Config{Name: "x", Input: InputBlock{Kind: TimeSeries, WindowMS: 100, FrequencyHz: 100, Axes: 1}, DSP: []DSPBlockSpec{{Type: "not-a-block"}}}); err == nil {
		t.Error("accepted unknown dsp block")
	}
	if _, err := ParseConfig([]byte("{bad")); err == nil {
		t.Error("accepted bad json")
	}
}

func TestImageImpulse(t *testing.T) {
	imp := New("vision")
	imp.Input = InputBlock{Kind: ImageInput, Width: 32, Height: 32, Axes: 3}
	block, err := dsp.New("image", map[string]float64{"width": 16, "height": 16})
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = []string{"person", "no-person"}
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	if !shape.Equal([]int{16, 16, 3}) {
		t.Fatalf("shape %v", shape)
	}
	if err := imp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	imp := toneImpulse(t)
	s := imp.Describe()
	if !strings.Contains(s, "Time series") || !strings.Contains(s, "mfe") || !strings.Contains(s, "Classification") {
		t.Errorf("Describe = %q", s)
	}
	if imp.DSPCost().FFTButterflies == 0 {
		t.Error("DSP cost empty")
	}
	if imp.DSPRAM() == 0 {
		t.Error("DSP RAM empty")
	}
}

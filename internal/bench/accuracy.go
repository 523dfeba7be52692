package bench

import (
	"fmt"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/report"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
)

// Accuracy is a float/int8 accuracy pair for one workload.
type Accuracy struct {
	Workload string
	Float    float64
	Int8     float64
}

// AccuracyProxies trains reduced-size proxies of the three workloads on
// synthetic data and reports float32 and int8 test accuracy — the
// accuracy rows of Table 4. Proxies stand in for the full models so the
// harness completes in seconds (see "Stand-ins" in docs/ARCHITECTURE.md).
// The paper's qualitative claims reproduce: quantization keeps accuracy
// within a few points, occasionally helping via regularization.
func AccuracyProxies(seed int64) ([]Accuracy, string, error) {
	cnn := func(shape []int, classes int) (*nn.Model, error) {
		return models.CIFARCNN(shape[0], shape[2], classes), nil
	}
	proxies := []struct {
		workload string
		dataset  func(seed int64) (*data.Dataset, error)
		input    core.InputBlock
		dsp      string
		params   map[string]float64
		model    func(shape []int, classes int) (*nn.Model, error)
	}{
		// MFE front end + conv1d stack on 2 keywords + noise.
		{"kws", func(seed int64) (*data.Dataset, error) { return synth.KWSDataset(3, 14, 8000, 0.5, 0.04, seed) },
			core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1},
			"mfe", map[string]float64{"num_filters": 16, "fft_length": 128},
			func(shape []int, classes int) (*nn.Model, error) {
				return models.Conv1DStack(shape[0], shape[1], 2, 8, 16, classes)
			}},
		// 32×32 person/no-person images + small CNN.
		{"vww", func(seed int64) (*data.Dataset, error) { return synth.VWWDataset(16, 32, seed) },
			core.InputBlock{Kind: core.ImageInput, Width: 32, Height: 32, Axes: 3},
			"image", map[string]float64{"width": 24, "height": 24}, cnn},
		// 4 texture classes at 20×20.
		{"ic", func(seed int64) (*data.Dataset, error) { return synth.ICDataset(4, 12, 20, seed) },
			core.InputBlock{Kind: core.ImageInput, Width: 20, Height: 20, Axes: 3},
			"image", map[string]float64{"width": 20, "height": 20}, cnn},
	}
	t := report.NewTable("Table 4 (accuracy rows). Holdout accuracy of trained proxies.",
		"Workload", "Float32", "Int8")
	var out []Accuracy
	for i, p := range proxies {
		proxySeed := seed + int64(i)
		ds, err := p.dataset(proxySeed)
		if err != nil {
			return nil, "", err
		}
		imp := core.New(p.workload + "-proxy")
		imp.Input = p.input
		block, err := dsp.New(p.dsp, p.params)
		if err != nil {
			return nil, "", err
		}
		imp.UseDSP(block)
		acc, err := trainEval(imp, ds, p.model, proxySeed)
		if err != nil {
			return nil, "", fmt.Errorf("bench: %s proxy: %w", p.workload, err)
		}
		acc.Workload = p.workload
		out = append(out, acc)
		t.AddRow(acc.Workload, report.Pct(acc.Float), report.Pct(acc.Int8))
	}
	return out, t.Render(), nil
}

// trainEval trains the impulse's classifier and evaluates float and int8
// accuracy on the test split.
func trainEval(imp *core.Impulse, ds *data.Dataset, build func(shape []int, classes int) (*nn.Model, error), seed int64) (Accuracy, error) {
	imp.Classes = ds.Labels()
	shape, err := imp.FeatureShape()
	if err != nil {
		return Accuracy{}, err
	}
	model, err := build(shape, len(imp.Classes))
	if err != nil {
		return Accuracy{}, err
	}
	if err := nn.InitWeights(model, seed); err != nil {
		return Accuracy{}, err
	}
	if err := imp.AttachClassifier(model); err != nil {
		return Accuracy{}, err
	}
	if _, err := imp.Train(ds, trainer.Config{Epochs: 12, LearningRate: 0.005, Seed: seed}); err != nil {
		return Accuracy{}, err
	}
	floatAcc, _, err := imp.Evaluate(ds, data.Testing)
	if err != nil {
		return Accuracy{}, err
	}
	if err := imp.Quantize(ds); err != nil {
		return Accuracy{}, err
	}
	// Int8 accuracy: classify the test split with the quantized model,
	// streaming samples batch-by-batch.
	correct, total := 0, 0
	it := ds.Batches(data.Testing, 64)
	for {
		batch, ok := it.Next()
		if !ok {
			break
		}
		for _, s := range batch {
			res, err := imp.ClassifyQuantized(s.Signal)
			if err != nil {
				return Accuracy{}, err
			}
			if res.Label == s.Label {
				correct++
			}
			total++
		}
	}
	if err := it.Err(); err != nil {
		return Accuracy{}, err
	}
	int8Acc := 0.0
	if total > 0 {
		int8Acc = float64(correct) / float64(total)
	}
	return Accuracy{Float: floatAcc, Int8: int8Acc}, nil
}

// Package bench reproduces every table and figure of the paper's
// evaluation (Sec. 5): the three MLPerf-Tiny-derived workloads of
// Tables 2 and 4 (keyword spotting, visual wake words, image
// classification), the EON Tuner exploration of Table 3 / Fig. 3, and the
// qualitative Table 5 / Fig. 1 / Fig. 2 content. Experiments lists
// them and Report renders them; cmd/ei-bench only adds its flags and
// the -out files.
package bench

import (
	"fmt"
	"math/rand"

	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

// Workload bundles everything needed to estimate one Table 2/4 row group:
// the DSP cost of its preprocessing and the float + int8 models.
type Workload struct {
	// Name as the paper prints it.
	Name string
	// Short identifier ("kws", "vww", "ic").
	ID string
	// DSPCost is the per-window feature extraction cost.
	DSPCost dsp.Cost
	// DSPRAM is the working memory of feature extraction.
	DSPRAM int64
	// Model is the float32 network (random weights; latency and memory
	// do not depend on training).
	Model *nn.Model
	// Specs caches Model.Spec().
	Specs []nn.OpSpec
	// QModel is the int8 network.
	QModel *quant.QModel
}

// buildWorkload assembles a workload from a DSP block + raw signal
// description + model.
func buildWorkload(name, id string, block dsp.Block, sig dsp.Signal, model *nn.Model, seed int64) (Workload, error) {
	if err := nn.InitWeights(model, seed); err != nil {
		return Workload{}, err
	}
	specs, err := model.Spec()
	if err != nil {
		return Workload{}, err
	}
	qm, err := quant.Quantize(model, calibrationSet(model.InputShape, 8, seed+1))
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:    name,
		ID:      id,
		DSPCost: block.Cost(sig),
		DSPRAM:  block.RAM(sig),
		Model:   model,
		Specs:   specs,
		QModel:  qm,
	}, nil
}

// calibrationSet is n synthetic feature tensors in the feature-like range
// [0,1): they set activation ranges only, accuracy is evaluated
// separately on trained proxies.
func calibrationSet(shape tensor.Shape, n int, seed int64) []*tensor.F32 {
	rng := rand.New(rand.NewSource(seed))
	calib := make([]*tensor.F32, n)
	for i := range calib {
		c := tensor.NewF32(shape...)
		for j := range c.Data {
			c.Data[j] = float32(rng.Float64())
		}
		calib[i] = c
	}
	return calib
}

// KWSWorkload is the paper's keyword spotting task: 1 s of 16 kHz audio
// through MFCC into a DS-CNN (~2.6M MACs).
func KWSWorkload() (Workload, error) {
	block, err := dsp.NewMFCC(map[string]float64{
		"frame_length": 0.032, "frame_stride": 0.02,
		"num_filters": 32, "num_cepstral": 10, "fft_length": 512,
	})
	if err != nil {
		return Workload{}, err
	}
	sig := dsp.Signal{Data: make([]float32, 16000), Rate: 16000, Axes: 1}
	shape, err := block.OutputShape(sig)
	if err != nil {
		return Workload{}, err
	}
	model := models.KWSDSCNN(shape[0], shape[1], 12)
	return buildWorkload("Keyword Spotting (KWS)", "kws", block, sig, model, 11)
}

// VWWWorkload is the visual wake words task: 96×96 RGB through
// MobileNetV1 0.25 (~7.5M MACs).
func VWWWorkload() (Workload, error) {
	block, err := dsp.NewImage(map[string]float64{"width": 96, "height": 96})
	if err != nil {
		return Workload{}, err
	}
	sig := dsp.Signal{Data: make([]float32, 160*120*3), Axes: 3, Width: 160, Height: 120}
	model := models.VWWMobileNetV1(96, 3, 0.25, 2)
	return buildWorkload("Visual Wake Words (VWW)", "vww", block, sig, model, 22)
}

// ICWorkload is the CIFAR-10-style image classification task: 32×32 RGB
// through a small CNN (~1.3M MACs).
func ICWorkload() (Workload, error) {
	block, err := dsp.NewImage(map[string]float64{"width": 32, "height": 32})
	if err != nil {
		return Workload{}, err
	}
	sig := dsp.Signal{Data: make([]float32, 32*32*3), Axes: 3, Width: 32, Height: 32}
	model := models.CIFARCNN(32, 3, 10)
	return buildWorkload("Image Classification (IC)", "ic", block, sig, model, 33)
}

// AllWorkloads returns the three evaluation workloads in paper order.
func AllWorkloads() ([]Workload, error) {
	kws, err := KWSWorkload()
	if err != nil {
		return nil, fmt.Errorf("bench: kws: %w", err)
	}
	vww, err := VWWWorkload()
	if err != nil {
		return nil, fmt.Errorf("bench: vww: %w", err)
	}
	ic, err := ICWorkload()
	if err != nil {
		return nil, fmt.Errorf("bench: ic: %w", err)
	}
	return []Workload{kws, vww, ic}, nil
}

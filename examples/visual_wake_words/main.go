// Visual wake words: the paper's person-detection vision workload.
//
// It trains a small CNN on synthetic person / no-person images, quantizes
// it, and then reproduces the paper's memory-fit analysis: which of the
// three evaluation boards can actually run each (precision, engine)
// variant — the reason VWW float32 shows '-' for the Nano 33 and Pi Pico
// in Table 2.
//
//	go run ./examples/visual_wake_words
package main

import (
	"fmt"
	"log"
	"math/rand"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/device"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/profiler"
	"edgepulse/internal/renode"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
)

func main() {
	ds, err := synth.VWWDataset(20, 32, 13)
	if err != nil {
		log.Fatal(err)
	}
	imp := core.New("person-detect")
	imp.Input = core.InputBlock{Kind: core.ImageInput, Width: 32, Height: 32, Axes: 3}
	block, err := dsp.New("image", map[string]float64{"width": 24, "height": 24})
	if err != nil {
		log.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = ds.Labels()
	shape, _ := imp.FeatureShape()
	model := models.CIFARCNN(shape[0], shape[2], len(imp.Classes))
	if err := nn.InitWeights(model, 9); err != nil {
		log.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		log.Fatal(err)
	}
	fmt.Println("== training person / no-person classifier ==")
	if _, err := imp.Train(ds, trainer.Config{Epochs: 14, LearningRate: 0.005, Seed: 9}); err != nil {
		log.Fatal(err)
	}
	acc, _, err := imp.Evaluate(ds, data.Testing)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  test accuracy: %.0f%%\n", acc*100)
	if err := imp.Quantize(ds); err != nil {
		log.Fatal(err)
	}

	// Memory fit analysis, as in Table 2/4 — here for the paper's
	// full-size MobileNetV1 0.25 VWW model at 96x96.
	fmt.Println("== memory fit: full-size MobileNetV1 0.25 @ 96x96 (paper's VWW model) ==")
	full := models.VWWMobileNetV1(96, 3, 0.25, 2)
	if err := nn.InitWeights(full, 10); err != nil {
		log.Fatal(err)
	}
	const imageDSPRAM = 36 << 10
	type variant struct {
		name string
		ram  func() (profiler.Memory, error)
	}
	fpTFLM := func() (profiler.Memory, error) { return profiler.EstimateFloat(full, renode.TFLM) }
	fpEON := func() (profiler.Memory, error) { return profiler.EstimateFloat(full, renode.EON) }
	for _, v := range []variant{{"float32 TFLM", fpTFLM}, {"float32 EON", fpEON}} {
		mem, err := v.ram()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s ram %4d kB  flash %4d kB   fits:", v.name, mem.RAMBytes>>10, mem.FlashBytes>>10)
		for _, b := range device.EvaluationBoards() {
			mark := "no"
			if profiler.Fits(mem, imageDSPRAM, b) {
				mark = "YES"
			}
			fmt.Printf("  %s=%s", b.ID, mark)
		}
		fmt.Println()
	}

	// The trained small model deploys everywhere.
	fmt.Println("== memory fit: this example's 24x24 model ==")
	for _, engine := range []renode.Engine{renode.TFLM, renode.EON} {
		mem, err := profiler.EstimateInt8(imp.QModel, engine)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  int8 %-5v ram %3d kB  flash %3d kB   fits:", engine, mem.RAMBytes>>10, mem.FlashBytes>>10)
		for _, b := range device.EvaluationBoards() {
			mark := "no"
			if profiler.Fits(mem, imp.DSPRAM(), b) {
				mark = "YES"
			}
			fmt.Printf("  %s=%s", b.ID, mark)
		}
		fmt.Println()
	}

	// Classify one fresh image of each kind.
	fmt.Println("== inference ==")
	person := synth.PersonImage(32, rand.New(rand.NewSource(21)))
	empty := synth.NonPersonImage(32, rand.New(rand.NewSource(22)))
	for _, tc := range []struct {
		name string
		sig  dsp.Signal
	}{{"person image", person}, {"background image", empty}} {
		res, err := imp.ClassifyQuantized(tc.sig)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s -> %q %v\n", tc.name, res.Label, res.Scores)
	}
}

// Quickstart: the 60-second end-to-end edgepulse flow.
//
// It builds a keyword-spotting impulse (MFE preprocessing + small conv1d
// network), trains it on synthetic keyword audio, evaluates it, quantizes
// to int8, deploys to an EIM artifact and classifies a fresh clip with
// the deployed model.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
)

func main() {
	// 1. Data: 3 synthetic keyword classes ("yes", "no", background noise).
	fmt.Println("== 1. collecting data ==")
	ds, err := synth.KWSDataset(3, 16, 8000, 0.5, 0.03, 42)
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range ds.Stats() {
		fmt.Printf("  %-8s %2d training / %d test clips (%.1fs audio)\n",
			st.Label, st.Training, st.Testing, st.Seconds)
	}

	// 2. Impulse design: 500 ms window -> MFE -> classifier.
	fmt.Println("== 2. designing the impulse ==")
	imp := core.New("quickstart-kws")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1}
	block, err := dsp.New("mfe", map[string]float64{"num_filters": 16, "fft_length": 128})
	if err != nil {
		log.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = ds.Labels()
	shape, err := imp.FeatureShape()
	if err != nil {
		log.Fatal(err)
	}
	model, err := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, len(imp.Classes))
	if err != nil {
		log.Fatal(err)
	}
	if err := nn.InitWeights(model, 7); err != nil {
		log.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  " + imp.Describe())
	fmt.Println("  model: " + models.Describe(model))

	// 3. Training.
	fmt.Println("== 3. training ==")
	if _, err := imp.Train(ds, trainer.Config{
		Epochs: 10, LearningRate: 0.005, Seed: 7, Log: os.Stdout,
	}); err != nil {
		log.Fatal(err)
	}
	acc, conf, err := imp.Evaluate(ds, data.Testing)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  test accuracy: %.1f%%  confusion: %v\n", acc*100, conf)

	// 4. Quantize to int8.
	fmt.Println("== 4. quantizing ==")
	if err := imp.Quantize(ds); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  int8 weights: %d bytes (float: %d bytes)\n",
		imp.QModel.WeightBytes(), imp.Model.ParamCount()*4)

	// 5. Deploy as an EIM artifact and run the deployed model.
	fmt.Println("== 5. deploying ==")
	blob, err := imp.MarshalArtifact()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  model.eim: %d bytes\n", len(blob))
	deployed, err := core.ParseArtifact(blob)
	if err != nil {
		log.Fatal(err)
	}
	clip, err := synth.Keyword("yes", 8000, 0.5, 0.03, rand.New(rand.NewSource(99)))
	if err != nil {
		log.Fatal(err)
	}
	res, err := deployed.ClassifyQuantized(clip)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  deployed model says: %q  scores: %v\n", res.Label, res.Scores)
}

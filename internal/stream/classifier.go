package stream

import (
	"fmt"

	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/tensor"
)

// impulseClassifier adapts a trained impulse to the session hot path. It
// bypasses Impulse.Classify's per-call map/ClassResult construction and
// goes straight through the pooled composite-extraction + forward path,
// so steady-state streaming stays within the one-shot allocation budget.
type impulseClassifier struct {
	imp       *core.Impulse
	quantized bool
}

// NewImpulseClassifier wraps a trained impulse for streaming. quantized
// selects the int8 model when available (falling back to float if not).
func NewImpulseClassifier(imp *core.Impulse, quantized bool) (Classifier, error) {
	if imp == nil {
		return nil, fmt.Errorf("stream: nil impulse")
	}
	if imp.Input.Kind != core.TimeSeries {
		return nil, fmt.Errorf("stream: streaming needs a time-series input block, have %q", imp.Input.Kind)
	}
	if imp.Model == nil {
		return nil, fmt.Errorf("stream: impulse has no trained classifier")
	}
	if quantized && imp.QModel == nil {
		return nil, fmt.Errorf("stream: impulse has no quantized model")
	}
	if len(imp.Classes) == 0 {
		return nil, fmt.Errorf("stream: impulse has no classes")
	}
	// Forward panics on a mis-shaped input, and a model loaded from disk
	// (the int8 one above all) is attached without a shape check.
	shape, err := imp.ClassifierShape()
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	want := imp.Model.InputShape
	if quantized {
		want = imp.QModel.InputShape
	}
	if !shape.Equal(want) {
		return nil, fmt.Errorf("stream: classifier features %v != model input %v", shape, want)
	}
	return &impulseClassifier{imp: imp, quantized: quantized}, nil
}

func (c *impulseClassifier) Classes() []string { return c.imp.Classes }

func (c *impulseClassifier) Classify(win dsp.Signal, scores []float32) error {
	composite, layout, err := c.imp.ExtractComposite(win)
	if err != nil {
		return err
	}
	x, err := c.imp.ClassifierFeaturesFrom(composite, layout)
	if err != nil {
		return err
	}
	var probs *tensor.F32
	if c.quantized {
		probs = c.imp.QModel.Forward(x)
	} else {
		probs = c.imp.Model.Forward(x)
	}
	if len(probs.Data) != len(scores) {
		return fmt.Errorf("stream: model emitted %d scores, want %d", len(probs.Data), len(scores))
	}
	copy(scores, probs.Data)
	return nil
}

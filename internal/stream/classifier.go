package stream

import (
	"fmt"

	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
)

// impulseClassifier adapts a trained impulse to the session hot path:
// each window is one core.Impulse.Run into the session's score slice,
// with no per-call map or ClassResult, so steady-state streaming stays
// within the one-shot allocation budget. An anomaly block, when the
// impulse has one, is scored and discarded.
type impulseClassifier struct {
	imp       *core.Impulse
	quantized bool
}

// NewImpulseClassifier wraps a trained impulse for streaming at the
// requested precision. The impulse is checked once, here, by the
// precondition Run holds each window to (core.Impulse.CheckClassifier),
// so a missing int8 model or a model that does not fit the design is
// refused at open rather than failing or panicking mid-stream.
func NewImpulseClassifier(imp *core.Impulse, quantized bool) (Classifier, error) {
	if imp == nil {
		return nil, fmt.Errorf("stream: nil impulse")
	}
	if imp.Input.Kind != core.TimeSeries {
		return nil, fmt.Errorf("stream: streaming needs a time-series input block, have %q", imp.Input.Kind)
	}
	if len(imp.Classes) == 0 {
		return nil, fmt.Errorf("stream: impulse has no classes")
	}
	if err := imp.CheckClassifier(quantized); err != nil {
		return nil, err
	}
	return &impulseClassifier{imp: imp, quantized: quantized}, nil
}

func (c *impulseClassifier) Classes() []string { return c.imp.Classes }

func (c *impulseClassifier) Classify(win dsp.Signal, scores []float32) error {
	_, _, err := c.imp.Run(win, c.quantized, scores)
	return err
}

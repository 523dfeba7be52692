package core

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"edgepulse/internal/dsp"
	"edgepulse/internal/tensor"
)

// ErrNoInt8Model is the answer to a request for int8 inference on an
// impulse that has no int8 model. Every front door (classify, batch,
// stream, EIM, ei-run) refuses such a request with it; none runs the
// float model instead.
var ErrNoInt8Model = errors.New("core: impulse has no int8 model")

// classifierModel is the classifier Run forwards a window through,
// with what checkModel needs to hold it to the design. A nil net means
// the impulse has no classifier (an anomaly-only design).
type classifierModel struct {
	net       interface{ Forward(*tensor.F32) *tensor.F32 }
	precision string
	in        tensor.Shape
	classes   int
}

// runModel is the tree's one choice between the float and the int8
// model for inference.
func (imp *Impulse) runModel(quantized bool) (classifierModel, error) {
	switch {
	case quantized && imp.QModel == nil:
		return classifierModel{}, ErrNoInt8Model
	case quantized:
		return classifierModel{imp.QModel, "int8", imp.QModel.InputShape, imp.QModel.NumClasses}, nil
	case imp.Model != nil:
		return classifierModel{imp.Model, "float", imp.Model.InputShape, imp.Model.NumClasses}, nil
	}
	return classifierModel{}, nil
}

// CheckClassifier reports whether Run can score this impulse's classes
// at the given precision: the model exists and takes the design's
// feature view and class count, the check an artefact load makes. A
// front door that holds an impulse for many windows (a stream session)
// calls it once, at open.
func (imp *Impulse) CheckClassifier(quantized bool) error {
	m, err := imp.runModel(quantized)
	if err != nil {
		return err
	}
	if m.net == nil {
		return errors.New("core: impulse has no trained classifier")
	}
	return imp.checkModel(m.precision, m.in, m.classes)
}

// Run is the one window pipeline (paper Sec. 4.6): the DSP graph's
// composite extraction, the classifier's view of it, the float or int8
// model, and the anomaly block when one is attached. It writes the
// class probabilities into scores, which must hold one slot per class
// in Classes order, and returns the argmax index (-1 for an impulse
// with no classifier, whose scores are left alone) and the anomaly
// score (0 with no anomaly block). Asking for int8 without an int8
// model is ErrNoInt8Model. Run allocates only what the pooled DSP and
// forward paths do, so it is safe to call per window of a stream.
func (imp *Impulse) Run(sig dsp.Signal, quantized bool, scores []float32) (best int, anomaly float64, err error) {
	m, err := imp.runModel(quantized)
	if err != nil {
		return -1, 0, err
	}
	switch {
	case m.net == nil && imp.Anomaly == nil:
		return -1, 0, errors.New("core: impulse has no learn block")
	case m.net != nil && len(scores) != len(imp.Classes):
		return -1, 0, fmt.Errorf("core: %d score slots for %d classes", len(scores), len(imp.Classes))
	}
	composite, layout, err := imp.ExtractComposite(sig)
	if err != nil {
		return -1, 0, err
	}
	best = -1
	if m.net != nil {
		spec, _ := imp.classifierSpec()
		x, err := imp.learnView(spec, composite, layout)
		if err != nil {
			return -1, 0, err
		}
		// Forward panics on a mis-shaped input; a model set on the
		// impulse without AttachClassifier can disagree with the design.
		if !x.Shape.Equal(m.in) {
			return -1, 0, fmt.Errorf("core: classifier features %v != model input %v", x.Shape, m.in)
		}
		probs := m.net.Forward(x)
		if len(probs.Data) != len(scores) {
			return -1, 0, fmt.Errorf("core: %s model emitted %d scores for %d classes", m.precision, len(probs.Data), len(scores))
		}
		copy(scores, probs.Data)
		best = probs.ArgMax()
	}
	if imp.Anomaly != nil {
		spec, _ := imp.AnomalySpec()
		av, err := imp.learnView(spec, composite, layout)
		if err != nil {
			return -1, 0, err
		}
		anomaly = imp.Anomaly.Score(av.Data)
	}
	return best, anomaly, nil
}

// ClassResult is one classification outcome.
type ClassResult struct {
	// Label is the argmax class.
	Label string
	// Scores maps every class to its probability.
	Scores map[string]float32
	// AnomalyScore is set when an anomaly block is attached.
	AnomalyScore float64
}

// Classify runs the full pipeline (DSP graph + float model [+ anomaly])
// on one window of raw signal. The DSP blocks run once; each learn
// block consumes its declared view of the composite feature vector.
func (imp *Impulse) Classify(sig dsp.Signal) (ClassResult, error) {
	return imp.ClassifyWindow(sig, false)
}

// ClassifyQuantized is Classify with the int8 model.
func (imp *Impulse) ClassifyQuantized(sig dsp.Signal) (ClassResult, error) {
	return imp.ClassifyWindow(sig, true)
}

// ClassifyWindow is Run with its scores keyed by class: the entry a
// front door passes its request's precision bit to.
func (imp *Impulse) ClassifyWindow(sig dsp.Signal, quantized bool) (ClassResult, error) {
	var buf [16]float32 // most impulses have few classes: no allocation
	scores := buf[:]
	if n := len(imp.Classes); n <= len(buf) {
		scores = buf[:n]
	} else {
		scores = make([]float32, n)
	}
	best, anomaly, err := imp.Run(sig, quantized, scores)
	if err != nil {
		return ClassResult{}, err
	}
	res := ClassResult{Scores: map[string]float32{}, AnomalyScore: anomaly}
	if best >= 0 {
		res.Label = imp.Classes[best]
		for i, c := range imp.Classes {
			res.Scores[c] = scores[i]
		}
	}
	return res, nil
}

// ClassifyBatch classifies a batch of raw feature windows in one call.
// The windows are independent, so they run on up to GOMAXPROCS
// goroutines, the caller's among them, each taking the next window
// index in turn; a one-window batch or a one-P process runs inline.
// Every result is the single-window path's bit for bit (the DSP runtime
// tables and the model's plan arenas are pooled, so each goroutine runs
// on its own warm scratch), and results are ordered like the input.
//
// A request for a precision the impulse lacks fails the batch before
// any window runs, with Run's error. A failing window fails the whole
// batch with the error of the lowest-index failing window, the one a
// sequential loop would report: once a window fails no new index is
// taken, and every lower index was taken before it. A panic in a window
// is re-raised on the caller's goroutine, as a *WindowPanic, after
// every worker has stopped.
func (imp *Impulse) ClassifyBatch(windows [][]float32, quantized bool) ([]ClassResult, error) {
	if _, err := imp.runModel(quantized); err != nil {
		return nil, err
	}
	out := make([]ClassResult, len(windows))
	workers := max(1, min(runtime.GOMAXPROCS(0), len(windows)))
	var next atomic.Int64
	var failed atomic.Bool
	faults := make([]batchFault, workers)
	run := func(f *batchFault) {
		defer func() {
			if p := recover(); p != nil {
				f.panicked, f.value, f.stack = true, p, debug.Stack()
				failed.Store(true)
			}
		}()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(windows) {
				return
			}
			f.window = i
			res, err := imp.ClassifyWindow(imp.SignalFor(windows[i]), quantized)
			if err != nil {
				f.value = err
				failed.Store(true)
				return
			}
			out[i] = res
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(&faults[w])
		}()
	}
	run(&faults[0])
	wg.Wait()

	var first *batchFault
	for w := range faults {
		if f := &faults[w]; f.value != nil && (first == nil || f.window < first.window) {
			first = f
		}
	}
	switch {
	case first == nil:
		return out, nil
	case first.panicked:
		panic(&WindowPanic{Window: first.window, Value: first.value, Stack: first.stack})
	default:
		return nil, fmt.Errorf("core: batch window %d: %w", first.window, first.value.(error))
	}
}

// batchFault is the failure one ClassifyBatch worker stopped at, if
// any: the window's index and its error, or the value it panicked with
// (never nil: recover reports panic(nil) as a *runtime.PanicNilError)
// and the worker's stack at the panic. Each worker takes increasing
// indices, so its first failure is its lowest.
type batchFault struct {
	window   int
	value    any
	stack    []byte
	panicked bool
}

// WindowPanic is what ClassifyBatch re-raises when a window panicked on
// one of its goroutines: the window, the original panic value and the
// panicking goroutine's stack, which a recover on the caller's
// goroutine cannot see for itself.
type WindowPanic struct {
	Window int
	Value  any
	Stack  []byte
}

// String is how a log record shows the re-raised value: the window and
// the original panic value.
func (p *WindowPanic) String() string {
	return fmt.Sprintf("batch window %d: %v", p.Window, p.Value)
}

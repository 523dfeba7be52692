// Package core implements the impulse — the paper's central abstraction
// (Sec. 3, Fig. 2): a dataflow of blocks that takes raw sensor data
// through an input block (windowing), one or more DSP blocks (feature
// extraction, including sensor-fusion designs where each block consumes
// a subset of the input axes) and learn blocks (a neural network
// classifier and/or a K-means anomaly detector), producing a deployable
// TinyML pipeline. The composite feature vector is the concatenation of
// the DSP blocks' outputs; each learn block declares which DSP outputs
// it consumes via the per-block offset table (Layout).
//
// An Impulse owns the end-to-end design: it extracts features from a
// dataset, trains its learn blocks, quantizes them, and classifies raw
// signals. Deployment (EON compilation, C++ emission, EIM packaging) and
// on-device estimation build on the impulse through the deploy, renode
// and profiler packages.
package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"edgepulse/internal/anomaly"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
	"edgepulse/internal/trainer"
)

// featureBatch is how many samples a feature-extraction pass
// materializes at a time when streaming a dataset split.
const featureBatch = 64

// InputKind distinguishes input block types.
type InputKind string

// Input block types.
const (
	TimeSeries InputKind = "time-series"
	ImageInput InputKind = "image"
)

// InputBlock describes how raw data enters the impulse.
type InputBlock struct {
	Kind InputKind `json:"kind"`
	// Time series parameters.
	WindowMS    int `json:"window_ms,omitempty"`
	StrideMS    int `json:"stride_ms,omitempty"`
	FrequencyHz int `json:"frequency_hz,omitempty"`
	Axes        int `json:"axes,omitempty"`
	// Image parameters.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
}

// WindowSamples returns the per-axis sample count of one window.
func (b InputBlock) WindowSamples() int {
	return b.WindowMS * b.FrequencyHz / 1000
}

// StrideSamples returns the per-axis stride between windows.
func (b InputBlock) StrideSamples() int {
	s := b.StrideMS * b.FrequencyHz / 1000
	if s <= 0 {
		s = b.WindowSamples()
	}
	return s
}

// maxWindowValues bounds one window's raw values (frames × axes, or
// width × height × channels), 16 MB of float32: shape queries allocate
// a whole zero window, so a design from a request or an artefact must
// not be able to ask for more memory than the server has.
const maxWindowValues = 1 << 22

// Validate checks the block configuration and normalizes it in place:
// image inputs with unspecified axes are pinned to 3 channels here, so
// shape queries and extraction always agree on the same geometry.
func (b *InputBlock) Validate() error {
	var values float64 // in float64, so no product of hostile ints can wrap
	switch b.Kind {
	case TimeSeries:
		if b.WindowMS <= 0 || b.FrequencyHz <= 0 || b.Axes <= 0 {
			return fmt.Errorf("core: time-series input needs window_ms, frequency_hz and axes")
		}
		values = float64(b.WindowMS) * float64(b.FrequencyHz) / 1000 * float64(b.Axes)
	case ImageInput:
		if b.Width <= 0 || b.Height <= 0 {
			return fmt.Errorf("core: image input needs width and height")
		}
		if b.Axes == 0 {
			b.Axes = 3
		}
		if b.Axes != 1 && b.Axes != 3 {
			return fmt.Errorf("core: image input supports 1 or 3 axes, have %d", b.Axes)
		}
		values = float64(b.Width) * float64(b.Height) * float64(b.Axes)
	default:
		return fmt.Errorf("core: unknown input kind %q", b.Kind)
	}
	if values > maxWindowValues {
		return fmt.Errorf("core: input window of %.0f values exceeds %d", values, maxWindowValues)
	}
	return nil
}

// DSPInstance is one configured feature-extraction block in the impulse
// graph.
type DSPInstance struct {
	// Name is the instance name, unique within the impulse; learn
	// blocks reference it in their Inputs.
	Name string
	// Block is the configured extractor.
	Block dsp.Block
	// Axes selects which input axes this block consumes (time-series
	// only, by index into the interleaved signal). Nil = all axes.
	Axes []int
}

// Impulse is a configured pipeline: input block → DSP block graph →
// learn block(s).
type Impulse struct {
	Name  string
	Input InputBlock
	// DSP is the ordered feature extraction graph. The composite
	// feature vector concatenates these blocks' outputs (see Layout).
	DSP []DSPInstance
	// Learn holds the design-level learn block specs. When empty, a
	// classification block over all DSP outputs is implied by Classes
	// and an anomaly block by a fitted Anomaly — the legacy design.
	Learn []LearnBlockSpec
	// Classes are the classifier's output labels, in index order.
	Classes []string
	// Model is the float32 classifier (nil until attached/trained).
	Model *nn.Model
	// QModel is the int8 classifier (nil until Quantize).
	QModel *quant.QModel
	// Anomaly is the K-means learn block state scoring feature vectors
	// against the training distribution.
	Anomaly *anomaly.KMeans

	// layout caches the per-block feature offset table, checked
	// against the design on every use (see Layout).
	layout atomic.Pointer[layoutCache]
}

// New creates an impulse with the given name.
func New(name string) *Impulse { return &Impulse{Name: name} }

// UseDSP replaces the DSP graph with the given blocks, each consuming
// all input axes and named after its type.
func (imp *Impulse) UseDSP(blocks ...dsp.Block) *Impulse {
	imp.DSP = nil
	for _, b := range blocks {
		imp.AddDSP("", b)
	}
	return imp
}

// AddDSP appends one block to the DSP graph. name defaults to the block
// type, disambiguated with a numeric suffix; axes selects the input
// axes it consumes (none = all). An explicit duplicate name panics —
// like a duplicate registry entry, it is a programmer error that would
// otherwise only surface when the serialized design fails to reload.
func (imp *Impulse) AddDSP(name string, b dsp.Block, axes ...int) *Impulse {
	seen := map[string]bool{}
	for _, inst := range imp.DSP {
		seen[inst.Name] = true
	}
	if name == "" {
		name = uniqueName(b.Name(), seen)
	} else if seen[name] {
		panic("core: duplicate dsp block name " + name)
	}
	imp.DSP = append(imp.DSP, DSPInstance{Name: name, Block: b, Axes: axes})
	return imp
}

// validateDesign checks the block graph: unique DSP instance names,
// axis selections within the input range, and learn specs that resolve
// against the registry and the DSP graph.
func (imp *Impulse) validateDesign() error {
	seen := map[string]bool{}
	for _, inst := range imp.DSP {
		if inst.Name == "" {
			return fmt.Errorf("core: dsp block of type %q has no instance name", inst.Block.Name())
		}
		if seen[inst.Name] {
			return fmt.Errorf("core: duplicate dsp block name %q", inst.Name)
		}
		seen[inst.Name] = true
		if len(inst.Axes) > 0 {
			if imp.Input.Kind == ImageInput {
				return fmt.Errorf("core: dsp block %q: axis selection is not supported for image inputs", inst.Name)
			}
			used := map[int]bool{}
			for _, a := range inst.Axes {
				if a < 0 || a >= imp.Input.Axes {
					return fmt.Errorf("core: dsp block %q selects axis %d, input has %d axes", inst.Name, a, imp.Input.Axes)
				}
				if used[a] {
					return fmt.Errorf("core: dsp block %q selects axis %d twice", inst.Name, a)
				}
				used[a] = true
			}
		}
	}
	classifiers, anomalies := 0, 0
	learnSeen := map[string]bool{}
	for _, spec := range imp.Learn {
		t, ok := learnTypeOf(spec.Type)
		if !ok {
			return fmt.Errorf("core: unknown learn block type %q (registered: %v)", spec.Type, LearnNames())
		}
		if spec.Name == "" {
			return fmt.Errorf("core: learn block of type %q has no instance name", spec.Type)
		}
		if learnSeen[spec.Name] {
			return fmt.Errorf("core: duplicate learn block name %q", spec.Name)
		}
		learnSeen[spec.Name] = true
		consumed := map[string]bool{}
		for _, in := range spec.Inputs {
			if !seen[in] {
				return fmt.Errorf("core: learn block %q consumes unknown dsp block %q", spec.Name, in)
			}
			if consumed[in] {
				return fmt.Errorf("core: learn block %q consumes dsp block %q twice", spec.Name, in)
			}
			consumed[in] = true
		}
		switch t.Type {
		case LearnClassification:
			classifiers++
		case LearnAnomaly:
			anomalies++
			if k, ok := spec.Params["clusters"]; ok && k < 1 {
				return fmt.Errorf("core: learn block %q: clusters must be >= 1", spec.Name)
			}
		}
	}
	// The runtime carries one trained classifier head and one anomaly
	// state per impulse; the schema allows lists so richer runtimes can
	// grow into them.
	if classifiers > 1 {
		return fmt.Errorf("core: at most one classification learn block per impulse (have %d)", classifiers)
	}
	if anomalies > 1 {
		return fmt.Errorf("core: at most one anomaly learn block per impulse (have %d)", anomalies)
	}
	return nil
}

// Validate checks the full pipeline configuration.
func (imp *Impulse) Validate() error {
	if err := imp.Input.Validate(); err != nil {
		return err
	}
	if len(imp.DSP) == 0 {
		return fmt.Errorf("core: impulse has no DSP block")
	}
	if err := imp.validateDesign(); err != nil {
		return err
	}
	if len(imp.Learn) == 0 && len(imp.Classes) == 0 && imp.Anomaly == nil {
		return fmt.Errorf("core: impulse has no learn block (classes or anomaly)")
	}
	if _, err := imp.FeatureShape(); err != nil {
		return err
	}
	return imp.checkLearned()
}

// windowGeometry returns the canonical window's geometry without data,
// and the number of raw values such a window holds.
func (imp *Impulse) windowGeometry() (dsp.Signal, int) {
	if imp.Input.Kind == ImageInput {
		axes := imp.Input.Axes
		if axes == 0 {
			axes = 3
		}
		return dsp.Signal{Axes: axes, Width: imp.Input.Width, Height: imp.Input.Height},
			imp.Input.Width * imp.Input.Height * axes
	}
	return dsp.Signal{Rate: imp.Input.FrequencyHz, Axes: imp.Input.Axes},
		imp.Input.WindowSamples() * imp.Input.Axes
}

// WindowLen returns the number of raw values in one canonical window
// (frames × axes, or width × height × channels for an image).
func (imp *Impulse) WindowLen() int {
	_, n := imp.windowGeometry()
	return n
}

// SignalFor wraps caller-owned window data in the canonical window
// geometry. It allocates nothing: the per-request paths use it where
// CanonicalSignal would zero a whole window only to be read for its
// rate and axes.
func (imp *Impulse) SignalFor(data []float32) dsp.Signal {
	sig, _ := imp.windowGeometry()
	sig.Data = data
	return sig
}

// CanonicalSignal returns a zero signal with the canonical window
// geometry; used for shape, cost and memory queries.
func (imp *Impulse) CanonicalSignal() dsp.Signal {
	return imp.SignalFor(make([]float32, imp.WindowLen()))
}

// canonicalFor returns the canonical window geometry as seen by one DSP
// block, i.e. narrowed to its selected axes, over zeros when it holds a
// window of that size (these zero signals exist only for shape, cost
// and memory queries, which never write them).
func (imp *Impulse) canonicalFor(inst DSPInstance, zeros []float32) dsp.Signal {
	sig, n := imp.windowGeometry()
	if len(inst.Axes) > 0 && imp.Input.Kind != ImageInput {
		sig.Axes = len(inst.Axes)
		n = imp.Input.WindowSamples() * sig.Axes
	}
	if len(zeros) < n {
		zeros = make([]float32, n)
	}
	sig.Data = zeros[:n]
	return sig
}

// subSignal narrows an interleaved signal to the selected axes (nil =
// all axes, returned as-is without copying).
func subSignal(sig dsp.Signal, axes []int) dsp.Signal {
	if len(axes) == 0 {
		return sig
	}
	n := sig.Frames()
	out := sig
	out.Axes = len(axes)
	out.Data = make([]float32, n*len(axes))
	for t := 0; t < n; t++ {
		src := t * sig.Axes
		dst := t * len(axes)
		for j, a := range axes {
			out.Data[dst+j] = sig.Data[src+a]
		}
	}
	return out
}

// FeatureShape returns the composite feature shape for one canonical
// window: a single DSP block keeps its own output shape (so 2-D
// spectrogram features still feed conv models), multiple blocks
// concatenate into a flat vector.
func (imp *Impulse) FeatureShape() (tensor.Shape, error) {
	l, err := imp.Layout()
	if err != nil {
		return nil, err
	}
	if len(l.Segments) == 1 {
		return l.Segments[0].Shape, nil
	}
	return tensor.Shape{l.Total}, nil
}

// windowed crops or zero-pads a time-series signal to exactly one
// canonical window.
func (imp *Impulse) windowed(sig dsp.Signal) dsp.Signal {
	if imp.Input.Kind == ImageInput {
		return sig
	}
	want := imp.Input.WindowSamples() * imp.Input.Axes
	out := sig
	out.Rate = imp.Input.FrequencyHz
	out.Axes = imp.Input.Axes
	if len(sig.Data) >= want {
		out.Data = sig.Data[:want]
		return out
	}
	padded := make([]float32, want)
	copy(padded, sig.Data)
	out.Data = padded
	return out
}

// Windows slices a long signal into canonical windows with the input
// block's stride (for continuous classification). A signal shorter than
// one window yields a single zero-padded window.
func (imp *Impulse) Windows(sig dsp.Signal) []dsp.Signal {
	if imp.Input.Kind == ImageInput {
		return []dsp.Signal{sig}
	}
	win := imp.Input.WindowSamples()
	stride := imp.Input.StrideSamples()
	frames := sig.Frames()
	if frames <= win {
		return []dsp.Signal{imp.windowed(sig)}
	}
	var out []dsp.Signal
	for start := 0; start+win <= frames; start += stride {
		w := dsp.Signal{
			Data: sig.Data[start*sig.Axes : (start+win)*sig.Axes],
			Rate: imp.Input.FrequencyHz,
			Axes: imp.Input.Axes,
		}
		out = append(out, w)
	}
	return out
}

// Features runs the DSP graph on one canonical window of the signal and
// returns the composite feature vector (the concatenation of every
// block's output; a single block's tensor passes through unchanged).
func (imp *Impulse) Features(sig dsp.Signal) (*tensor.F32, error) {
	x, _, err := imp.ExtractComposite(sig)
	return x, err
}

// ExtractComposite runs every DSP block on one window and concatenates
// the outputs per the cached offset table, returning the table so
// callers (Run, learn-block views) can slice per-block segments
// without re-extracting. The single-block fast path returns the block's
// tensor directly, byte-identical to the legacy pipeline.
func (imp *Impulse) ExtractComposite(sig dsp.Signal) (*tensor.F32, *FeatureLayout, error) {
	l, err := imp.Layout()
	if err != nil {
		return nil, nil, err
	}
	win := imp.windowed(sig)
	if len(imp.DSP) == 1 {
		x, err := imp.DSP[0].Block.Extract(subSignal(win, imp.DSP[0].Axes))
		if err != nil {
			return nil, nil, fmt.Errorf("core: dsp block %q: %w", imp.DSP[0].Name, err)
		}
		return x, l, nil
	}
	out := tensor.NewF32(l.Total)
	for i, inst := range imp.DSP {
		x, err := inst.Block.Extract(subSignal(win, inst.Axes))
		if err != nil {
			return nil, nil, fmt.Errorf("core: dsp block %q: %w", inst.Name, err)
		}
		seg := l.Segments[i]
		if len(x.Data) != seg.Len {
			return nil, nil, fmt.Errorf("core: dsp block %q produced %d features, layout expects %d", inst.Name, len(x.Data), seg.Len)
		}
		copy(out.Data[seg.Offset:seg.Offset+seg.Len], x.Data)
	}
	return out, l, nil
}

// resolveInputs expands a learn spec's input list to segment indices in
// impulse order (empty = all blocks).
func (l *FeatureLayout) resolveInputs(spec LearnBlockSpec) ([]int, error) {
	if len(spec.Inputs) == 0 {
		idx := make([]int, len(l.Segments))
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	var idx []int
	for i, seg := range l.Segments {
		for _, in := range spec.Inputs {
			if seg.Name == in {
				idx = append(idx, i)
				break
			}
		}
	}
	if len(idx) != len(spec.Inputs) {
		return nil, fmt.Errorf("core: learn block %q consumes unknown dsp blocks (have %v)", spec.Name, spec.Inputs)
	}
	return idx, nil
}

// learnView slices a learn block's feature vector out of the composite.
// A block consuming everything aliases the composite; a block consuming
// exactly one DSP block keeps that block's shape (so conv models keep
// working); multi-block subsets gather into a flat vector.
func (imp *Impulse) learnView(spec LearnBlockSpec, composite *tensor.F32, l *FeatureLayout) (*tensor.F32, error) {
	if len(spec.Inputs) == 0 {
		return composite, nil
	}
	idx, err := l.resolveInputs(spec)
	if err != nil {
		return nil, err
	}
	if len(idx) == len(l.Segments) {
		return composite, nil
	}
	if len(idx) == 1 {
		seg := l.Segments[idx[0]]
		return &tensor.F32{Shape: seg.Shape.Clone(), Data: composite.Data[seg.Offset : seg.Offset+seg.Len]}, nil
	}
	total := 0
	for _, i := range idx {
		total += l.Segments[i].Len
	}
	out := tensor.NewF32(total)
	off := 0
	for _, i := range idx {
		seg := l.Segments[i]
		copy(out.Data[off:off+seg.Len], composite.Data[seg.Offset:seg.Offset+seg.Len])
		off += seg.Len
	}
	return out, nil
}

// LearnShape returns the feature shape a learn block consumes: one
// input block keeps its own shape, multiple inputs flatten to their
// concatenated length.
func (imp *Impulse) LearnShape(spec LearnBlockSpec) (tensor.Shape, error) {
	l, err := imp.Layout()
	if err != nil {
		return nil, err
	}
	idx, err := l.resolveInputs(spec)
	if err != nil {
		return nil, err
	}
	if len(idx) == 1 {
		return l.Segments[idx[0]].Shape, nil
	}
	total := 0
	for _, i := range idx {
		total += l.Segments[i].Len
	}
	return tensor.Shape{total}, nil
}

// LearnFeatures extracts the feature vector one learn block consumes
// from a raw signal window.
func (imp *Impulse) LearnFeatures(spec LearnBlockSpec, sig dsp.Signal) (*tensor.F32, error) {
	composite, l, err := imp.ExtractComposite(sig)
	if err != nil {
		return nil, err
	}
	return imp.learnView(spec, composite, l)
}

// classifierSpec resolves the impulse's classification learn block:
// the explicit spec when present, otherwise the implicit
// all-inputs classifier implied by a class list or attached model. The
// zero spec it returns with false consumes every DSP block too.
func (imp *Impulse) classifierSpec() (LearnBlockSpec, bool) {
	for _, spec := range imp.Learn {
		if spec.Type == LearnClassification {
			return spec, true
		}
	}
	if len(imp.Learn) == 0 && (len(imp.Classes) > 0 || imp.Model != nil) {
		return LearnBlockSpec{Name: LearnClassification, Type: LearnClassification}, true
	}
	return LearnBlockSpec{}, false
}

// AnomalySpec resolves the impulse's anomaly learn block: the explicit
// spec when present, otherwise the implicit all-inputs block implied by
// a fitted K-means state. The zero spec it returns with false consumes
// every DSP block too, so a K-means block fitted on a design that
// declares none watches the whole composite vector.
func (imp *Impulse) AnomalySpec() (LearnBlockSpec, bool) {
	for _, spec := range imp.Learn {
		if spec.Type == LearnAnomaly {
			return spec, true
		}
	}
	if len(imp.Learn) == 0 && imp.Anomaly != nil {
		return LearnBlockSpec{Name: LearnAnomaly, Type: LearnAnomaly}, true
	}
	return LearnBlockSpec{}, false
}

// ClassifierShape returns the feature shape the classification learn
// block consumes — the input shape its model must have.
func (imp *Impulse) ClassifierShape() (tensor.Shape, error) {
	spec, ok := imp.classifierSpec()
	if !ok {
		return nil, fmt.Errorf("core: impulse has no classification learn block")
	}
	return imp.LearnShape(spec)
}

// classIndex maps a label to its class index, or -1.
func (imp *Impulse) classIndex(label string) int {
	for i, c := range imp.Classes {
		if c == label {
			return i
		}
	}
	return -1
}

// BuildExamples extracts the classifier learn block's features for every
// sample in the given split, mapping labels to class indices. Samples
// with labels outside Classes are skipped (they may belong to an
// anomaly-only workflow).
func (imp *Impulse) BuildExamples(ds *data.Dataset, cat data.Category) ([]trainer.Example, error) {
	spec, ok := imp.classifierSpec()
	if !ok {
		return nil, fmt.Errorf("core: impulse has no classification learn block")
	}
	var out []trainer.Example
	// Stream the split batch-by-batch so signals for datasets larger
	// than RAM are never all resident; only the (much smaller)
	// extracted feature vectors accumulate.
	it := ds.Batches(cat, featureBatch)
	for {
		batch, ok := it.Next()
		if !ok {
			break
		}
		for _, s := range batch {
			y := imp.classIndex(s.Label)
			if y < 0 {
				continue
			}
			x, err := imp.LearnFeatures(spec, s.Signal)
			if err != nil {
				return nil, fmt.Errorf("core: sample %s: %w", s.ID, err)
			}
			out = append(out, trainer.Example{X: x, Y: y})
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// AttachClassifier sets the float model, checking shape compatibility
// against the classification learn block's feature view.
func (imp *Impulse) AttachClassifier(m *nn.Model) error {
	if err := imp.checkModel("float", m.InputShape, m.NumClasses); err != nil {
		return err
	}
	imp.Model = m
	imp.QModel = nil // stale after a model change
	return nil
}

// Train fits the attached classifier on the dataset's training split.
func (imp *Impulse) Train(ds *data.Dataset, cfg trainer.Config) (*trainer.Result, error) {
	if imp.Model == nil {
		return nil, fmt.Errorf("core: no classifier attached")
	}
	examples, err := imp.BuildExamples(ds, data.Training)
	if err != nil {
		return nil, err
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("core: no training examples match classes %v", imp.Classes)
	}
	res, err := trainer.Train(imp.Model, examples, cfg)
	if err != nil {
		return nil, err
	}
	imp.QModel = nil // weights changed
	return res, nil
}

// TrainAnomaly fits the K-means anomaly block on the anomaly learn
// block's feature view of the training split. clusters <= 0 takes the
// anomaly spec's "clusters" param (default 3).
func (imp *Impulse) TrainAnomaly(ds *data.Dataset, clusters int, seed int64) error {
	spec, _ := imp.AnomalySpec()
	if clusters <= 0 {
		clusters = 3
		if k, ok := spec.Params["clusters"]; ok && k >= 1 {
			clusters = int(k)
		}
	}
	var rows [][]float32
	it := ds.Batches(data.Training, featureBatch)
	for {
		batch, ok := it.Next()
		if !ok {
			break
		}
		for _, s := range batch {
			x, err := imp.LearnFeatures(spec, s.Signal)
			if err != nil {
				return err
			}
			rows = append(rows, x.Data)
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("core: no training samples")
	}
	km, err := anomaly.FitKMeans(rows, clusters, 50, seed)
	if err != nil {
		return err
	}
	imp.Anomaly = km
	return nil
}

// Quantize produces the int8 model using training features as the
// calibration set (capped for speed).
func (imp *Impulse) Quantize(ds *data.Dataset) error {
	if imp.Model == nil {
		return fmt.Errorf("core: no classifier to quantize")
	}
	examples, err := imp.BuildExamples(ds, data.Training)
	if err != nil {
		return err
	}
	if len(examples) == 0 {
		return fmt.Errorf("core: no calibration examples")
	}
	const maxCalib = 64
	var calib []*tensor.F32
	for i, ex := range examples {
		if i >= maxCalib {
			break
		}
		calib = append(calib, ex.X)
	}
	qm, err := quant.Quantize(imp.Model, calib)
	if err != nil {
		return err
	}
	imp.QModel = qm
	return nil
}

// Evaluate computes accuracy and the confusion matrix on a dataset split
// using the float model (the platform's "model testing" page).
func (imp *Impulse) Evaluate(ds *data.Dataset, cat data.Category) (float64, [][]int, error) {
	if imp.Model == nil {
		return 0, nil, fmt.Errorf("core: no classifier attached")
	}
	examples, err := imp.BuildExamples(ds, cat)
	if err != nil {
		return 0, nil, err
	}
	if len(examples) == 0 {
		return 0, nil, fmt.Errorf("core: no examples in split %q", cat)
	}
	acc := trainer.Accuracy(imp.Model, examples)
	conf := trainer.Confusion(imp.Model, examples, len(imp.Classes))
	return acc, conf, nil
}

// DSPCost returns the summed operation count of one composite feature
// extraction across all DSP blocks.
func (imp *Impulse) DSPCost() dsp.Cost {
	var total dsp.Cost
	for _, inst := range imp.DSP {
		total = total.Add(inst.Block.Cost(imp.canonicalFor(inst, nil)))
	}
	return total
}

// DSPRAM returns the working RAM of one composite feature extraction in
// bytes: the blocks' own footprints plus, for multi-block graphs, the
// concatenation buffer.
func (imp *Impulse) DSPRAM() int64 {
	var total int64
	for _, inst := range imp.DSP {
		total += inst.Block.RAM(imp.canonicalFor(inst, nil))
	}
	if len(imp.DSP) > 1 {
		if l, err := imp.Layout(); err == nil {
			total += int64(l.Total) * 4
		}
	}
	return total
}

// Describe renders the block dataflow as a one-line diagram, the textual
// equivalent of the Studio's impulse view (Fig. 2).
func (imp *Impulse) Describe() string {
	in := "?"
	switch imp.Input.Kind {
	case TimeSeries:
		in = fmt.Sprintf("Time series data (%d ms @ %d Hz, %d axes)",
			imp.Input.WindowMS, imp.Input.FrequencyHz, imp.Input.Axes)
	case ImageInput:
		in = fmt.Sprintf("Image data (%dx%d)", imp.Input.Width, imp.Input.Height)
	}
	dspName := "?"
	if len(imp.DSP) > 0 {
		names := make([]string, len(imp.DSP))
		for i, inst := range imp.DSP {
			names[i] = inst.Block.Name()
			if len(inst.Axes) > 0 {
				names[i] += fmt.Sprintf("(axes %v)", inst.Axes)
			}
		}
		dspName = strings.Join(names, " + ")
	}
	learn := ""
	if len(imp.Classes) > 0 {
		learn = fmt.Sprintf("Classification (%d classes)", len(imp.Classes))
	}
	if imp.Anomaly != nil {
		if learn != "" {
			learn += " + "
		}
		learn += fmt.Sprintf("Anomaly detection (K-means, %d clusters)", len(imp.Anomaly.Centroids))
	} else if spec, ok := imp.AnomalySpec(); ok && spec.Type == LearnAnomaly && len(imp.Learn) > 0 {
		if learn != "" {
			learn += " + "
		}
		learn += "Anomaly detection (K-means)"
	}
	return fmt.Sprintf("[%s] -> [%s] -> [%s]", in, dspName, learn)
}

// Package nn is a from-scratch neural network library sized for TinyML
// workloads: single-sample (microcontroller-style) forward inference and
// CPU backpropagation for training the paper's model families (DS-CNN,
// MobileNet-style depthwise-separable networks, small conv stacks).
//
// Layers follow TFLite conventions: channels-last activations, fused
// activation functions on compute layers, and explicit pooling/flatten
// layers. A Model is a sequential stack; its Spec() describes every op
// with shapes and MAC counts for the profiler, device simulator, TFLM
// interpreter and EON compiler.
package nn

import (
	"fmt"
	"sync/atomic"

	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

// Activation is a fused activation applied by compute layers.
type Activation int

// Supported fused activations.
const (
	None Activation = iota
	ReLU
	ReLU6
	Sigmoid
)

func (a Activation) String() string {
	switch a {
	case None:
		return "none"
	case ReLU:
		return "relu"
	case ReLU6:
		return "relu6"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func (a Activation) apply(v float32) float32 {
	switch a {
	case ReLU:
		if v < 0 {
			return 0
		}
		return v
	case ReLU6:
		if v < 0 {
			return 0
		}
		if v > 6 {
			return 6
		}
		return v
	case Sigmoid:
		return sigmoid(v)
	default:
		return v
	}
}

// applyTo applies a fused activation to a whole output row, taking the
// vectorized clamps for ReLU/ReLU6 (bitwise-identical to apply, see
// package simd) and the scalar path otherwise.
func (a Activation) applyTo(x []float32) {
	switch a {
	case None:
	case ReLU:
		simd.ReLUF32(x)
	case ReLU6:
		simd.ReLU6F32(x)
	default:
		for i, v := range x {
			x[i] = a.apply(v)
		}
	}
}

// grad returns d(act(x))/dx given the activation output y.
func (a Activation) grad(y float32) float32 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case ReLU6:
		if y > 0 && y < 6 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// Layer is one operation in a sequential model. A layer holds its
// hyperparameters and parameters and nothing else: every method below
// reads the layer and writes none of its fields. Parameters are allocated
// once, when the layer joins a model (Model.Add) or by an explicit Build
// on a standalone layer.
type Layer interface {
	// Kind returns the op type identifier, e.g. "conv2d".
	Kind() string
	// OutShape returns the output shape for the given input shape.
	OutShape(in tensor.Shape) (tensor.Shape, error)
	// InferInto runs inference on src, an activation of shape in,
	// writing the result into dst, which holds OutShape(in) elements.
	// One layer may serve concurrent inferences as long as each caller
	// owns its dst. Layers whose inference is the identity (flatten,
	// reshape, dropout) copy; arena-backed drivers skip the call and
	// alias the buffers instead (see Aliases).
	InferInto(in tensor.Shape, src, dst []float32)
	// Params returns trainable parameter tensors (possibly empty).
	Params() []*tensor.F32
	// MACs returns multiply-accumulate count for the given input shape.
	MACs(in tensor.Shape) int64
}

// Model is a sequential stack of layers with a fixed input shape.
type Model struct {
	// InputShape is the feature tensor shape the model consumes.
	InputShape tensor.Shape
	// Layers, applied in order.
	Layers []Layer
	// NumClasses is the output dimensionality (for classifiers).
	NumClasses int

	// exec caches the executor behind Forward. It is rebuilt lazily
	// whenever the layer stack changes.
	exec atomic.Pointer[FloatExecutor]
}

// NewModel builds an empty model for the given input shape.
func NewModel(inputShape ...int) *Model {
	return &Model{InputShape: tensor.Shape(inputShape).Clone()}
}

// Add appends a layer, allocating its parameters for the shape it
// receives unless they already fit, and returns the model for chaining.
func (m *Model) Add(l Layer) *Model {
	if b, ok := l.(interface{ Build(int) }); ok {
		if in, err := m.OutputShape(); err == nil {
			if _, err := l.OutShape(in); err == nil {
				b.Build(in[len(in)-1])
			}
		}
	}
	m.Layers = append(m.Layers, l)
	m.exec.Store(nil) // the cached executor is stale
	return m
}

// OutputShape computes the final output shape, validating every layer.
func (m *Model) OutputShape() (tensor.Shape, error) {
	s := m.InputShape
	for i, l := range m.Layers {
		var err error
		s, err = l.OutShape(s)
		if err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Kind(), err)
		}
	}
	return s, nil
}

// Forward runs single-sample inference on the model's executor, the one
// eon.Compile builds (planned arena, kernels bound at build):
// steady-state calls reuse pooled activation buffers, concurrent calls
// each draw their own, and the returned tensor is freshly allocated.
//
// Forward panics when the layer stack is shape-inconsistent or in does
// not have the model's input shape; callers holding untrusted input
// check the shape first (core.Impulse.classify does). Training runs the
// same executor on a TrainState's arena.
func (m *Model) Forward(in *tensor.F32) *tensor.F32 {
	out, err := m.executor().Run(in)
	if err != nil {
		panic(err)
	}
	return out
}

// executor returns the model's cached executor, building it on first use
// or after layers were added.
func (m *Model) executor() *FloatExecutor {
	e := m.exec.Load()
	if e == nil || e.NumOps() != len(m.Layers) {
		var err error
		if e, err = NewFloatExecutor(m, BindAtBuild); err != nil {
			panic(err)
		}
		m.exec.Store(e)
	}
	return e
}

// ForwardTo runs inference on the model's executor and returns a copy
// of the activation after the first n layers, n clamped to [0, layers]
// (used for embeddings in active learning). Dropout is the identity, as
// in Forward. It panics where Forward does.
func (m *Model) ForwardTo(in *tensor.F32, n int) *tensor.F32 {
	e := m.executor()
	n = min(max(n, 0), len(e.steps))
	shape := e.input
	if n > 0 {
		shape = e.steps[n-1].op.OutShape
	}
	out := tensor.NewF32(shape...)
	if err := e.Observe(in, func(b int, x []float32) {
		if b == n {
			copy(out.Data, x)
		}
	}); err != nil {
		panic(err)
	}
	return out
}

// Params returns all trainable tensors in layer order.
func (m *Model) Params() []*tensor.F32 {
	var out []*tensor.F32
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ParamCount returns the total number of trainable scalars.
func (m *Model) ParamCount() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// MACs returns the total multiply-accumulate count of one inference.
func (m *Model) MACs() int64 {
	var total int64
	s := m.InputShape
	for _, l := range m.Layers {
		total += l.MACs(s)
		var err error
		s, err = l.OutShape(s)
		if err != nil {
			return total
		}
	}
	return total
}

// Validate checks that the layer stack is shape-consistent and that the
// final output matches NumClasses when set.
func (m *Model) Validate() error {
	if !m.InputShape.Valid() {
		return fmt.Errorf("nn: invalid input shape %v", m.InputShape)
	}
	out, err := m.OutputShape()
	if err != nil {
		return err
	}
	if m.NumClasses > 0 && out.Elems() != m.NumClasses {
		return fmt.Errorf("nn: output %v has %d elems, want %d classes", out, out.Elems(), m.NumClasses)
	}
	return nil
}

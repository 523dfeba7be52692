package nn

import (
	"fmt"
	"math"

	"edgepulse/internal/tensor"
)

// OpSpec describes one layer of a model structurally: enough to rebuild
// the layer (FromSpec), plan memory (profiler), simulate latency (renode)
// and serialize/compile it (tflm, eon).
type OpSpec struct {
	// Kind is the op type, e.g. "conv2d".
	Kind string
	// InShape and OutShape are the single-sample activation shapes.
	InShape, OutShape tensor.Shape
	// MACs is the multiply-accumulate count of one invocation.
	MACs int64
	// WeightElems counts weight scalars stored in flash (params + any
	// frozen state such as batchnorm statistics).
	WeightElems int
	// Attrs holds layer hyperparameters keyed by name.
	Attrs map[string]float64
}

// Spec returns the structural description of every layer in order.
func (m *Model) Spec() ([]OpSpec, error) {
	specs := make([]OpSpec, 0, len(m.Layers))
	in := m.InputShape
	for i, l := range m.Layers {
		out, err := l.OutShape(in)
		if err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Kind(), err)
		}
		spec := OpSpec{
			Kind:     l.Kind(),
			InShape:  in.Clone(),
			OutShape: out.Clone(),
			MACs:     l.MACs(in),
			Attrs:    map[string]float64{},
		}
		for _, p := range l.Params() {
			spec.WeightElems += len(p.Data)
		}
		for _, s := range layerState(l) {
			spec.WeightElems += len(s.Data)
		}
		switch v := l.(type) {
		case *Dense:
			spec.Attrs["units"] = float64(v.Units)
			spec.Attrs["activation"] = float64(v.Act)
		case *Conv2D:
			spec.Attrs["filters"] = float64(v.Filters)
			spec.Attrs["kernel"] = float64(v.Kernel)
			spec.Attrs["stride"] = float64(v.Stride)
			spec.Attrs["padding"] = float64(v.Pad)
			spec.Attrs["activation"] = float64(v.Act)
		case *DepthwiseConv2D:
			spec.Attrs["kernel"] = float64(v.Kernel)
			spec.Attrs["stride"] = float64(v.Stride)
			spec.Attrs["padding"] = float64(v.Pad)
			spec.Attrs["activation"] = float64(v.Act)
		case *Conv1D:
			spec.Attrs["filters"] = float64(v.Filters)
			spec.Attrs["kernel"] = float64(v.Kernel)
			spec.Attrs["stride"] = float64(v.Stride)
			spec.Attrs["padding"] = float64(v.Pad)
			spec.Attrs["activation"] = float64(v.Act)
		case *MaxPool2D:
			spec.Attrs["size"] = float64(v.Size)
			spec.Attrs["stride"] = float64(v.Stride)
		case *AvgPool2D:
			spec.Attrs["size"] = float64(v.Size)
			spec.Attrs["stride"] = float64(v.Stride)
		case *MaxPool1D:
			spec.Attrs["size"] = float64(v.Size)
			spec.Attrs["stride"] = float64(v.Stride)
		case *Dropout:
			spec.Attrs["rate"] = float64(v.Rate)
		case *BatchNorm:
			spec.Attrs["eps"] = float64(v.Eps)
		case *Reshape:
			for d, n := range v.Target {
				spec.Attrs[fmt.Sprintf("dim%d", d)] = float64(n)
			}
			spec.Attrs["rank"] = float64(len(v.Target))
		}
		specs = append(specs, spec)
		in = out
	}
	return specs, nil
}

// layerState returns non-trainable tensors that must be serialized with
// the layer (batchnorm moving statistics).
func layerState(l Layer) []*tensor.F32 {
	if bn, ok := l.(*BatchNorm); ok && bn.Mean != nil {
		return []*tensor.F32{bn.Mean, bn.Var}
	}
	return nil
}

// sizeAttrs are, per kind, the attributes a layer's geometry is built
// from. A serialized spec must hold each as a whole number from 1 to
// MaxInt32, or its constructor would see a wrapped value and OutShape
// could divide by zero.
var sizeAttrs = map[string][]string{
	"dense":            {"units"},
	"conv2d":           {"filters", "kernel", "stride"},
	"depthwise_conv2d": {"kernel", "stride"},
	"conv1d":           {"filters", "kernel", "stride"},
	"maxpool2d":        {"size", "stride"},
	"avgpool2d":        {"size", "stride"},
	"maxpool1d":        {"size", "stride"},
}

// wholeSize reports whether v is a whole number from 1 to MaxInt32.
func wholeSize(v float64) bool { return v >= 1 && v <= math.MaxInt32 && v == math.Trunc(v) }

// layerFromSpec reconstructs an untrained layer from its spec.
func layerFromSpec(s OpSpec) (Layer, error) {
	a := func(k string) int { return int(s.Attrs[k]) }
	for _, k := range sizeAttrs[s.Kind] {
		if !wholeSize(s.Attrs[k]) {
			return nil, fmt.Errorf("nn: %s spec has %s %v", s.Kind, k, s.Attrs[k])
		}
	}
	switch s.Kind {
	case "dense":
		return NewDense(a("units"), Activation(a("activation"))), nil
	case "conv2d":
		return NewConv2D(a("filters"), a("kernel"), a("stride"), Padding(a("padding")), Activation(a("activation"))), nil
	case "depthwise_conv2d":
		return NewDepthwiseConv2D(a("kernel"), a("stride"), Padding(a("padding")), Activation(a("activation"))), nil
	case "conv1d":
		return NewConv1D(a("filters"), a("kernel"), a("stride"), Padding(a("padding")), Activation(a("activation"))), nil
	case "maxpool2d":
		return NewMaxPool2D(a("size"), a("stride")), nil
	case "avgpool2d":
		return NewAvgPool2D(a("size"), a("stride")), nil
	case "maxpool1d":
		return NewMaxPool1D(a("size"), a("stride")), nil
	case "gap2d":
		return NewGlobalAvgPool2D(), nil
	case "flatten":
		return NewFlatten(), nil
	case "softmax":
		return NewSoftmax(), nil
	case "dropout":
		return NewDropout(float32(s.Attrs["rate"])), nil
	case "batchnorm":
		bn := NewBatchNorm()
		if e, ok := s.Attrs["eps"]; ok {
			bn.Eps = float32(e)
		}
		return bn, nil
	case "reshape":
		rank, elems := a("rank"), 1.0
		if !wholeSize(s.Attrs["rank"]) || rank >= len(s.Attrs) {
			return nil, fmt.Errorf("nn: reshape spec has rank %v", s.Attrs["rank"])
		}
		target := make([]int, rank)
		for d := range target {
			v := s.Attrs[fmt.Sprintf("dim%d", d)]
			if elems *= v; !wholeSize(v) || elems > math.MaxInt32 {
				return nil, fmt.Errorf("nn: reshape spec has dim%d %v", d, v)
			}
			target[d] = int(v)
		}
		return NewReshape(target...), nil
	default:
		return nil, fmt.Errorf("nn: unknown op kind %q", s.Kind)
	}
}

// CheckSpec reports a spec whose layer cannot be built from its
// attributes, or whose OutShape is not what that layer makes of its
// InShape. Kernels that run a spec as it is serialized (the int8 ops)
// index by these shapes, so a spec read from a file or a peer is
// checked before it runs.
func CheckSpec(s OpSpec) error {
	if !s.InShape.Valid() {
		return fmt.Errorf("nn: %s spec: invalid input shape %v", s.Kind, s.InShape)
	}
	l, err := layerFromSpec(s)
	if err != nil {
		return err
	}
	out, err := l.OutShape(s.InShape)
	if err != nil {
		return fmt.Errorf("nn: %s spec: %w", s.Kind, err)
	}
	if !out.Equal(s.OutShape) {
		return fmt.Errorf("nn: %s spec maps %v to %v, not %v", s.Kind, s.InShape, out, s.OutShape)
	}
	return nil
}

// ModelFromSpecs reconstructs a full (untrained) model from specs. A
// layer that would hold more weights than its spec's WeightElems is
// refused before it is built: specs arrive in files and from peers, and
// must not size an allocation beyond the weights they carry.
func ModelFromSpecs(inputShape tensor.Shape, specs []OpSpec, numClasses int) (*Model, error) {
	if !inputShape.Valid() {
		return nil, fmt.Errorf("nn: invalid input shape %v", inputShape)
	}
	m := NewModel(inputShape...)
	m.NumClasses = numClasses
	in := inputShape
	for i, s := range specs {
		l, err := layerFromSpec(s)
		if err != nil {
			return nil, err
		}
		out, err := l.OutShape(in)
		if err == nil && !out.Valid() {
			err = fmt.Errorf("invalid output shape %v", out)
		}
		if err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Kind(), err)
		}
		if n := buildElems(l, in); n > float64(s.WeightElems) {
			return nil, fmt.Errorf("layer %d (%s): holds %.0f weights, its spec %d", i, l.Kind(), n, s.WeightElems)
		}
		m.Add(l)
		in = out
	}
	return m, nil
}

// buildElems is how many weight values Model.Add allocates for l on
// input shape in (parameters and frozen state), computed in float64 so
// that no attribute can overflow it.
func buildElems(l Layer, in tensor.Shape) float64 {
	cin := float64(in[len(in)-1])
	switch v := l.(type) {
	case *Dense:
		return (cin + 1) * float64(v.Units)
	case *Conv2D:
		return (float64(v.Kernel)*float64(v.Kernel)*cin + 1) * float64(v.Filters)
	case *Conv1D:
		return (float64(v.Kernel)*cin + 1) * float64(v.Filters)
	case *DepthwiseConv2D:
		return (float64(v.Kernel)*float64(v.Kernel) + 1) * cin
	case *BatchNorm:
		return 4 * cin
	}
	return 0
}

// SerializableTensors returns, in a stable order, every tensor that must
// round-trip through model serialization: trainable params plus frozen
// state.
func SerializableTensors(m *Model) []*tensor.F32 {
	var out []*tensor.F32
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
		out = append(out, layerState(l)...)
	}
	return out
}

// copyWeights copies all serializable tensors from src to dst; the models
// must have identical architecture.
func copyWeights(dst, src *Model) error {
	ds := SerializableTensors(dst)
	ss := SerializableTensors(src)
	if len(ds) != len(ss) {
		return fmt.Errorf("nn: tensor count mismatch %d vs %d", len(ds), len(ss))
	}
	for i := range ds {
		if len(ds[i].Data) != len(ss[i].Data) {
			return fmt.Errorf("nn: tensor %d size mismatch %d vs %d", i, len(ds[i].Data), len(ss[i].Data))
		}
		copy(ds[i].Data, ss[i].Data)
	}
	return nil
}

// Clone deep-copies a model (architecture + weights). The clone shares no
// state with the original, so both can train or serve independently.
func (m *Model) Clone() (*Model, error) {
	specs, err := m.Spec()
	if err != nil {
		return nil, err
	}
	c, err := ModelFromSpecs(m.InputShape, specs, m.NumClasses)
	if err != nil {
		return nil, err
	}
	if err := copyWeights(c, m); err != nil {
		return nil, err
	}
	return c, nil
}

package tflm

import (
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

// opRegistry maps op kinds to float kernels, resolved by name at every
// Invoke — the runtime dispatch the EON compiler eliminates. All builtin
// kinds delegate to the layer's stateless InferInto; the registry exists
// to model (and measure, in benchmarks) interpreter-style indirection,
// and to let tests register custom ops. Int8 ops resolve the same way,
// per op per call, through package quant's kernel table.
var opRegistry = map[string]nn.FloatKernel{}

// RegisterKernel installs a kernel for an op kind, replacing any builtin.
// It returns a function restoring the previous registration.
func RegisterKernel(kind string, k nn.FloatKernel) func() {
	prev, had := opRegistry[kind]
	opRegistry[kind] = k
	return func() {
		if had {
			opRegistry[kind] = prev
		} else {
			delete(opRegistry, kind)
		}
	}
}

func init() {
	for _, kind := range []string{
		"dense", "conv2d", "depthwise_conv2d", "conv1d",
		"maxpool2d", "avgpool2d", "maxpool1d", "gap2d",
		"softmax", "batchnorm",
	} {
		opRegistry[kind] = nn.InferKernel
	}
}

// Interpreter executes a ModelFile on the shared executor the way an
// interpreter engine does: every op's kernel is resolved from a
// registry at call time, and activations live in an arena with one slot
// per op (no lifetime reuse — the planning the EON compiler performs).
type Interpreter struct{ Runner }

// NewInterpreter validates the model and prepares it for execution.
func NewInterpreter(mf *ModelFile) (*Interpreter, error) {
	exec, err := mf.NewExecutor(nn.Layout{}, nn.ResolvePerCall, func(kind string) nn.FloatKernel { return opRegistry[kind] })
	if err != nil {
		return nil, err
	}
	return &Interpreter{exec}, nil
}

// Invoke runs one inference and returns class probabilities. The result
// never aliases interpreter state, and concurrent Invoke calls are safe.
func (it *Interpreter) Invoke(in *tensor.F32) (*tensor.F32, error) { return it.Run(in) }

// ModelFileFromFloat wraps a trained float model for serialization.
func ModelFileFromFloat(m *nn.Model) *ModelFile {
	return &ModelFile{Precision: Float32, NumClasses: m.NumClasses, Float: m}
}

// ModelFileFromQuant wraps a quantized model for serialization.
func ModelFileFromQuant(qm *quant.QModel) *ModelFile {
	return &ModelFile{Precision: Int8, NumClasses: qm.NumClasses, Quant: qm}
}

package tflm

import (
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

// Interpreter executes a ModelFile on the shared executor the way an
// interpreter engine does: every op's kernel is looked up by kind in
// its precision's kernel table on every Invoke — the runtime dispatch
// the EON compiler eliminates. Its activations live in the same
// liveness-planned arena as the compiled program's, as TFLM's greedy
// memory planner places them.
type Interpreter struct{ Runner }

// NewInterpreter validates the model and prepares it for execution.
func NewInterpreter(mf *ModelFile) (*Interpreter, error) {
	exec, err := mf.NewExecutor(nn.ResolvePerCall)
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

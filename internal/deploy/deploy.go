// Package deploy packages a designed impulse for its deployment targets
// (paper Sec. 4.6): a standalone C++ library (EON-compiled model plus DSP
// configuration), an Arduino library and a WebAssembly bundle. The EIM
// for Linux targets is the impulse artefact itself
// (core.Impulse.MarshalArtifact), which the eim package executes behind
// a socket protocol.
package deploy

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"edgepulse/internal/core"
	"edgepulse/internal/eon"
	"edgepulse/internal/tflm"
)

// Artifact is one deployment bundle: a set of generated files.
type Artifact struct {
	// Kind identifies the target ("cpp", "arduino", "wasm").
	Kind string
	// Files maps relative paths to contents.
	Files map[string][]byte
}

// FileNames returns the artifact's paths in sorted order.
func (a Artifact) FileNames() []string {
	out := make([]string, 0, len(a.Files))
	for n := range a.Files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// modelFile validates the impulse and picks the requested precision
// from it.
func modelFile(imp *core.Impulse, quantized bool) (*tflm.ModelFile, error) {
	if err := imp.Validate(); err != nil {
		return nil, err
	}
	if quantized {
		if imp.QModel == nil {
			return nil, fmt.Errorf("deploy: impulse has no quantized model (run Quantize first)")
		}
		return tflm.ModelFileFromQuant(imp.QModel), nil
	}
	if imp.Model == nil {
		return nil, fmt.Errorf("deploy: impulse has no trained model")
	}
	return tflm.ModelFileFromFloat(imp.Model), nil
}

// dspHeader renders the DSP block graph configuration as a C header:
// per-block type/param defines plus the offset table locating each
// block's output inside the composite feature vector. Single-block
// impulses additionally keep the legacy unnumbered defines.
func dspHeader(imp *core.Impulse) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "// Generated DSP configuration for impulse %q. Do not edit.\n", imp.Name)
	b.WriteString("#ifndef EP_DSP_CONFIG_H\n#define EP_DSP_CONFIG_H\n\n")
	fmt.Fprintf(&b, "#define EP_DSP_BLOCK_COUNT %d\n", len(imp.DSP))
	layout, _ := imp.Layout()
	writeParams := func(prefix string, params map[string]float64) {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "#define %s%s %g\n", prefix, strings.ToUpper(k), params[k])
		}
	}
	for i, inst := range imp.DSP {
		fmt.Fprintf(&b, "\n#define EP_DSP_BLOCK_%d_TYPE \"%s\"\n", i, inst.Block.Name())
		fmt.Fprintf(&b, "#define EP_DSP_BLOCK_%d_NAME \"%s\"\n", i, inst.Name)
		if layout != nil {
			seg := layout.Segments[i]
			fmt.Fprintf(&b, "#define EP_DSP_BLOCK_%d_OFFSET %d\n", i, seg.Offset)
			fmt.Fprintf(&b, "#define EP_DSP_BLOCK_%d_SIZE %d\n", i, seg.Len)
		}
		if len(inst.Axes) > 0 {
			axes := make([]string, len(inst.Axes))
			for j, a := range inst.Axes {
				axes[j] = fmt.Sprint(a)
			}
			fmt.Fprintf(&b, "#define EP_DSP_BLOCK_%d_AXES {%s}\n", i, strings.Join(axes, ", "))
		}
		writeParams(fmt.Sprintf("EP_DSP_%d_", i), inst.Block.Params())
	}
	if len(imp.DSP) == 1 {
		fmt.Fprintf(&b, "\n#define EP_DSP_BLOCK \"%s\"\n", imp.DSP[0].Block.Name())
		writeParams("EP_DSP_", imp.DSP[0].Block.Params())
	}
	shape, _ := imp.FeatureShape()
	fmt.Fprintf(&b, "\n#define EP_FEATURE_COUNT %d\n", shape.Elems())
	fmt.Fprintf(&b, "\n#endif // EP_DSP_CONFIG_H\n")
	return []byte(b.String())
}

// classesHeader renders the label list as a C header.
func classesHeader(imp *core.Impulse) []byte {
	var b strings.Builder
	b.WriteString("// Generated label list. Do not edit.\n")
	fmt.Fprintf(&b, "#define EP_CLASS_COUNT %d\n", len(imp.Classes))
	b.WriteString("static const char *ep_classes[] = {")
	for i, c := range imp.Classes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q", c)
	}
	b.WriteString("};\n")
	return []byte(b.String())
}

// CPPLibrary generates the standalone C++ inferencing library: the
// EON-compiled model, the DSP configuration, the label table and a
// run_classifier entry point.
func CPPLibrary(imp *core.Impulse, quantized bool) (Artifact, error) {
	mf, err := modelFile(imp, quantized)
	if err != nil {
		return Artifact{}, err
	}
	cpp, err := eon.EmitCPP(mf, sanitize(imp.Name))
	if err != nil {
		return Artifact{}, err
	}
	name := sanitize(imp.Name)
	files := map[string][]byte{
		"edgepulse/" + name + "_model.h":   []byte(cpp.Header),
		"edgepulse/" + name + "_model.cpp": []byte(cpp.Source),
		"edgepulse/dsp_config.h":           dspHeader(imp),
		"edgepulse/model_metadata.h":       classesHeader(imp),
		"edgepulse/run_classifier.h":       []byte(runClassifierHeader(name)),
	}
	return Artifact{Kind: "cpp", Files: files}, nil
}

func runClassifierHeader(name string) string {
	return fmt.Sprintf(`// Generated SDK entry point. Do not edit.
#ifndef EP_RUN_CLASSIFIER_H
#define EP_RUN_CLASSIFIER_H

#include "dsp_config.h"
#include "%s_model.h"

typedef struct {
    float value[EP_CLASS_COUNT];
    float anomaly;
    int dsp_us;
    int classification_us;
} ep_result_t;

int run_classifier(const float *raw, int raw_len, ep_result_t *result);

#endif // EP_RUN_CLASSIFIER_H
`, name)
}

// ArduinoLibrary wraps the C++ library in an Arduino package layout with
// library.properties and an example sketch.
func ArduinoLibrary(imp *core.Impulse, quantized bool) (Artifact, error) {
	cpp, err := CPPLibrary(imp, quantized)
	if err != nil {
		return Artifact{}, err
	}
	name := sanitize(imp.Name)
	files := map[string][]byte{}
	for p, c := range cpp.Files {
		files["src/"+p] = c
	}
	files["library.properties"] = []byte(fmt.Sprintf(
		"name=%s_inferencing\nversion=1.0.0\nauthor=edgepulse\nsentence=Edge inferencing library for %s\nparagraph=Generated by the edgepulse platform.\ncategory=Data Processing\narchitectures=*\n",
		name, imp.Name))
	files["examples/static_buffer/static_buffer.ino"] = []byte(fmt.Sprintf(`// Minimal example: classify a static feature buffer.
#include <%s_inferencing.h>

static const float features[EP_FEATURE_COUNT] = {0};

void setup() {
    Serial.begin(115200);
}

void loop() {
    ep_result_t result;
    run_classifier(features, EP_FEATURE_COUNT, &result);
    for (int i = 0; i < EP_CLASS_COUNT; i++) {
        Serial.print(ep_classes[i]);
        Serial.print(": ");
        Serial.println(result.value[i]);
    }
    delay(1000);
}
`, name))
	return Artifact{Kind: "arduino", Files: files}, nil
}

// WASM generates a WebAssembly deployment bundle: the serialized model
// plus a JavaScript loader exposing classify().
func WASM(imp *core.Impulse, quantized bool) (Artifact, error) {
	mf, err := modelFile(imp, quantized)
	if err != nil {
		return Artifact{}, err
	}
	blob, err := tflm.Marshal(mf)
	if err != nil {
		return Artifact{}, err
	}
	classes, _ := json.Marshal(imp.Classes)
	loader := fmt.Sprintf(`// Generated WebAssembly loader for impulse %q.
// The model binary (edgepulse_model.eptm) is instantiated by the runtime;
// classify(features) returns {label, scores}.
export const classes = %s;
export async function loadModel(fetchImpl) {
  const buf = await (await fetchImpl("edgepulse_model.eptm")).arrayBuffer();
  return { buf, classes };
}
`, imp.Name, classes)
	return Artifact{Kind: "wasm", Files: map[string][]byte{
		"edgepulse_model.eptm": blob,
		"edgepulse.js":         []byte(loader),
	}}, nil
}

func sanitize(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "impulse"
	}
	return b.String()
}

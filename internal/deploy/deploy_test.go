package deploy

import (
	"math"
	"strings"
	"testing"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
)

// deployableImpulse returns a small trained + quantized impulse.
func deployableImpulse(t testing.TB) (*core.Impulse, *data.Dataset) {
	t.Helper()
	ds, err := synth.KWSDataset(2, 10, 8000, 0.5, 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	imp := core.New("KWS Demo")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1}
	block, err := dsp.New("mfe", map[string]float64{"num_filters": 16, "fft_length": 128})
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = ds.Labels()
	shape, _ := imp.FeatureShape()
	model, err := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, len(imp.Classes))
	if err != nil {
		t.Fatal(err)
	}
	nn.InitWeights(model, 2)
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	if _, err := imp.Train(ds, trainer.Config{Epochs: 4, LearningRate: 0.005, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := imp.Quantize(ds); err != nil {
		t.Fatal(err)
	}
	return imp, ds
}

func TestCPPLibraryContents(t *testing.T) {
	imp, _ := deployableImpulse(t)
	art, err := CPPLibrary(imp, false)
	if err != nil {
		t.Fatal(err)
	}
	if art.Kind != "cpp" {
		t.Fatal("kind")
	}
	names := art.FileNames()
	want := []string{
		"edgepulse/dsp_config.h",
		"edgepulse/kws_demo_model.cpp",
		"edgepulse/kws_demo_model.h",
		"edgepulse/model_metadata.h",
		"edgepulse/run_classifier.h",
	}
	if len(names) != len(want) {
		t.Fatalf("files: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("file %d = %s, want %s", i, names[i], want[i])
		}
	}
	dspCfg := string(art.Files["edgepulse/dsp_config.h"])
	if !strings.Contains(dspCfg, "EP_DSP_BLOCK \"mfe\"") || !strings.Contains(dspCfg, "EP_DSP_NUM_FILTERS 16") {
		t.Errorf("dsp config:\n%s", dspCfg)
	}
	meta := string(art.Files["edgepulse/model_metadata.h"])
	if !strings.Contains(meta, "EP_CLASS_COUNT 2") {
		t.Errorf("metadata:\n%s", meta)
	}
	runner := string(art.Files["edgepulse/run_classifier.h"])
	if !strings.Contains(runner, "int run_classifier(") {
		t.Error("missing run_classifier declaration")
	}
}

func TestCPPLibraryQuantized(t *testing.T) {
	imp, _ := deployableImpulse(t)
	art, err := CPPLibrary(imp, true)
	if err != nil {
		t.Fatal(err)
	}
	src := string(art.Files["edgepulse/kws_demo_model.cpp"])
	if !strings.Contains(src, "int8_t") {
		t.Error("quantized source has no int8 arrays")
	}
	// Untrained/unquantized impulses are rejected.
	imp.QModel = nil
	if _, err := CPPLibrary(imp, true); err == nil {
		t.Error("accepted missing quantized model")
	}
}

func TestArduinoLibraryLayout(t *testing.T) {
	imp, _ := deployableImpulse(t)
	art, err := ArduinoLibrary(imp, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := art.Files["library.properties"]; !ok {
		t.Error("missing library.properties")
	}
	if _, ok := art.Files["examples/static_buffer/static_buffer.ino"]; !ok {
		t.Error("missing example sketch")
	}
	found := false
	for name := range art.Files {
		if strings.HasPrefix(name, "src/edgepulse/") {
			found = true
		}
	}
	if !found {
		t.Error("sources not nested under src/")
	}
	props := string(art.Files["library.properties"])
	if !strings.Contains(props, "name=kws_demo_inferencing") {
		t.Errorf("properties:\n%s", props)
	}
}

func TestWASMBundle(t *testing.T) {
	imp, _ := deployableImpulse(t)
	art, err := WASM(imp, false)
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := art.Files["edgepulse_model.eptm"]
	if !ok || len(blob) == 0 {
		t.Fatal("missing model blob")
	}
	js := string(art.Files["edgepulse.js"])
	if !strings.Contains(js, "export async function loadModel") {
		t.Error("loader missing export")
	}
}

// The EIM deployment is the impulse artefact (core.MarshalArtifact).
func TestEIMRoundTrip(t *testing.T) {
	imp, ds := deployableImpulse(t)
	blob, err := imp.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.ParseArtifact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != imp.Name || len(back.Classes) != 2 {
		t.Fatalf("reconstructed: %+v", back.Config())
	}
	if back.QModel == nil {
		t.Fatal("quantized model lost")
	}
	// The reconstructed impulse classifies identically.
	agree := 0
	var tests []*data.Sample
	for _, h := range ds.List(data.Testing) {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		tests = append(tests, s)
	}
	for _, s := range tests {
		a, err := imp.Classify(s.Signal)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Classify(s.Signal)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label == b.Label {
			agree++
		}
		for cl := range a.Scores {
			if math.Abs(float64(a.Scores[cl]-b.Scores[cl])) > 1e-5 {
				t.Fatalf("scores diverge for %s: %v vs %v", cl, a.Scores, b.Scores)
			}
		}
	}
	if agree != len(tests) {
		t.Fatalf("agreement %d/%d", agree, len(tests))
	}
}

func TestEIMWithoutQuantized(t *testing.T) {
	imp, _ := deployableImpulse(t)
	imp.QModel = nil
	blob, err := imp.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.ParseArtifact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.QModel != nil {
		t.Fatal("phantom quantized model")
	}
}

func TestParseEIMGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XX"),
		[]byte("NOPE"),
		[]byte("EPIM"),
		[]byte("EPIM\xff\xff\xff\xff"),
		[]byte("EPIM\x02\x00\x00\x00{}"),
	}
	for i, c := range cases {
		if _, err := core.ParseArtifact(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBuildEIMValidation(t *testing.T) {
	imp := core.New("untrained")
	if _, err := imp.MarshalArtifact(); err == nil {
		t.Error("accepted unconfigured impulse")
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"KWS Demo": "kws_demo",
		"a-b.c":    "a_b_c",
		"UPPER":    "upper",
		"":         "impulse",
		"123 go":   "123_go",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

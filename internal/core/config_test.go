package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"edgepulse/internal/dsp"
)

func golden(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestParseConfigV1Golden(t *testing.T) {
	c, err := ParseConfig(golden(t, "impulse_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != ConfigVersion {
		t.Fatalf("migrated version = %d, want %d", c.Version, ConfigVersion)
	}
	if len(c.DSP) != 1 || c.DSP[0].Type != "mfe" || c.DSP[0].Name != "mfe" {
		t.Fatalf("migrated dsp: %+v", c.DSP)
	}
	if c.DSP[0].Params["num_filters"] != 16 {
		t.Fatalf("migrated params: %v", c.DSP[0].Params)
	}
	// classes → classification block, anomaly_clusters → anomaly block.
	if len(c.Learn) != 2 {
		t.Fatalf("migrated learn blocks: %+v", c.Learn)
	}
	if c.Learn[0].Type != LearnClassification || c.Learn[1].Type != LearnAnomaly {
		t.Fatalf("migrated learn types: %+v", c.Learn)
	}
	if c.Learn[1].Params["clusters"] != 2 {
		t.Fatalf("anomaly clusters: %v", c.Learn[1].Params)
	}
}

func TestParseConfigV2Golden(t *testing.T) {
	c, err := ParseConfig(golden(t, "impulse_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.DSP) != 2 || c.DSP[0].Name != "vibration" || c.DSP[1].Name != "audio" {
		t.Fatalf("dsp blocks: %+v", c.DSP)
	}
	if !reflect.DeepEqual(c.DSP[0].Axes, []int{0, 1, 2}) || !reflect.DeepEqual(c.DSP[1].Axes, []int{3}) {
		t.Fatalf("axes selections: %+v", c.DSP)
	}
	imp, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	// spectral 3*(3+8)=33 + mfe 25*16=400.
	if !shape.Equal([]int{433}) {
		t.Fatalf("composite shape %v", shape)
	}
	layout, err := imp.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if layout.Segments[0].Offset != 0 || layout.Segments[0].Len != 33 ||
		layout.Segments[1].Offset != 33 || layout.Segments[1].Len != 400 {
		t.Fatalf("offset table: %+v", layout.Segments)
	}
}

func TestParseConfigRejectsUnknownFields(t *testing.T) {
	// v1 schema with a typo'd field.
	if _, err := ParseConfig([]byte(`{"name":"x","input":{"kind":"time-series","window_ms":100,"frequency_hz":100,"axes":1},"dsp_nmae":"mfe"}`)); err == nil {
		t.Error("v1 unknown field accepted")
	}
	// v2 schema with an unknown field.
	if _, err := ParseConfig([]byte(`{"version":2,"name":"x","input":{"kind":"time-series","window_ms":100,"frequency_hz":100,"axes":1},"dsp":[{"type":"raw"}],"extra":true}`)); err == nil {
		t.Error("v2 unknown field accepted")
	}
	// v2-shaped payload without a version stamp must not silently parse.
	if _, err := ParseConfig([]byte(`{"name":"x","input":{"kind":"time-series","window_ms":100,"frequency_hz":100,"axes":1},"dsp":[{"type":"raw"}]}`)); err == nil {
		t.Error("unversioned v2 payload accepted as v1")
	}
}

func TestParseConfigRejectsUnknownVersion(t *testing.T) {
	for _, v := range []string{"0", "3", "-1", "99"} {
		if _, err := ParseConfig([]byte(`{"version":` + v + `,"name":"x"}`)); err == nil {
			t.Errorf("version %s accepted", v)
		} else if !strings.Contains(err.Error(), "version") {
			t.Errorf("version %s: unhelpful error %v", v, err)
		}
	}
}

// TestConfigIdempotence checks Config()/FromConfig fixed points: an
// impulse built from a parsed design emits exactly the same design.
func TestConfigIdempotence(t *testing.T) {
	for _, fixture := range []string{"impulse_v1.json", "impulse_v2.json"} {
		c, err := ParseConfig(golden(t, fixture))
		if err != nil {
			t.Fatal(err)
		}
		imp, err := FromConfig(c)
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		first := imp.Config()
		imp2, err := FromConfig(first)
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		second := imp2.Config()
		b1, _ := json.Marshal(first)
		b2, _ := json.Marshal(second)
		if string(b1) != string(b2) {
			t.Errorf("%s: Config()/FromConfig not idempotent:\n%s\n%s", fixture, b1, b2)
		}
	}
}

// TestMigrationRoundTrip checks a migrated v1 design re-marshals as v2
// and keeps loading, and that the v1 impulse's features and
// classification are bitwise identical to the legacy single-block path
// (the block run directly).
func TestMigrationRoundTrip(t *testing.T) {
	c, err := ParseConfig(golden(t, "impulse_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	imp, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(imp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseConfig(blob)
	if err != nil {
		t.Fatalf("re-parsing emitted v2: %v", err)
	}
	if again.Version != ConfigVersion {
		t.Fatalf("round-trip version %d", again.Version)
	}
	imp2, err := FromConfig(again)
	if err != nil {
		t.Fatal(err)
	}

	// Bitwise feature identity vs. running the block directly.
	rng := rand.New(rand.NewSource(9))
	raw := make([]float32, imp.Input.WindowSamples())
	for i := range raw {
		raw[i] = float32(math.Sin(float64(i)/7) + 0.1*rng.NormFloat64())
	}
	sig := dsp.Signal{Data: raw, Rate: imp.Input.FrequencyHz, Axes: 1}
	block, err := dsp.New("mfe", map[string]float64{"num_filters": 16, "fft_length": 128})
	if err != nil {
		t.Fatal(err)
	}
	want, err := block.Extract(sig)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range []*Impulse{imp, imp2} {
		got, err := cand.Features(sig)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Shape.Equal(want.Shape) {
			t.Fatalf("feature shape %v != %v", got.Shape, want.Shape)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("feature %d differs: %v != %v", i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestFusionComposite checks that the multi-block composite vector is
// exactly the concatenation of each block's own output over its axis
// selection, per the offset table.
func TestFusionComposite(t *testing.T) {
	c, err := ParseConfig(golden(t, "impulse_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	imp, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	frames := imp.Input.WindowSamples()
	raw := make([]float32, frames*4)
	for i := range raw {
		raw[i] = float32(rng.NormFloat64())
	}
	sig := dsp.Signal{Data: raw, Rate: imp.Input.FrequencyHz, Axes: 4}
	composite, err := imp.Features(sig)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := imp.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if len(composite.Data) != layout.Total {
		t.Fatalf("composite %d != layout total %d", len(composite.Data), layout.Total)
	}
	for i, inst := range imp.DSP {
		sub := subSignal(sig, inst.Axes)
		want, err := inst.Block.Extract(sub)
		if err != nil {
			t.Fatal(err)
		}
		seg := layout.Segments[i]
		for j := range want.Data {
			if composite.Data[seg.Offset+j] != want.Data[j] {
				t.Fatalf("block %q feature %d differs", inst.Name, j)
			}
		}
	}

	// Learn views: the classifier fuses both segments, the anomaly
	// block sees only the vibration segment.
	spec, ok := imp.classifierSpec()
	if !ok {
		t.Fatal("no classifier spec")
	}
	cshape, err := imp.LearnShape(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cshape.Equal([]int{433}) {
		t.Fatalf("classifier shape %v", cshape)
	}
	aspec, ok := imp.AnomalySpec()
	if !ok {
		t.Fatal("no anomaly spec")
	}
	av, err := imp.LearnFeatures(aspec, sig)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := layout.Segment("vibration")
	if len(av.Data) != seg.Len {
		t.Fatalf("anomaly view %d != vibration segment %d", len(av.Data), seg.Len)
	}
	for j := range av.Data {
		if av.Data[j] != composite.Data[seg.Offset+j] {
			t.Fatalf("anomaly view feature %d differs", j)
		}
	}
}

// TestLayoutCacheInvalidation checks the offset table tracks direct
// design mutation (library callers assign fields, no setters).
func TestLayoutCacheInvalidation(t *testing.T) {
	c, err := ParseConfig(golden(t, "impulse_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	imp, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := imp.Layout()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := imp.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Error("layout not cached across calls")
	}
	// Drop the audio block: the layout must shrink.
	imp.DSP = imp.DSP[:1]
	l3, err := imp.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if l3 == l1 || l3.Total != 33 || len(l3.Segments) != 1 {
		t.Fatalf("stale layout after mutation: %+v", l3)
	}
}

// TestLayoutTracksInputAndBlockFields: the cached offset table follows
// an assignment to the input block and to a DSP block's exported
// fields, not only to the DSP list.
func TestLayoutTracksInputAndBlockFields(t *testing.T) {
	mfcc, err := dsp.NewMFCC(nil)
	if err != nil {
		t.Fatal(err)
	}
	imp := New("x").UseDSP(mfcc)
	imp.Input = InputBlock{Kind: TimeSeries, WindowMS: 1000, FrequencyHz: 16000, Axes: 1}
	total := func() int {
		t.Helper()
		l, err := imp.Layout()
		if err != nil {
			t.Fatal(err)
		}
		return l.Total
	}
	before := total()
	mfcc.NumCoeffs++
	if got, want := total(), before/13*14; got != want {
		t.Errorf("after NumCoeffs 13 -> 14: layout total %d, want %d", got, want)
	}
	imp.Input.WindowMS = 500
	if got := total(); got >= before {
		t.Errorf("after halving the window: layout total %d, was %d", got, before)
	}
}

func TestInputBlockImageAxesNormalized(t *testing.T) {
	b := InputBlock{Kind: ImageInput, Width: 32, Height: 32}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Axes != 3 {
		t.Fatalf("axes not normalized: %d", b.Axes)
	}
	bad := InputBlock{Kind: ImageInput, Width: 32, Height: 32, Axes: 2}
	if err := bad.Validate(); err == nil {
		t.Error("2-channel image accepted")
	}
	// FromConfig normalizes, so shape queries and extraction agree.
	imp, err := FromConfig(Config{
		Name:  "vision",
		Input: InputBlock{Kind: ImageInput, Width: 32, Height: 32},
		DSP:   []DSPBlockSpec{{Type: "image", Params: map[string]float64{"width": 16, "height": 16}}},
		Learn: []LearnBlockSpec{{Type: LearnClassification}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if imp.Input.Axes != 3 {
		t.Fatalf("impulse input axes %d", imp.Input.Axes)
	}
	if len(imp.CanonicalSignal().Data) != 32*32*3 {
		t.Fatalf("canonical signal length %d", len(imp.CanonicalSignal().Data))
	}
}

func TestDesignValidation(t *testing.T) {
	input := InputBlock{Kind: TimeSeries, WindowMS: 500, FrequencyHz: 4000, Axes: 2}
	base := func() Config {
		return Config{
			Name:    "x",
			Input:   input,
			DSP:     []DSPBlockSpec{{Type: "raw"}},
			Classes: []string{"a", "b"},
		}
	}
	// Axis out of range.
	c := base()
	c.DSP[0].Axes = []int{2}
	if _, err := FromConfig(c); err == nil {
		t.Error("out-of-range axis accepted")
	}
	// Duplicate axis.
	c = base()
	c.DSP[0].Axes = []int{1, 1}
	if _, err := FromConfig(c); err == nil {
		t.Error("duplicate axis accepted")
	}
	// Duplicate explicit block names.
	c = base()
	c.DSP = []DSPBlockSpec{{Name: "a", Type: "raw"}, {Name: "a", Type: "flatten"}}
	if _, err := FromConfig(c); err == nil {
		t.Error("duplicate dsp names accepted")
	}
	// Unknown learn type.
	c = base()
	c.Learn = []LearnBlockSpec{{Type: "transformer"}}
	if _, err := FromConfig(c); err == nil {
		t.Error("unknown learn type accepted")
	}
	// Learn input referencing a missing block.
	c = base()
	c.Learn = []LearnBlockSpec{{Type: LearnClassification, Inputs: []string{"ghost"}}}
	if _, err := FromConfig(c); err == nil {
		t.Error("dangling learn input accepted")
	}
	// Two classifier heads exceed the runtime's single-model state.
	c = base()
	c.Learn = []LearnBlockSpec{{Name: "c1", Type: LearnClassification}, {Name: "c2", Type: LearnClassification}}
	if _, err := FromConfig(c); err == nil {
		t.Error("two classifier heads accepted")
	}
	// Unnamed duplicate types are auto-disambiguated.
	c = base()
	c.DSP = []DSPBlockSpec{{Type: "raw"}, {Type: "raw", Params: map[string]float64{"decimate": 2}}}
	imp, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if imp.DSP[0].Name != "raw" || imp.DSP[1].Name != "raw-2" {
		t.Fatalf("auto names: %q, %q", imp.DSP[0].Name, imp.DSP[1].Name)
	}
	// "regression" is not a learn type: the platform cannot train it.
	c = base()
	c.Learn = []LearnBlockSpec{{Type: "regression"}}
	if _, err := FromConfig(c); err == nil || !strings.Contains(err.Error(), "unknown learn block type") {
		t.Errorf("regression learn block: err = %v, want unknown learn block type", err)
	}
}

func TestCatalogsSorted(t *testing.T) {
	names := dsp.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("dsp.Names() not sorted: %v", names)
	}
	learn := LearnNames()
	if !sort.StringsAreSorted(learn) {
		t.Errorf("LearnNames() not sorted: %v", learn)
	}
	types := LearnTypes()
	for i, lt := range types {
		if lt.Type != learn[i] {
			t.Errorf("LearnTypes()[%d] = %q, want %q", i, lt.Type, learn[i])
		}
	}
	if len(learn) < 2 {
		t.Fatalf("expected at least anomaly/classification, got %v", learn)
	}
}

func TestDuplicateLearnInputsRejected(t *testing.T) {
	_, err := FromConfig(Config{
		Name:  "x",
		Input: InputBlock{Kind: TimeSeries, WindowMS: 500, FrequencyHz: 4000, Axes: 2},
		DSP:   []DSPBlockSpec{{Name: "a", Type: "raw"}, {Name: "b", Type: "flatten"}},
		Learn: []LearnBlockSpec{{Type: LearnClassification, Inputs: []string{"a", "a"}}},
	})
	if err == nil {
		t.Fatal("duplicate learn inputs accepted")
	}
}

func TestAddDSPDuplicateNamePanics(t *testing.T) {
	imp := New("x")
	block, err := dsp.New("raw", nil)
	if err != nil {
		t.Fatal(err)
	}
	imp.AddDSP("a", block)
	defer func() {
		if recover() == nil {
			t.Error("duplicate explicit AddDSP name did not panic")
		}
	}()
	imp.AddDSP("a", block)
}

package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edgepulse/internal/tensor"
)

// FuzzParseConfig hammers the impulse-design parser with adversarial
// JSON. ParseConfig guards the REST API's impulse endpoint, so it must
// never panic or blow up memory on hostile payloads, and any accepted
// design must be stable: deterministic across parses and re-parseable
// after normalization (the marshal→parse round trip the Studio performs
// on every GET /impulse).
//
// Seeded with the v1/v2 golden fixtures plus targeted edge shapes.
// CI runs it for 10s: go test -fuzz=FuzzParseConfig -fuzztime=10s ./internal/core
func FuzzParseConfig(f *testing.F) {
	for _, fixture := range []string{"impulse_v1.json", "impulse_v2.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", fixture))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version": 2}`))
	f.Add([]byte(`{"version": 99, "name": "x"}`))
	f.Add([]byte(`{"version": 2, "name": "x", "dsp": [{"type": "mfe"}, {"type": "mfe"}]}`))
	f.Add([]byte(`{"version": 2, "name": "x", "dsp": [{"name": "a", "type": "mfe", "axes": [0, -1, 9999999]}],
		"learn": [{"type": "anomaly", "inputs": ["a", "missing"], "params": {"clusters": 1e308}}]}`))
	f.Add([]byte(`{"name": "legacy", "dsp_name": "mfe", "dsp_params": {"num_filters": -1}, "anomaly_clusters": 3}`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`{"version": 2, "name": "` + string(make([]byte, 64)) + `"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return // rejection is fine; panicking or hanging is not
		}
		// Accepted configs are normalized v2.
		if cfg.Version != ConfigVersion {
			t.Fatalf("accepted config with version %d", cfg.Version)
		}
		// Determinism: parsing the same bytes twice yields the same value.
		again, err := ParseConfig(data)
		if err != nil {
			t.Fatalf("second parse of accepted input failed: %v", err)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("non-deterministic parse:\n%+v\n%+v", cfg, again)
		}
		// Round trip: the normalized form must marshal and re-parse to
		// itself (what GET /impulse serves must be POSTable back).
		blob, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		back, err := ParseConfig(blob)
		if err != nil {
			t.Fatalf("normalized config does not re-parse: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("round trip drift:\n%+v\n%+v", cfg, back)
		}
	})
}

// FuzzParseArtifact hammers the impulse artefact loader, which reads a
// project's impulse.eim, the bytes a follower gets from its leader and
// a downloaded model.eim (so tflm.Unmarshal on both precisions). It
// must never panic, every impulse it accepts must hold models that fit
// the design in both precisions, and what it accepts must marshal back
// to an artefact that loads.
//
// Seeded with a design-only, a float, a float+int8 and an anomaly
// artefact, and a three-chunk model.eim from before the anomaly chunk.
// CI runs it for 10s: go test -run '^$' -fuzz=FuzzParseArtifact -fuzztime=10s ./internal/core
func FuzzParseArtifact(f *testing.F) {
	float := batchImpulse(f)
	float.QModel = nil
	for _, imp := range []*Impulse{toneImpulse(f), float, batchImpulse(f), anomalyImpulse(f)} {
		blob, err := imp.MarshalArtifact()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	threeChunk, err := os.ReadFile(filepath.Join("testdata", "three_chunk.eim"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(threeChunk)

	f.Fuzz(func(t *testing.T, data []byte) {
		imp, err := ParseArtifact(data)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		want, err := imp.ClassifierShape()
		if err != nil {
			if want, err = imp.FeatureShape(); err != nil {
				t.Fatalf("accepted impulse has no feature shape: %v", err)
			}
		}
		fits := func(in tensor.Shape, classes int) bool { return in.Equal(want) && classes == len(imp.Classes) }
		if m := imp.Model; m != nil && !fits(m.InputShape, m.NumClasses) {
			t.Fatalf("accepted float model %v/%d for %v/%d", m.InputShape, m.NumClasses, want, len(imp.Classes))
		}
		if q := imp.QModel; q != nil && !fits(q.InputShape, q.NumClasses) {
			t.Fatalf("accepted int8 model %v/%d for %v/%d", q.InputShape, q.NumClasses, want, len(imp.Classes))
		}
		blob, err := imp.MarshalArtifact()
		if err != nil {
			t.Fatalf("accepted artefact does not marshal: %v", err)
		}
		if _, err := ParseArtifact(blob); err != nil {
			t.Fatalf("re-marshalled artefact does not load: %v", err)
		}
	})
}

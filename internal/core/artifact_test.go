package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgepulse/internal/dsp"
	"edgepulse/internal/synth"
	"edgepulse/internal/tflm"
)

// anomalyImpulse is batchImpulse with a fitted K-means block beside its
// classifier.
func anomalyImpulse(t testing.TB) *Impulse {
	t.Helper()
	imp := batchImpulse(t)
	if err := imp.TrainAnomaly(toneDataset(t, 4), 2, 1); err != nil {
		t.Fatal(err)
	}
	return imp
}

// sameScores fails unless two results agree bit for bit: label, every
// class score and the anomaly score.
func sameScores(t *testing.T, what string, got, want ClassResult) {
	t.Helper()
	if err := sameResult(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if math.Float64bits(got.AnomalyScore) != math.Float64bits(want.AnomalyScore) {
		t.Fatalf("%s: anomaly score %v != %v", what, got.AnomalyScore, want.AnomalyScore)
	}
}

// TestArtifactRoundTrip: each kind of impulse comes back from its
// artefact with the same trained state, classifies bit for bit in both
// precisions, and re-marshals to the same bytes.
func TestArtifactRoundTrip(t *testing.T) {
	float := batchImpulse(t)
	float.QModel = nil
	anomalyOnly := toneImpulse(t)
	anomalyOnly.Classes = nil
	anomalyOnly.Learn = []LearnBlockSpec{{Name: LearnAnomaly, Type: LearnAnomaly}}
	if err := anomalyOnly.TrainAnomaly(toneDataset(t, 4), 2, 1); err != nil {
		t.Fatal(err)
	}
	window := dsp.Signal{Data: batchWindows(1)[0], Rate: 8000, Axes: 1}
	for name, imp := range map[string]*Impulse{
		"design":       toneImpulse(t),
		"float":        float,
		"float+int8":   batchImpulse(t),
		"anomaly":      anomalyImpulse(t),
		"anomaly-only": anomalyOnly,
	} {
		t.Run(name, func(t *testing.T) {
			blob, err := imp.MarshalArtifact()
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParseArtifact(blob)
			if err != nil {
				t.Fatal(err)
			}
			if (back.Model == nil) != (imp.Model == nil) || (back.QModel == nil) != (imp.QModel == nil) ||
				(back.Anomaly == nil) != (imp.Anomaly == nil) {
				t.Fatalf("trained state: model %v int8 %v anomaly %v", back.Model != nil, back.QModel != nil, back.Anomaly != nil)
			}
			again, err := back.MarshalArtifact()
			if err != nil || !bytes.Equal(again, blob) {
				t.Fatalf("re-marshalled artefact differs (err %v)", err)
			}
			if imp.Model == nil && imp.Anomaly == nil {
				return
			}
			for _, quantized := range []bool{false, true} {
				want, err := imp.ClassifyWindow(window, quantized)
				got, backErr := back.ClassifyWindow(window, quantized)
				if quantized && imp.QModel == nil {
					if !errors.Is(err, ErrNoInt8Model) || !errors.Is(backErr, ErrNoInt8Model) {
						t.Fatalf("int8 without an int8 model: %v, after the round trip %v", err, backErr)
					}
					continue
				}
				if err != nil || backErr != nil {
					t.Fatal(err, backErr)
				}
				sameScores(t, name, got, want)
			}
		})
	}
}

// eimGolden is the scores the three-chunk codec's own parser gave for
// testdata/three_chunk.eim: per signal, the float32 bits of each class score.
type eimGolden struct {
	Classes []string   `json:"classes"`
	Labels  []string   `json:"labels"`
	Seeds   []int64    `json:"seeds"`
	Float   [][]uint32 `json:"float"`
	Int8    [][]uint32 `json:"int8"`
}

// TestThreeChunkEIMClassifiesBitForBit: a model.eim written before the
// anomaly chunk existed (testdata/three_chunk.eim, made with
// internal/project/testdata/genv2) parses, has no anomaly block, and
// scores the golden signals bit for bit in both precisions.
func TestThreeChunkEIMClassifiesBitForBit(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "three_chunk.eim"))
	if err != nil {
		t.Fatal(err)
	}
	imp, err := ParseArtifact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Model == nil || imp.QModel == nil || imp.Anomaly != nil {
		t.Fatalf("model %v int8 %v anomaly %v", imp.Model != nil, imp.QModel != nil, imp.Anomaly != nil)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "three_chunk_scores.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g eimGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, imp, g)
}

// checkGolden classifies every golden signal in both precisions and
// compares each class score's bits.
func checkGolden(t *testing.T, imp *Impulse, g eimGolden) {
	t.Helper()
	for i, label := range g.Labels {
		sig, err := synth.Keyword(label, 8000, 0.5, 0.03, rand.New(rand.NewSource(g.Seeds[i])))
		if err != nil {
			t.Fatal(err)
		}
		for _, quantized := range []bool{false, true} {
			want := g.Float[i]
			if quantized {
				want = g.Int8[i]
			}
			res, err := imp.ClassifyWindow(sig, quantized)
			if err != nil {
				t.Fatal(err)
			}
			for c, class := range g.Classes {
				if got := math.Float32bits(res.Scores[class]); got != want[c] {
					t.Fatalf("signal %d (%s seed %d) int8=%v class %s: bits %#x, want %#x",
						i, label, g.Seeds[i], quantized, class, got, want[c])
				}
			}
		}
	}
}

// TestParseArtifactChecks: the loader refuses a model chunk of the
// wrong precision, a float or int8 model that does not fit the design,
// an anomaly block of the wrong width, and framing errors.
func TestParseArtifactChecks(t *testing.T) {
	imp := anomalyImpulse(t)
	design, _ := json.Marshal(imp.Config())
	float, _ := tflm.Marshal(tflm.ModelFileFromFloat(imp.Model))
	int8, _ := tflm.Marshal(tflm.ModelFileFromQuant(imp.QModel))
	good, err := imp.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	// A redesign with more filters: the trained models no longer fit.
	wideImp := toneImpulse(t)
	block, err := dsp.New("mfe", map[string]float64{"num_filters": 24, "fft_length": 128})
	if err != nil {
		t.Fatal(err)
	}
	wideDesign, _ := json.Marshal(wideImp.UseDSP(block).Config())
	// A K-means block of k=2 over 3 features, for a wider feature view.
	narrow := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 2), 3)
	narrow = append(narrow, make([]byte, 4*(2*3+2))...)
	cases := map[string]struct {
		blob []byte
		want string
	}{
		"int8 in float chunk": {AssembleArtifact(design, int8, nil), "float chunk holds no float model"},
		"float in int8 chunk": {AssembleArtifact(design, nil, float), "int8 chunk holds no int8 model"},
		"float misfit":        {AssembleArtifact(wideDesign, float, nil), "float model input"},
		"int8 misfit":         {AssembleArtifact(wideDesign, nil, int8), "int8 model input"},
		"anomaly misfit":      {AssembleArtifact(design, nil, nil, narrow), "anomaly centroid of 3 values"},
		"anomaly short":       {AssembleArtifact(design, nil, nil, narrow[:12]), "anomaly chunk of 12 bytes"},
		"two chunks":          {AssembleArtifact(design, float), "2 chunks"},
		"five chunks":         {AssembleArtifact(design, nil, nil, nil, nil), "trailing bytes"},
		"trailing":            {append(bytes.Clone(good), 1, 2), "trailing bytes"},
		"truncated":           {good[:len(good)-1], "exceeds data"},
		"not an artefact":     {[]byte("EPTM"), "not an impulse artefact"},
	}
	for name, c := range cases {
		if _, err := ParseArtifact(c.blob); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want %q", name, err, c.want)
		}
	}
	// The writer refuses what the loader would: an int8 model that does
	// not fit the design is not written.
	imp.QModel.InputShape = append(imp.QModel.InputShape.Clone(), 1)
	if _, err := imp.MarshalArtifact(); err == nil || !strings.Contains(err.Error(), "int8 model input") {
		t.Fatalf("marshalled a misfit int8 model: %v", err)
	}
}

package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"testing"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/eim"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

// doorResult is what one front door answered for one window: a refusal
// message, or the label, class scores and anomaly score. A door that
// only opens (the stream) reports neither scores nor a label.
type doorResult struct {
	refusal string
	label   string
	scores  map[string]float32
	anomaly float64
}

// frontDoor asks one way into the platform to classify win.
type frontDoor func(t *testing.T, e *testEnv, id int, imp *core.Impulse, win []float32, quantized bool) doorResult

// postDoor sends body to a project route and returns the error
// envelope's message on a 400, or the raw 200 body.
func postDoor(t *testing.T, e *testEnv, id int, route string, body any) (refusal string, ok []byte) {
	t.Helper()
	resp, raw := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/%s", id, route), e.apiKey, body, "")
	switch resp.StatusCode {
	case http.StatusOK:
		return "", raw
	case http.StatusBadRequest:
		var env v1.ErrorResponse
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Message == "" {
			t.Fatalf("%s: 400 without an error envelope: %s", route, raw)
		}
		return env.Error.Message, nil
	}
	t.Fatalf("%s: status %d (%s)", route, resp.StatusCode, raw)
	return "", nil
}

var frontDoors = map[string]frontDoor{
	"api classify": func(t *testing.T, e *testEnv, id int, _ *core.Impulse, win []float32, quantized bool) doorResult {
		refusal, raw := postDoor(t, e, id, "classify", map[string]any{"features": win, "quantized": quantized})
		if refusal != "" {
			return doorResult{refusal: refusal}
		}
		var out v1.ClassifyResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return doorResult{label: out.Label, scores: out.Classification, anomaly: out.Anomaly}
	},
	"api batch": func(t *testing.T, e *testEnv, id int, _ *core.Impulse, win []float32, quantized bool) doorResult {
		refusal, raw := postDoor(t, e, id, "classify/batch", map[string]any{"windows": [][]float32{win, win}, "quantized": quantized})
		if refusal != "" {
			return doorResult{refusal: refusal}
		}
		var out v1.ClassifyBatchResponse
		if err := json.Unmarshal(raw, &out); err != nil || len(out.Results) != 2 {
			t.Fatalf("batch reply %s (%v)", raw, err)
		}
		r := out.Results[1]
		return doorResult{label: r.Label, scores: r.Classification, anomaly: r.Anomaly}
	},
	"eim": func(t *testing.T, _ *testEnv, _ int, imp *core.Impulse, win []float32, quantized bool) doorResult {
		srv, err := eim.NewServer(imp)
		if err != nil {
			t.Fatal(err)
		}
		resp := srv.HandleRequest(eim.Request{ID: 1, Classify: &eim.ClassifyParams{Features: win, Quantized: quantized}})
		if !resp.Success {
			return doorResult{refusal: resp.Error}
		}
		return doorResult{label: resp.Result.Label, scores: resp.Result.Classification, anomaly: resp.Result.Anomaly}
	},
	"stream open": func(t *testing.T, e *testEnv, id int, _ *core.Impulse, _ []float32, quantized bool) doorResult {
		refusal, raw := postDoor(t, e, id, "stream", map[string]any{"quantized": quantized})
		if refusal != "" {
			return doorResult{refusal: refusal}
		}
		var out v1.StreamOpenResponse
		if err := json.Unmarshal(raw, &out); err != nil || out.SessionID == "" {
			t.Fatalf("stream open reply %s (%v)", raw, err)
		}
		e.expectStatus("DELETE", fmt.Sprintf("/api/v1/projects/%d/stream/%s", id, out.SessionID), e.apiKey, nil, http.StatusOK)
		return doorResult{}
	},
}

// TestFrontDoorsAgree holds every way into the window pipeline to
// core.Impulse.Run: a request for int8 on an impulse without an int8
// model is refused with the same message everywhere, and the scores,
// label and anomaly score a door reports are Run's, bit for bit.
func TestFrontDoorsAgree(t *testing.T) {
	win := toneSamples(streamTestImpulse(t).WindowLen(), 4000)
	withInt8 := func(t *testing.T, imp *core.Impulse) {
		x, err := imp.Features(imp.SignalFor(win))
		if err != nil {
			t.Fatal(err)
		}
		if imp.QModel, err = quant.Quantize(imp.Model, []*tensor.F32{x}); err != nil {
			t.Fatal(err)
		}
	}
	withAnomaly := func(t *testing.T, imp *core.Impulse) {
		ds := data.New()
		for i, hz := range []int{4000, 3000, 2000} {
			sig := dsp.Signal{Data: toneSamples(len(win), hz), Rate: 4000, Axes: 1}
			if _, err := ds.Add(&data.Sample{Name: fmt.Sprint(i), Label: "high", Category: data.Training, Signal: sig}); err != nil {
				t.Fatal(err)
			}
		}
		if err := imp.TrainAnomaly(ds, 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		build     func(*testing.T, *core.Impulse)
		quantized []bool
		runErr    error
	}{
		{"float only, int8 asked", func(*testing.T, *core.Impulse) {}, []bool{true}, core.ErrNoInt8Model},
		{"float and int8", withInt8, []bool{false, true}, nil},
		{"float and anomaly", withAnomaly, []bool{false}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, id := streamEnv(t)
			p, err := e.reg.GetProject(id)
			if err != nil {
				t.Fatal(err)
			}
			imp := p.Impulse()
			tc.build(t, imp)
			for _, quantized := range tc.quantized {
				scores := make([]float32, len(imp.Classes))
				best, anomaly, runErr := imp.Run(imp.SignalFor(win), quantized, scores)
				if !errors.Is(runErr, tc.runErr) || (imp.Anomaly != nil) != (anomaly > 0) {
					t.Fatalf("int8=%v: Run err %v, anomaly %v", quantized, runErr, anomaly)
				}
				for name, door := range frontDoors {
					got := door(t, e, id, imp, win, quantized)
					switch {
					case runErr != nil:
						if got.refusal != runErr.Error() {
							t.Errorf("int8=%v %s: refusal %q, Run's %q", quantized, name, got.refusal, runErr)
						}
						continue
					case got.refusal != "":
						t.Errorf("int8=%v %s refused: %s", quantized, name, got.refusal)
						continue
					case got.scores == nil:
						continue // the stream only opens here
					}
					if got.label != imp.Classes[best] || math.Float64bits(got.anomaly) != math.Float64bits(anomaly) {
						t.Errorf("int8=%v %s: %s/%v, Run %s/%v", quantized, name, got.label, got.anomaly, imp.Classes[best], anomaly)
					}
					for i, c := range imp.Classes {
						if math.Float32bits(got.scores[c]) != math.Float32bits(scores[i]) {
							t.Errorf("int8=%v %s: %s scores %v, Run %v", quantized, name, c, got.scores[c], scores[i])
						}
					}
				}
			}
		})
	}
}

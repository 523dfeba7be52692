package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"testing"

	"edgepulse/internal/client"
	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
)

// TestImpulseDTODrift asserts the server's impulse handlers and the
// typed Go client marshal the same v2 design bytes: a design uploaded
// through internal/client comes back byte-identical to what the core
// types marshal locally, whether it was posted as a typed struct or as
// raw JSON.
func TestImpulseDTODrift(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	c := client.New(e.server.URL, client.WithAPIKey(e.apiKey))
	proj, err := c.CreateProject(ctx, "drift")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Version: core.ConfigVersion,
		Name:    "drift",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 4000, Axes: 2},
		DSP: []core.DSPBlockSpec{
			{Name: "vib", Type: "spectral-analysis", Params: map[string]float64{"fft_length": 64, "num_peaks": 8}, Axes: []int{0}},
			{Name: "raw", Type: "raw", Axes: []int{1}},
		},
		Learn: []core.LearnBlockSpec{
			{Type: core.LearnClassification, Inputs: []string{"vib", "raw"}},
		},
		Classes: []string{"a", "b"},
	}
	// The reference bytes: what the core design types emit locally.
	imp, err := core.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(imp.Config())
	if err != nil {
		t.Fatal(err)
	}

	// Typed client upload → server echo.
	if _, err := c.SetImpulse(ctx, proj.ID, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Impulse(ctx, proj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got.Impulse), want) {
		t.Errorf("typed upload drifted:\nserver %s\nclient %s", got.Impulse, want)
	}
	if got.Version != core.ConfigVersion {
		t.Errorf("version %d", got.Version)
	}

	// Raw-bytes upload of the same design → identical echo.
	rawCfg, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetImpulse(ctx, proj.ID, json.RawMessage(rawCfg)); err != nil {
		t.Fatal(err)
	}
	got2, err := c.Impulse(ctx, proj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got2.Impulse), want) {
		t.Errorf("raw upload drifted:\nserver %s\nclient %s", got2.Impulse, want)
	}

	// The offset table in both impulse responses matches the design.
	if len(got.Blocks) != 2 || got.Blocks[0].Offset != 0 || got.Blocks[1].Offset != got.Blocks[0].Size {
		t.Errorf("offset table: %+v", got.Blocks)
	}
}

// TestImpulseV1MigrationThroughAPI posts a legacy v1 design and checks
// the server stores and serves it as v2.
func TestImpulseV1MigrationThroughAPI(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "legacy"}, http.StatusCreated)
	id := int(created["id"].(float64))
	v1Body := []byte(`{
		"name": "kws",
		"input": {"kind": "time-series", "window_ms": 500, "frequency_hz": 8000, "axes": 1},
		"dsp_name": "mfe",
		"dsp_params": {"num_filters": 16, "fft_length": 128},
		"classes": ["noise", "yes"],
		"anomaly_clusters": 2
	}`)
	resp, _ := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/impulse", id), e.apiKey, v1Body, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 design rejected: %d", resp.StatusCode)
	}
	got := e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/impulse", id), e.apiKey, nil, http.StatusOK)
	if got["version"] != float64(core.ConfigVersion) {
		t.Fatalf("served version: %v", got["version"])
	}
	var served core.Config
	blob, _ := json.Marshal(got["impulse"])
	if err := json.Unmarshal(blob, &served); err != nil {
		t.Fatal(err)
	}
	if served.Version != core.ConfigVersion || len(served.DSP) != 1 || served.DSP[0].Type != "mfe" {
		t.Fatalf("served design: %+v", served)
	}
	if len(served.Learn) != 2 || served.Learn[1].Params["clusters"] != 2 {
		t.Fatalf("served learn blocks: %+v", served.Learn)
	}
}

// TestBlocksCatalog checks the unauthenticated design catalog is
// complete, sorted and byte-deterministic.
func TestBlocksCatalog(t *testing.T) {
	e := newEnv(t)
	resp1, raw1 := e.doRaw("GET", "/api/v1/blocks", "", nil, "")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("blocks status %d", resp1.StatusCode)
	}
	_, raw2 := e.doRaw("GET", "/api/v1/blocks", "", nil, "")
	if !bytes.Equal(raw1, raw2) {
		t.Error("catalog response not deterministic")
	}
	var cat struct {
		DSP []struct {
			Type   string `json:"type"`
			Params []struct {
				Name string `json:"name"`
			} `json:"params"`
		} `json:"dsp"`
		Learn []struct {
			Type string `json:"type"`
		} `json:"learn"`
	}
	if err := json.Unmarshal(raw1, &cat); err != nil {
		t.Fatal(err)
	}
	var dspTypes []string
	for _, b := range cat.DSP {
		dspTypes = append(dspTypes, b.Type)
		var params []string
		for _, p := range b.Params {
			params = append(params, p.Name)
		}
		if !sort.StringsAreSorted(params) {
			t.Errorf("block %s params unsorted: %v", b.Type, params)
		}
	}
	want := dsp.Names()
	if len(dspTypes) != len(want) {
		t.Errorf("dsp catalog %v != registry %v", dspTypes, want)
	}
	if !sort.StringsAreSorted(dspTypes) {
		t.Errorf("dsp catalog unsorted: %v", dspTypes)
	}
	var learnTypes []string
	for _, b := range cat.Learn {
		learnTypes = append(learnTypes, b.Type)
	}
	if !sort.StringsAreSorted(learnTypes) || len(learnTypes) != len(core.LearnNames()) {
		t.Errorf("learn catalog %v != registry %v", learnTypes, core.LearnNames())
	}
}

package api

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/jobs"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/project"
)

// anomalyImpulse is a raw-feature 3-axis design with a float model and
// a K-means block fitted on a few random windows, and one more window
// to score.
func anomalyImpulse(t *testing.T) (*core.Impulse, dsp.Signal) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	window := func() dsp.Signal {
		sig := dsp.Signal{Data: make([]float32, 30), Rate: 100, Axes: 3}
		for i := range sig.Data {
			sig.Data[i] = float32(rng.NormFloat64())
		}
		return sig
	}
	imp := core.New("motion")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 100, FrequencyHz: 100, Axes: 3}
	block, err := dsp.New("raw", nil)
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = []string{"a", "b"}
	model := models.TinyMLP(30, 8, 2)
	if err := nn.InitWeights(model, 1); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	ds := data.New()
	for i := 0; i < 6; i++ {
		if _, err := ds.Add(&data.Sample{Name: fmt.Sprint(i), Label: imp.Classes[i%2], Signal: window()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := imp.TrainAnomaly(ds, 2, 1); err != nil {
		t.Fatal(err)
	}
	return imp, window()
}

// TestDeploymentEIMCarriesAnomaly: the model.eim the deployment route
// serves holds the fitted K-means block, which scores bit for bit.
func TestDeploymentEIMCarriesAnomaly(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "motion"}, http.StatusCreated)
	id := int(created["id"].(float64))
	p, err := e.reg.GetProject(id)
	if err != nil {
		t.Fatal(err)
	}
	imp, window := anomalyImpulse(t)
	p.SetImpulse(imp)
	want, err := imp.Classify(window)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := e.doRaw("GET", fmt.Sprintf("/api/v1/projects/%d/deployment?type=eim", id), e.apiKey, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("EIM download: %d %s", resp.StatusCode, raw)
	}
	deployed, err := core.ParseArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := deployed.Classify(window)
	if err != nil {
		t.Fatal(err)
	}
	if deployed.Anomaly == nil || math.Float64bits(got.AnomalyScore) != math.Float64bits(want.AnomalyScore) {
		t.Fatalf("deployed anomaly score %v, want %v", got.AnomalyScore, want.AnomalyScore)
	}
}

// TestProjectReportsImpulseError: a project whose impulse.eim does not
// load still opens, and GET /projects/{id} says why in impulse_error;
// a healthy project reports none.
func TestProjectReportsImpulseError(t *testing.T) {
	dir := t.TempDir()
	reg, err := project.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := reg.CreateUser("ada")
	bad, _ := reg.CreateProject("bad", u.ID)
	good, _ := reg.CreateProject("good", u.ID)
	imp, _ := anomalyImpulse(t)
	bad.SetImpulse(imp)
	good.SetImpulse(imp)
	reg.Close()
	if err := os.WriteFile(filepath.Join(dir, "projects", fmt.Sprint(bad.ID), "impulse.eim"), []byte("EPIM\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err = project.Open(dir)
	if err != nil {
		t.Fatalf("registry refused by one bad artefact: %v", err)
	}
	t.Cleanup(func() { reg.Close() })
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	srv := httptest.NewServer(NewServer(reg, sched).Handler())
	t.Cleanup(srv.Close)
	e := &testEnv{t: t, server: srv, sched: sched, reg: reg, apiKey: u.APIKey}

	for id, wantErr := range map[int]bool{bad.ID: true, good.ID: false} {
		got := e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d", id), e.apiKey, nil, http.StatusOK)
		msg, _ := got["project"].(map[string]any)["impulse_error"].(string)
		if (msg != "") != wantErr {
			t.Fatalf("project %d: impulse_error %q", id, msg)
		}
	}
	e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/impulse", bad.ID), e.apiKey, nil, http.StatusNotFound)
	e.expectStatus("GET", fmt.Sprintf("/api/v1/projects/%d/impulse", good.ID), e.apiKey, nil, http.StatusOK)
}

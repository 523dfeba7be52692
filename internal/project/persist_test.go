package project

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	owner, _ := r.CreateUser("owner")
	guest, _ := r.CreateUser("guest")
	p, _ := r.CreateProject("kws", owner.ID)
	p.AddCollaborator(guest.ID)
	p.SetPublic(true)

	// Dataset + trained impulse.
	ds, err := synth.KWSDataset(2, 10, 8000, 0.5, 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ds.List("") {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		clone := *s
		clone.ID = ""
		if _, err := p.Dataset().Add(&clone); err != nil {
			t.Fatal(err)
		}
	}
	imp := core.New("kws")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1}
	block, _ := dsp.New("mfe", map[string]float64{"num_filters": 16, "fft_length": 128})
	imp.UseDSP(block)
	imp.Classes = p.Dataset().Labels()
	shape, _ := imp.FeatureShape()
	model, _ := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, len(imp.Classes))
	nn.InitWeights(model, 4)
	imp.AttachClassifier(model)
	if _, err := imp.Train(p.Dataset(), trainer.Config{Epochs: 4, LearningRate: 0.005, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := imp.Quantize(p.Dataset()); err != nil {
		t.Fatal(err)
	}
	p.SetImpulse(imp)
	p.Snapshot("v1")

	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Reload into a fresh registry.
	r2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Users and auth survive.
	if _, err := r2.Authenticate(owner.APIKey); err != nil {
		t.Fatal("owner key lost")
	}
	p2, err := r2.GetProject(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Public() || !p2.CanAccess(guest.ID) || p2.HMACKey != p.HMACKey {
		t.Error("project metadata lost")
	}
	if p2.Dataset().Len() != p.Dataset().Len() {
		t.Fatalf("dataset %d != %d", p2.Dataset().Len(), p.Dataset().Len())
	}
	if p2.Dataset().Version() != p.Dataset().Version() {
		t.Error("dataset version changed across save/load")
	}
	if len(p2.Versions()) != 1 {
		t.Error("snapshots lost")
	}
	// The reloaded impulse predicts identically.
	imp2 := p2.Impulse()
	if imp2 == nil || imp2.Model == nil || imp2.QModel == nil {
		t.Fatal("impulse or models lost")
	}
	for _, h := range p.Dataset().List(data.Testing) {
		s, err := p.Dataset().Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		a, err := imp.Classify(s.Signal)
		if err != nil {
			t.Fatal(err)
		}
		b, err := imp2.Classify(s.Signal)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label != b.Label {
			t.Fatalf("reloaded impulse diverges: %q vs %q", a.Label, b.Label)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("loaded empty directory")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "registry.json"), []byte("{bad"), 0o644)
	if _, err := Load(dir); err == nil {
		t.Error("loaded corrupt registry")
	}
}

// TestLoadRegistryWithOrgs opens a registry.json written when the
// registry still kept organizations: every user, API key and project
// comes back, and the next save drops the org keys.
func TestLoadRegistryWithOrgs(t *testing.T) {
	dir := t.TempDir()
	old := `{
  "users": [
    {"id": "user-1", "name": "owner", "api_key": "ei_owner"},
    {"id": "user-2", "name": "guest", "api_key": "ei_guest"}
  ],
  "orgs": [
    {"id": "org-1", "name": "acme", "members": ["user-1", "user-2"]}
  ],
  "projects": [
    {"id": 1, "name": "kws", "owner_id": "user-1", "hmac_key": "h1",
     "public": true, "collaborators": ["user-2"], "versions": null},
    {"id": 2, "name": "vww", "owner_id": "user-2", "hmac_key": "h2",
     "public": false, "collaborators": null, "versions": null}
  ],
  "next_user": 2,
  "next_proj": 2,
  "next_org": 1
}`
	if err := os.WriteFile(filepath.Join(dir, "registry.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for key, id := range map[string]string{"ei_owner": "user-1", "ei_guest": "user-2"} {
		u, err := r.Authenticate(key)
		if err != nil || u.ID != id {
			t.Fatalf("key %s: user %v, err %v", key, u, err)
		}
	}
	p1, err := r.GetProject(1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Name != "kws" || p1.OwnerID != "user-1" || p1.HMACKey != "h1" || !p1.Public() || !p1.CanAccess("user-2") {
		t.Fatalf("project 1: %+v", p1)
	}
	p2, err := r.GetProject(2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Name != "vww" || p2.OwnerID != "user-2" || p2.HMACKey != "h2" || p2.Public() || p2.CanAccess("user-1") {
		t.Fatalf("project 2: %+v", p2)
	}

	// A write-through save continues the counters and drops the org keys.
	u, err := r.CreateUser("carol")
	if err != nil {
		t.Fatal(err)
	}
	if u.ID != "user-3" {
		t.Fatalf("new user %s, want user-3", u.ID)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "registry.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"orgs", "next_org"} {
		if _, ok := keys[k]; ok {
			t.Errorf("saved registry still writes %q", k)
		}
	}
	for _, k := range []string{"users", "projects", "next_user", "next_proj"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("saved registry lost %q", k)
		}
	}
}

func TestSaveEmptyRegistry(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	r2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.ListPublic()) != 0 {
		t.Error("phantom projects")
	}
}

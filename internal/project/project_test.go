package project

import (
	"strings"
	"testing"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
)

func addSample(t *testing.T, p *Project, label string, vals ...float32) {
	t.Helper()
	if _, err := p.Dataset().Add(&data.Sample{
		Name: "s" + label, Label: label,
		Signal: dsp.Signal{Data: vals, Rate: 100, Axes: 1},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestUserLifecycle(t *testing.T) {
	r := NewRegistry()
	u, err := r.CreateUser("ada")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(u.APIKey, "ei_") {
		t.Errorf("api key %q", u.APIKey)
	}
	got, err := r.Authenticate(u.APIKey)
	if err != nil || got.ID != u.ID {
		t.Fatalf("auth: %v %v", got, err)
	}
	if _, err := r.Authenticate("wrong"); err == nil {
		t.Error("authenticated bad key")
	}
	if _, err := r.CreateUser(""); err == nil {
		t.Error("accepted empty name")
	}
	if _, err := r.GetUser(u.ID); err != nil {
		t.Error(err)
	}
	if _, err := r.GetUser("ghost"); err == nil {
		t.Error("found ghost user")
	}
}

func TestProjectAccessControl(t *testing.T) {
	r := NewRegistry()
	owner, _ := r.CreateUser("owner")
	guest, _ := r.CreateUser("guest")
	stranger, _ := r.CreateUser("stranger")
	p, err := r.CreateProject("kws", owner.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !p.CanAccess(owner.ID) {
		t.Error("owner denied")
	}
	if p.CanAccess(guest.ID) {
		t.Error("guest allowed before invite")
	}
	p.AddCollaborator(guest.ID)
	if !p.CanAccess(guest.ID) {
		t.Error("collaborator denied")
	}
	if p.CanAccess(stranger.ID) {
		t.Error("stranger allowed")
	}
	if got := p.Collaborators(); len(got) != 1 || got[0] != guest.ID {
		t.Errorf("collaborators: %v", got)
	}
	p.RemoveCollaborator(guest.ID)
	if p.CanAccess(guest.ID) {
		t.Error("removed collaborator still allowed")
	}
	// Listing.
	if got := r.ListAccessible(owner.ID); len(got) != 1 {
		t.Errorf("owner list: %d", len(got))
	}
	if got := r.ListAccessible(stranger.ID); len(got) != 0 {
		t.Errorf("stranger list: %d", len(got))
	}
}

func TestCreateProjectValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.CreateProject("x", "nobody"); err == nil {
		t.Error("accepted unknown owner")
	}
	u, _ := r.CreateUser("u")
	if _, err := r.CreateProject("", u.ID); err == nil {
		t.Error("accepted empty project name")
	}
	if _, err := r.GetProject(99); err == nil {
		t.Error("found ghost project")
	}
}

func TestPublicProjectsAndClone(t *testing.T) {
	r := NewRegistry()
	owner, _ := r.CreateUser("owner")
	other, _ := r.CreateUser("other")
	p, _ := r.CreateProject("public-kws", owner.ID)
	addSample(t, p, "yes", 1, 2, 3)
	addSample(t, p, "no", 4, 5, 6)
	imp := core.New("public-kws")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 30, FrequencyHz: 100, Axes: 1}
	block, _ := dsp.New("raw", nil)
	imp.UseDSP(block)
	imp.Classes = []string{"no", "yes"}
	p.SetImpulse(imp)

	// Not public yet: clone by another user fails.
	if _, err := r.CloneProject(p.ID, other.ID); err == nil {
		t.Error("cloned private project")
	}
	if got := r.ListPublic(); len(got) != 0 {
		t.Errorf("public list: %d", len(got))
	}
	p.SetPublic(true)
	if got := r.ListPublic(); len(got) != 1 {
		t.Errorf("public list: %d", len(got))
	}
	clone, err := r.CloneProject(p.ID, other.ID)
	if err != nil {
		t.Fatal(err)
	}
	if clone.OwnerID != other.ID {
		t.Error("clone ownership")
	}
	if clone.Dataset().Len() != 2 {
		t.Errorf("clone dataset %d samples", clone.Dataset().Len())
	}
	if clone.Impulse() == nil || clone.Impulse().DSP[0].Block.Name() != "raw" {
		t.Error("clone impulse lost")
	}
	// Mutating the clone must not touch the original.
	addSample(t, clone, "maybe", 7, 8, 9)
	if p.Dataset().Len() != 2 {
		t.Error("clone aliases source dataset")
	}
	if _, err := r.CloneProject(999, other.ID); err == nil {
		t.Error("cloned ghost project")
	}
}

func TestSnapshotVersioning(t *testing.T) {
	r := NewRegistry()
	u, _ := r.CreateUser("u")
	p, _ := r.CreateProject("v", u.ID)
	addSample(t, p, "a", 1, 2)
	v1 := p.Snapshot("initial")
	if v1.ID != 1 || v1.DatasetVersion == "" {
		t.Fatalf("v1: %+v", v1)
	}
	addSample(t, p, "b", 3, 4)
	v2 := p.Snapshot("added b")
	if v2.DatasetVersion == v1.DatasetVersion {
		t.Error("dataset version unchanged after add")
	}
	imp := core.New("v")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 20, FrequencyHz: 100, Axes: 1}
	block, _ := dsp.New("raw", nil)
	imp.UseDSP(block)
	imp.Classes = []string{"a", "b"}
	p.SetImpulse(imp)
	v3 := p.Snapshot("with impulse")
	if len(v3.ImpulseConfig) == 0 {
		t.Error("impulse config missing from snapshot")
	}
	if got := p.Versions(); len(got) != 3 {
		t.Errorf("%d versions", len(got))
	}
}

func TestHMACKeysUnique(t *testing.T) {
	r := NewRegistry()
	u, _ := r.CreateUser("u")
	p1, _ := r.CreateProject("a", u.ID)
	p2, _ := r.CreateProject("b", u.ID)
	if p1.HMACKey == p2.HMACKey {
		t.Error("HMAC keys collide")
	}
	if p1.ID == p2.ID {
		t.Error("project IDs collide")
	}
}

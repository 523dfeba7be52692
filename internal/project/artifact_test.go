package project

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/synth"
)

// motionWindow is one deterministic 3-axis window of windowMS at 100 Hz.
func motionWindow(windowMS int, seed int64) dsp.Signal {
	rng := rand.New(rand.NewSource(seed))
	sig := dsp.Signal{Data: make([]float32, windowMS/10*3), Rate: 100, Axes: 3}
	for i := range sig.Data {
		sig.Data[i] = float32(rng.NormFloat64())
	}
	return sig
}

// motionImpulse is a raw-feature design over windowMS of 100 Hz 3-axis
// data with classes a and b. Trained, it also carries a float and an
// int8 model and a K-means block fitted on a few random windows.
func motionImpulse(t testing.TB, windowMS int, trained bool) *core.Impulse {
	t.Helper()
	imp := core.New("motion")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: windowMS, FrequencyHz: 100, Axes: 3}
	block, err := dsp.New("raw", nil)
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = []string{"a", "b"}
	if !trained {
		return imp
	}
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	model := models.TinyMLP(shape.Elems(), 8, 2)
	if err := nn.InitWeights(model, 1); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	ds := data.New()
	for i := 0; i < 8; i++ {
		if _, err := ds.Add(&data.Sample{
			Name: fmt.Sprint("w", i), Label: imp.Classes[i%2], Signal: motionWindow(windowMS, int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := imp.Quantize(ds); err != nil {
		t.Fatal(err)
	}
	if err := imp.TrainAnomaly(ds, 2, 1); err != nil {
		t.Fatal(err)
	}
	return imp
}

// durableProject opens a registry at dir with one user and one project.
func durableProject(t *testing.T, dir string) (*Registry, *Project) {
	t.Helper()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	u, err := r.CreateUser("ada")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.CreateProject("motion", u.ID)
	if err != nil {
		t.Fatal(err)
	}
	return r, p
}

// reopened opens dir again and returns project id, failing on a
// registry error.
func reopened(t *testing.T, dir string, id int) (*Registry, *Project) {
	t.Helper()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	p, err := r.GetProject(id)
	if err != nil {
		t.Fatal(err)
	}
	return r, p
}

// artifact is the impulse's artefact bytes (nil for no impulse).
func artifact(t *testing.T, imp *core.Impulse) []byte {
	t.Helper()
	if imp == nil {
		return nil
	}
	blob, err := imp.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRedesignThenReopen: a trained project redesigned without a model
// reopens with the new design and no model, whether the redesign
// changed the feature shape or kept it. Before impulse.eim the first
// refused the whole registry and the second brought the old model back.
func TestRedesignThenReopen(t *testing.T) {
	for name, windowMS := range map[string]int{"shape changed": 200, "shape kept": 100} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			r, p := durableProject(t, dir)
			p.SetImpulse(motionImpulse(t, 100, true))
			p.SetImpulse(motionImpulse(t, windowMS, false))
			r.Close()

			r2, p2 := reopened(t, dir, p.ID)
			defer r2.Close()
			imp := p2.Impulse()
			if imp == nil || p2.ImpulseError() != nil {
				t.Fatalf("impulse %v, error %v", imp, p2.ImpulseError())
			}
			if imp.Input.WindowMS != windowMS || imp.Model != nil || imp.QModel != nil || imp.Anomaly != nil {
				t.Fatalf("reopened window %d ms, model %v, int8 %v, anomaly %v; want the untrained redesign",
					imp.Input.WindowMS, imp.Model != nil, imp.QModel != nil, imp.Anomaly != nil)
			}
		})
	}
}

// TestCorruptArtifactCostsOneProject: a project whose impulse.eim does
// not load opens without an impulse and says why, its neighbour opens
// and classifies, and a save leaves the bad file for inspection.
func TestCorruptArtifactCostsOneProject(t *testing.T) {
	dir := t.TempDir()
	r, bad := durableProject(t, dir)
	good, err := r.CreateProject("healthy", bad.OwnerID)
	if err != nil {
		t.Fatal(err)
	}
	imp := motionImpulse(t, 100, true)
	bad.SetImpulse(imp)
	good.SetImpulse(imp)
	r.Close()
	badPath := filepath.Join(projectDir(dir, bad.ID), artifactFile)
	blob, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := blob[:len(blob)/2]
	if err := os.WriteFile(badPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("one corrupt artefact refused the registry: %v", err)
	}
	defer r2.Close()
	bad2, _ := r2.GetProject(bad.ID)
	if bad2.Impulse() != nil || bad2.ImpulseError() == nil {
		t.Fatalf("corrupt project: impulse %v, error %v", bad2.Impulse(), bad2.ImpulseError())
	}
	good2, _ := r2.GetProject(good.ID)
	want, err := imp.Classify(motionWindow(100, 9))
	if err != nil {
		t.Fatal(err)
	}
	if good2.Impulse() == nil {
		t.Fatal("healthy project lost its impulse")
	}
	got, err := good2.Impulse().Classify(motionWindow(100, 9))
	if err != nil || got.Label != want.Label || got.Scores["a"] != want.Scores["a"] {
		t.Fatalf("healthy project classifies %+v (%v), want %+v", got, err, want)
	}
	if err := r2.Save(dir); err != nil {
		t.Fatal(err)
	}
	if kept, _ := os.ReadFile(badPath); !bytes.Equal(kept, corrupt) {
		t.Fatal("save rewrote the artefact that did not load")
	}
	// Setting an impulse clears the error and replaces the file.
	bad2.SetImpulse(imp)
	if bad2.ImpulseError() != nil {
		t.Fatal("impulse error survives a new impulse")
	}
	if kept, _ := os.ReadFile(badPath); !bytes.Equal(kept, blob) {
		t.Fatal("new impulse not written")
	}
}

// TestArtifactWriteCrashAtEveryOffset cuts the impulse write at every
// byte. store.AtomicWriteFile writes a temp file beside impulse.eim and
// renames it over; until the rename a reopen must give the old impulse,
// with the torn temp file beside it, and from the rename on the new
// one, also beside the three files of the layout before impulse.eim
// that are removed last. No cut may cost a registry error.
func TestArtifactWriteCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	r, p := durableProject(t, dir)
	p.SetImpulse(motionImpulse(t, 50, false))
	r.Close()
	pdir := projectDir(dir, p.ID)
	oldBlob, err := os.ReadFile(filepath.Join(pdir, artifactFile))
	if err != nil {
		t.Fatal(err)
	}
	newBlob := artifact(t, motionImpulse(t, 50, true))
	check := func(cut int, want []byte) {
		t.Helper()
		r, p := reopened(t, dir, p.ID)
		defer r.Close()
		if p.ImpulseError() != nil || !bytes.Equal(artifact(t, p.Impulse()), want) {
			t.Fatalf("cut at %d: impulse error %v, or not the impulse expected", cut, p.ImpulseError())
		}
	}
	tmp := filepath.Join(pdir, artifactFile+".tmp-crash")
	for cut := 0; cut <= len(newBlob); cut++ {
		if err := os.WriteFile(tmp, newBlob[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		check(cut, oldBlob)
	}
	if err := os.Rename(tmp, filepath.Join(pdir, artifactFile)); err != nil {
		t.Fatal(err)
	}
	check(len(newBlob), newBlob)
	for _, name := range legacyImpulseFiles {
		if err := os.WriteFile(filepath.Join(pdir, name), oldBlob[:len(oldBlob)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		check(len(newBlob), newBlob)
	}
}

// scoreGolden is testdata/v2tree_scores.json: the scores the build that
// wrote testdata/v2tree gave, per signal the float32 bits of each class.
type scoreGolden struct {
	Classes []string   `json:"classes"`
	Labels  []string   `json:"labels"`
	Seeds   []int64    `json:"seeds"`
	Float   [][]uint32 `json:"float"`
	Int8    [][]uint32 `json:"int8"`
}

// checkScores classifies every golden signal in both precisions and
// compares each class score's bits.
func checkScores(t *testing.T, imp *core.Impulse) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "v2tree_scores.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g scoreGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	for i, label := range g.Labels {
		sig, err := synth.Keyword(label, 8000, 0.5, 0.03, rand.New(rand.NewSource(g.Seeds[i])))
		if err != nil {
			t.Fatal(err)
		}
		for _, quantized := range []bool{false, true} {
			want, classify := g.Float[i], imp.Classify
			if quantized {
				want, classify = g.Int8[i], imp.ClassifyQuantized
			}
			res, err := classify(sig)
			if err != nil {
				t.Fatal(err)
			}
			for c, class := range g.Classes {
				if got := math.Float32bits(res.Scores[class]); got != want[c] {
					t.Fatalf("signal %d int8=%v class %s: bits %#x, want %#x", i, quantized, class, got, want[c])
				}
			}
		}
	}
}

// TestLegacyV2Tree opens a tree written before impulse.eim
// (testdata/v2tree, made by testdata/genv2 with that build): project 1
// is trained in float and int8, project 2 was redesigned from 16 to 24
// filters and still carries its stale 16-filter model.eptm. The tree
// loads, project 1 scores as that build did bit for bit, project 2
// keeps its design without the stale model, and the first save leaves
// each project with impulse.eim alone.
func TestLegacyV2Tree(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, "testdata/v2tree", dir)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(r *Registry) {
		t.Helper()
		p1, _ := r.GetProject(1)
		p2, _ := r.GetProject(2)
		if p1.Impulse() == nil || p1.Impulse().Model == nil || p1.Impulse().QModel == nil {
			t.Fatal("project 1 lost its trained impulse")
		}
		checkScores(t, p1.Impulse())
		imp := p2.Impulse()
		if imp == nil || p2.ImpulseError() != nil || imp.Model != nil || imp.QModel != nil {
			t.Fatalf("project 2: impulse %v, error %v", imp, p2.ImpulseError())
		}
		if n := imp.DSP[0].Block.Params()["num_filters"]; n != 24 {
			t.Fatalf("project 2 design has %v filters, want the redesign's 24", n)
		}
	}
	verify(r)
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	r.Close()
	for _, id := range []int{1, 2} {
		entries, err := os.ReadDir(projectDir(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if fmt.Sprint(names) != "[dataset impulse.eim]" {
			t.Fatalf("project %d after save: %v", id, names)
		}
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	verify(r2)
}

// TestAnomalyAndArtifactReplicate: the fitted K-means block survives a
// reopen and a follower sync, scoring bit for bit; the follower's
// impulse.eim is the leader's bytes; and an artefact that does not load
// on the follower costs that project its impulse while the sync of the
// others goes on.
func TestAnomalyAndArtifactReplicate(t *testing.T) {
	dir := t.TempDir()
	r, p := durableProject(t, dir)
	other, err := r.CreateProject("other", p.OwnerID)
	if err != nil {
		t.Fatal(err)
	}
	imp := motionImpulse(t, 100, true)
	p.SetImpulse(imp)
	other.SetImpulse(imp)
	window := motionWindow(100, 42)
	want, err := imp.Classify(window)
	if err != nil {
		t.Fatal(err)
	}
	sameAnomaly := func(what string, got *core.Impulse) {
		t.Helper()
		if got == nil || got.Anomaly == nil {
			t.Fatalf("%s: anomaly block lost", what)
		}
		res, err := got.Classify(window)
		if err != nil || math.Float64bits(res.AnomalyScore) != math.Float64bits(want.AnomalyScore) {
			t.Fatalf("%s: anomaly score %v (%v), want %v", what, res.AnomalyScore, err, want.AnomalyScore)
		}
	}

	r.Close()
	r, p = reopened(t, dir, p.ID)
	defer r.Close()
	sameAnomaly("reopened", p.Impulse())

	f, err := OpenReplica(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := r.ExportMeta()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyMeta(b); err != nil {
		t.Fatal(err)
	}
	fp, err := f.GetProject(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameAnomaly("replicated", fp.Impulse())
	for _, id := range []int{p.ID, other.ID} {
		lead, _ := os.ReadFile(filepath.Join(projectDir(dir, id), artifactFile))
		follow, _ := os.ReadFile(filepath.Join(projectDir(f.Dir(), id), artifactFile))
		if len(lead) == 0 || !bytes.Equal(lead, follow) {
			t.Fatalf("project %d: follower impulse.eim is not the leader's bytes", id)
		}
	}

	// A leader artefact the follower cannot load: that project loses its
	// impulse and reports why; the other still syncs.
	for i := range b.Projects {
		if b.Projects[i].ID == p.ID {
			b.Projects[i].Impulse = []byte("EPIM")
		} else {
			b.Projects[i].Impulse = artifact(t, motionImpulse(t, 200, false))
		}
	}
	if err := f.ApplyMeta(b); err != nil {
		t.Fatalf("one bad artefact failed the sync: %v", err)
	}
	if fp.Impulse() != nil || fp.ImpulseError() == nil {
		t.Fatalf("bad artefact: impulse %v, error %v", fp.Impulse(), fp.ImpulseError())
	}
	fo, _ := f.GetProject(other.ID)
	if fo.Impulse() == nil || fo.Impulse().Input.WindowMS != 200 {
		t.Fatal("the other project did not sync")
	}
}

package project

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/store"
)

// On-disk layout (v2):
//
//	<dir>/registry.json                    users, project headers (atomic write)
//	<dir>/projects/<id>/dataset/           segmented sample store (internal/store):
//	                      manifest.json    header index snapshot
//	                      journal.log      manifest op journal
//	                      segments/*.seg   CRC-framed CBOR sample records
//	<dir>/projects/<id>/impulse.eim        impulse artefact (core.ParseArtifact)
//
// A tree written before impulse.eim keeps the impulse in impulse.json,
// model.eptm and model_int8.eptm. It still loads (readLegacyImpulse),
// and the first write of the impulse replaces the three files.
//
// The v1 layout kept every sample inline in projects/<id>/dataset.json.
// Opening a v1 tree migrates it: samples stream into a fresh segmented
// store (content-addressed IDs — and therefore the dataset Version()
// hash — are preserved), and the old dataset.json is left in place,
// still readable by older builds. docs/STORAGE.md specifies both
// formats and the migration path.

// persistedUser is one user row in registry.json.
type persistedUser struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	APIKey string `json:"api_key"`
}

// persistedProject is one project header row in registry.json.
type persistedProject struct {
	ID            int       `json:"id"`
	Name          string    `json:"name"`
	OwnerID       string    `json:"owner_id"`
	HMACKey       string    `json:"hmac_key"`
	Public        bool      `json:"public"`
	Collaborators []string  `json:"collaborators"`
	Versions      []Version `json:"versions"`
}

// persistedRegistry is the registry.json schema.
type persistedRegistry struct {
	Users    []persistedUser    `json:"users"`
	Projects []persistedProject `json:"projects"`
	NextUser int                `json:"next_user"`
	NextProj int                `json:"next_proj"`
}

// persistedSample is the v1 dataset.json sample schema, kept for
// migration (and for older builds reading a migrated tree).
type persistedSample struct {
	Name     string            `json:"name"`
	Label    string            `json:"label"`
	Category data.Category     `json:"category"`
	Metadata map[string]string `json:"metadata,omitempty"`
	Rate     int               `json:"rate,omitempty"`
	Axes     int               `json:"axes"`
	Width    int               `json:"width,omitempty"`
	Height   int               `json:"height,omitempty"`
	Values   []float32         `json:"values"`
}

// migratedMarker, inside a project's store directory, records that the
// v1 dataset.json migration ran to completion.
const migratedMarker = "migrated"

// projectDir returns a project's directory under the registry root.
func projectDir(dir string, id int) string {
	return filepath.Join(dir, "projects", fmt.Sprint(id))
}

// datasetDir returns a project's segmented-store directory.
func datasetDir(dir string, id int) string {
	return filepath.Join(projectDir(dir, id), "dataset")
}

// Open loads (or initializes) a durable registry rooted at dir. Every
// project's dataset is opened as a lazy data.Dataset over its segmented
// store — uploads persist incrementally from then on, one segment
// append + manifest patch per sample, with no full-registry rewrite.
// v1 trees (inline dataset.json) are migrated in place on first open.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, "registry.json")); errors.Is(err, fs.ErrNotExist) {
		r := NewRegistry()
		r.dir = dir
		return r, nil
	}
	return Load(dir)
}

// Load restores a registry previously written by Save (or operated on
// by Open). Unlike Open it fails if no registry exists at dir. A
// project whose impulse does not load opens without one
// (Project.ImpulseError says why); the others are unaffected.
func Load(dir string) (*Registry, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "registry.json"))
	if err != nil {
		return nil, err
	}
	r := NewRegistry()
	r.dir = dir
	err = r.applyRegistryBlobLocked(blob, func(p *Project) error {
		p.persist = r.projectPersister(p)
		return openProjectDataset(dir, p)
	})
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// applyRegistryBlobLocked makes a registry.json blob the registry's
// users, counters and project headers. A project missing from the blob
// is closed and dropped; a new one gets its dataset from open and its
// impulse from its directory. Caller holds r.mu or owns r alone.
func (r *Registry) applyRegistryBlobLocked(blob []byte, open func(*Project) error) error {
	var pr persistedRegistry
	if err := json.Unmarshal(blob, &pr); err != nil {
		return fmt.Errorf("project: corrupt registry: %w", err)
	}
	r.users = make(map[string]*User, len(pr.Users))
	r.byKey = make(map[string]*User, len(pr.Users))
	for _, u := range pr.Users {
		user := &User{ID: u.ID, Name: u.Name, APIKey: u.APIKey}
		r.users[user.ID], r.byKey[user.APIKey] = user, user
	}
	r.nextUser, r.nextProj = pr.NextUser, pr.NextProj
	seen := make(map[int]bool, len(pr.Projects))
	for _, pp := range pr.Projects {
		seen[pp.ID] = true
		p, ok := r.projects[pp.ID]
		if !ok {
			p = &Project{ID: pp.ID, Name: pp.Name, OwnerID: pp.OwnerID, HMACKey: pp.HMACKey}
			if err := open(p); err != nil {
				return fmt.Errorf("project %d: %w", pp.ID, err)
			}
			p.setLoadedImpulse(readImpulse(projectDir(r.dir, p.ID)))
			r.projects[p.ID] = p
		}
		p.mu.Lock()
		p.collaborators = make(map[string]bool, len(pp.Collaborators))
		for _, c := range pp.Collaborators {
			p.collaborators[c] = true
		}
		p.public = pp.Public
		p.versions = append([]Version(nil), pp.Versions...)
		p.mu.Unlock()
	}
	for id, p := range r.projects {
		if !seen[id] {
			p.mu.Lock()
			if p.store != nil {
				p.store.Close()
				p.store = nil
			}
			p.mu.Unlock()
			delete(r.projects, id)
		}
	}
	return nil
}

// renderRegistryLocked marshals registry metadata. Caller holds r.mu
// (read or write).
func (r *Registry) renderRegistryLocked() ([]byte, error) {
	pr := persistedRegistry{NextUser: r.nextUser, NextProj: r.nextProj}
	for _, u := range r.users {
		pr.Users = append(pr.Users, persistedUser{ID: u.ID, Name: u.Name, APIKey: u.APIKey})
	}
	for _, p := range r.projects {
		pr.Projects = append(pr.Projects, persistedProject{
			ID: p.ID, Name: p.Name, OwnerID: p.OwnerID, HMACKey: p.HMACKey,
			Public: p.Public(), Collaborators: p.Collaborators(), Versions: p.Versions(),
		})
	}
	return json.MarshalIndent(pr, "", "  ")
}

// persistMetaLocked atomically writes registry.json if the registry is
// durable. Caller holds r.mu (read or write).
func (r *Registry) persistMetaLocked() error {
	if r.dir == "" {
		return nil
	}
	return r.writeRegistryLocked(r.dir)
}

// writeRegistryLocked atomically writes registry.json under dir. Caller
// holds r.mu (read or write); persistMu serializes the render+rename
// pair so concurrent write-through hooks cannot rename a stale snapshot
// over a fresher one.
func (r *Registry) writeRegistryLocked(dir string) error {
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	blob, err := r.renderRegistryLocked()
	if err != nil {
		return err
	}
	return store.AtomicWriteFile(filepath.Join(dir, "registry.json"), blob)
}

// openProjectDataset opens (creating or migrating as needed) a
// project's store-backed dataset.
func openProjectDataset(dir string, p *Project) error {
	sdir := datasetDir(dir, p.ID)
	v1Path := filepath.Join(projectDir(dir, p.ID), "dataset.json")
	// A dedicated marker file records migration completion — NOT
	// manifest.json existence, which the store's automatic journal
	// compaction can create mid-migration. Until the marker exists the
	// migration re-runs; that is safe because samples already committed
	// are skipped as duplicates (content-addressed IDs are
	// deterministic).
	marker := filepath.Join(sdir, migratedMarker)
	_, markerErr := os.Stat(marker)
	migrated := markerErr == nil
	st, err := store.Open(sdir, store.Options{})
	if err != nil {
		return err
	}
	ds, err := data.Open(st, 0)
	if err != nil {
		st.Close()
		return err
	}
	if !migrated {
		if err := migrateV1Dataset(v1Path, ds); err != nil {
			st.Close()
			return err
		}
		// Durable order: snapshot the migrated state first, then write
		// the completion marker.
		if err := st.Snapshot(); err != nil {
			st.Close()
			return err
		}
		if err := store.AtomicWriteFile(marker, []byte("v1 dataset.json migrated\n")); err != nil {
			st.Close()
			return err
		}
	}
	p.dataset = ds
	p.store = st
	return nil
}

// migrateV1Dataset streams a v1 inline-JSON dataset into a lazy
// dataset (and therefore its segmented store). Content-addressed IDs
// are recomputed by Add exactly as v1 ingestion computed them, so the
// dataset Version() hash is preserved bit-for-bit.
func migrateV1Dataset(v1Path string, ds *data.Dataset) error {
	blob, err := os.ReadFile(v1Path)
	if os.IsNotExist(err) {
		return nil // nothing to migrate
	}
	if err != nil {
		return err
	}
	var samples []persistedSample
	if err := json.Unmarshal(blob, &samples); err != nil {
		return fmt.Errorf("corrupt dataset: %w", err)
	}
	for _, ps := range samples {
		s := &data.Sample{
			Name: ps.Name, Label: ps.Label, Category: ps.Category, Metadata: ps.Metadata,
			Signal: dsp.Signal{
				Data: ps.Values, Rate: ps.Rate, Axes: ps.Axes,
				Width: ps.Width, Height: ps.Height,
			},
		}
		if _, err := ds.Add(s); err != nil {
			// Already committed by an interrupted earlier migration run.
			if errors.Is(err, data.ErrDuplicate) {
				continue
			}
			return fmt.Errorf("migrate sample %q: %w", ps.Name, err)
		}
	}
	return nil
}

// artifactFile is a project's impulse artefact, in its directory.
const artifactFile = "impulse.eim"

// legacyImpulseFiles are the design, float model and int8 model files
// that impulse.eim replaces.
var legacyImpulseFiles = [3]string{"impulse.json", "model.eptm", "model_int8.eptm"}

// readImpulse reads a project directory's impulse: impulse.eim, or the
// three files of the layout before it. Neither is no impulse.
func readImpulse(pdir string) (*core.Impulse, error) {
	blob, err := os.ReadFile(filepath.Join(pdir, artifactFile))
	if errors.Is(err, fs.ErrNotExist) {
		return readLegacyImpulse(pdir)
	}
	if err != nil {
		return nil, err
	}
	return core.ParseArtifact(blob)
}

// readLegacyImpulse loads a three-file impulse through the artefact
// loader. A model file that does not fit the design is dropped with a
// log line and the design kept: before impulse.eim a redesign rewrote
// impulse.json but left the old model files behind.
func readLegacyImpulse(pdir string) (*core.Impulse, error) {
	var imp *core.Impulse
	var keep [3][]byte
	for i, name := range legacyImpulseFiles {
		b, err := os.ReadFile(filepath.Join(pdir, name))
		switch {
		case errors.Is(err, fs.ErrNotExist) && i == 0:
			return nil, nil // no impulse configured
		case errors.Is(err, fs.ErrNotExist):
			continue
		case err != nil:
			return nil, err
		}
		keep[i] = b
		next, err := core.ParseArtifact(core.AssembleArtifact(keep[:]...))
		switch {
		case err == nil:
			imp = next
		case i == 0:
			return nil, err
		default:
			slog.Warn("project: dropping a model file that does not fit the impulse design",
				"file", filepath.Join(pdir, name), "err", err)
			keep[i] = nil
		}
	}
	return imp, nil
}

// Save durably writes the registry and every project (dataset and
// impulse artefact) under dir. All metadata files are
// written atomically (temp file + rename + fsync). Datasets already
// store-backed at dir persist incrementally, so Save only compacts
// their manifests; in-memory datasets are exported into fresh
// segmented stores. Saved state is portable across builds.
func (r *Registry) Save(dir string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, p := range r.projects {
		if err := saveProjectDataset(dir, p, dir == r.dir); err != nil {
			return err
		}
		// Serialize with the write-through hooks so a stale render
		// never lands over a fresher one.
		r.persistMu.Lock()
		err := saveImpulse(dir, p)
		r.persistMu.Unlock()
		if err != nil {
			return err
		}
	}
	return r.writeRegistryLocked(dir)
}

// saveProjectDataset writes one project's dataset to the target root.
func saveProjectDataset(dir string, p *Project, sameRoot bool) error {
	pdir := projectDir(dir, p.ID)
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		return err
	}
	switch {
	case p.store != nil && sameRoot:
		// Already durable under this root: compact the manifest so a
		// fresh open replays no journal.
		return p.store.Snapshot()
	default:
		// In-memory dataset (or export to a different root): stream
		// every sample into a segmented store at the target.
		return exportDataset(p.Dataset(), datasetDir(dir, p.ID))
	}
}

// saveImpulse writes one project's impulse artefact. A project without
// an impulse leaves its directory as it is, so an artefact that failed
// to load stays there to be looked at.
func saveImpulse(dir string, p *Project) error {
	imp := p.Impulse()
	if imp == nil {
		return nil
	}
	blob, err := imp.MarshalArtifact()
	if err != nil {
		return err
	}
	return writeArtifact(projectDir(dir, p.ID), blob)
}

// writeArtifact makes blob a project directory's impulse.eim (nil
// removes it), then removes the three files it replaces.
func writeArtifact(pdir string, blob []byte) error {
	path := filepath.Join(pdir, artifactFile)
	if blob == nil {
		if err := removeFile(path); err != nil {
			return err
		}
	} else if err := os.MkdirAll(pdir, 0o755); err != nil {
		return err
	} else if err := store.AtomicWriteFile(path, blob); err != nil {
		return err
	}
	for _, name := range legacyImpulseFiles {
		if err := removeFile(filepath.Join(pdir, name)); err != nil {
			return err
		}
	}
	return nil
}

// removeFile removes path; a file already gone is no error.
func removeFile(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// exportDataset replaces the segmented store at sdir with the full
// contents of ds, streaming samples batch-by-batch.
func exportDataset(ds *data.Dataset, sdir string) error {
	if err := os.RemoveAll(sdir); err != nil {
		return err
	}
	st, err := store.Open(sdir, store.Options{})
	if err != nil {
		return err
	}
	it := ds.Batches("", 64)
	for {
		batch, ok := it.Next()
		if !ok {
			break
		}
		for _, s := range batch {
			if err := st.Append(s); err != nil {
				st.Close()
				return err
			}
		}
	}
	if err := it.Err(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// Close releases every project's store handles. The registry remains
// readable in memory but stops persisting.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, p := range r.projects {
		if p.store != nil {
			if err := p.store.Close(); err != nil && first == nil {
				first = err
			}
			p.store = nil
		}
	}
	return first
}

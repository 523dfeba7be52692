package project

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"edgepulse/internal/data"
	"edgepulse/internal/store"
	"edgepulse/internal/tflm"
)

// Registry replication: a follower runs a read-only standby of one
// worker's registry. Dataset samples replicate at the store layer
// (segment bytes + journal frames, internal/store/replication.go);
// everything else — users, project headers, impulse designs,
// trained model blobs — is small metadata that replicates as a whole
// bundle: the primary exports a MetaBundle, the follower applies it,
// reconciling its in-memory registry and rewriting the same files a
// durable primary keeps on disk. A restarted follower therefore
// reopens from its own tree exactly like a worker does.

// ErrReplica reports a local mutation attempted on a read-only replica
// registry.
var ErrReplica = errors.New("project: read-only replica registry")

// ProjectMeta carries one project's design artifacts in a MetaBundle.
type ProjectMeta struct {
	ID int
	// Impulse is the impulse.json design blob (nil: none configured).
	Impulse []byte
	// Model and QModel are the trained EPTM weight blobs.
	Model  []byte
	QModel []byte
}

// MetaBundle is the control-plane state a primary exports for its
// follower: the registry.json snapshot plus per-project design blobs.
type MetaBundle struct {
	Registry []byte
	Projects []ProjectMeta
}

// Replica reports whether the registry is a read-only standby.
func (r *Registry) Replica() bool { return r.replica }

// Dir returns the registry's durable root ("" for in-memory).
func (r *Registry) Dir() string { return r.dir }

// OpenReplica opens dir as a read-only standby registry. Local
// mutations (CreateUser, CreateProject, ...) are rejected with
// ErrReplica; state advances only through ApplyMeta and the store-level
// replication apply path on each project's dataset. An existing tree
// (from an earlier follower run) is reloaded with every dataset opened
// in replica mode.
func OpenReplica(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := NewRegistry()
	r.dir = dir
	r.replica = true
	blob, err := os.ReadFile(filepath.Join(dir, "registry.json"))
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	if err := r.applyRegistryBlob(blob); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// ExportMeta renders the registry's control-plane state as a bundle a
// follower can apply. Blobs are marshaled from the live in-memory
// state, so the bundle is consistent even if a write-through persist
// is still in flight.
func (r *Registry) ExportMeta() (MetaBundle, error) {
	r.mu.RLock()
	blob, err := r.renderRegistryLocked()
	projects := make([]*Project, 0, len(r.projects))
	for _, p := range r.projects {
		projects = append(projects, p)
	}
	r.mu.RUnlock()
	if err != nil {
		return MetaBundle{}, err
	}
	b := MetaBundle{Registry: blob}
	for _, p := range projects {
		pm := ProjectMeta{ID: p.ID}
		if imp := p.Impulse(); imp != nil {
			cfg, err := json.Marshal(imp.Config())
			if err != nil {
				return MetaBundle{}, err
			}
			pm.Impulse = cfg
			if imp.Model != nil {
				if pm.Model, err = tflm.Marshal(tflm.ModelFileFromFloat(imp.Model)); err != nil {
					return MetaBundle{}, err
				}
			}
			if imp.QModel != nil {
				if pm.QModel, err = tflm.Marshal(tflm.ModelFileFromQuant(imp.QModel)); err != nil {
					return MetaBundle{}, err
				}
			}
		}
		b.Projects = append(b.Projects, pm)
	}
	return b, nil
}

// ApplyMeta reconciles a replica registry against a primary's exported
// bundle: users and counters are replaced; projects are created
// (with replica-mode dataset stores), updated, or dropped; the registry
// blob and per-project design blobs land on disk so a follower restart
// reopens the same state.
func (r *Registry) ApplyMeta(b MetaBundle) error {
	if !r.replica {
		return fmt.Errorf("project: ApplyMeta on a primary registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.applyRegistryBlobLocked(b.Registry); err != nil {
		return err
	}
	if err := store.AtomicWriteFile(filepath.Join(r.dir, "registry.json"), b.Registry); err != nil {
		return err
	}
	for _, pm := range b.Projects {
		p, ok := r.projects[pm.ID]
		if !ok {
			continue // header row missing from the registry blob
		}
		if err := r.applyProjectMetaLocked(p, pm); err != nil {
			return err
		}
	}
	return nil
}

// applyRegistryBlob parses and applies a registry.json blob, opening
// replica dataset stores for new projects.
func (r *Registry) applyRegistryBlob(blob []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyRegistryBlobLocked(blob)
}

func (r *Registry) applyRegistryBlobLocked(blob []byte) error {
	var pr persistedRegistry
	if err := json.Unmarshal(blob, &pr); err != nil {
		return fmt.Errorf("project: corrupt replicated registry: %w", err)
	}
	users := make(map[string]*User, len(pr.Users))
	byKey := make(map[string]*User, len(pr.Users))
	for _, u := range pr.Users {
		user := &User{ID: u.ID, Name: u.Name, APIKey: u.APIKey}
		users[user.ID] = user
		byKey[user.APIKey] = user
	}
	r.users, r.byKey = users, byKey
	r.nextUser, r.nextProj = pr.NextUser, pr.NextProj

	seen := make(map[int]bool, len(pr.Projects))
	for _, pp := range pr.Projects {
		seen[pp.ID] = true
		p, ok := r.projects[pp.ID]
		if !ok {
			p = &Project{
				ID: pp.ID, Name: pp.Name, OwnerID: pp.OwnerID, HMACKey: pp.HMACKey,
				collaborators: map[string]bool{},
			}
			st, err := store.OpenReplica(datasetDir(r.dir, pp.ID), store.Options{})
			if err != nil {
				return fmt.Errorf("project %d: open replica dataset: %w", pp.ID, err)
			}
			ds, err := data.Open(st, 0)
			if err != nil {
				st.Close()
				return fmt.Errorf("project %d: %w", pp.ID, err)
			}
			p.store, p.dataset = st, ds
			if imp, err := loadProjectImpulse(projectDir(r.dir, pp.ID)); err == nil && imp != nil {
				p.impulse = imp
			}
			r.projects[pp.ID] = p
		}
		p.mu.Lock()
		collabs := make(map[string]bool, len(pp.Collaborators))
		for _, c := range pp.Collaborators {
			collabs[c] = true
		}
		p.collaborators = collabs
		p.public = pp.Public
		p.versions = append([]Version(nil), pp.Versions...)
		p.mu.Unlock()
	}
	for id, p := range r.projects {
		if seen[id] {
			continue
		}
		p.mu.Lock()
		if p.store != nil {
			p.store.Close()
			p.store = nil
		}
		p.mu.Unlock()
		delete(r.projects, id)
	}
	return nil
}

// applyProjectMetaLocked writes one project's design blobs when they
// differ from disk and reloads the impulse. Caller holds r.mu.
func (r *Registry) applyProjectMetaLocked(p *Project, pm ProjectMeta) error {
	pdir := projectDir(r.dir, p.ID)
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		return err
	}
	changed := false
	for _, f := range []struct {
		name string
		blob []byte
	}{
		{"impulse.json", pm.Impulse},
		{"model.eptm", pm.Model},
		{"model_int8.eptm", pm.QModel},
	} {
		path := filepath.Join(pdir, f.name)
		if f.blob == nil {
			if _, err := os.Stat(path); err == nil {
				if err := os.Remove(path); err != nil {
					return err
				}
				changed = true
			}
			continue
		}
		cur, err := os.ReadFile(path)
		if err == nil && string(cur) == string(f.blob) {
			continue
		}
		if err := store.AtomicWriteFile(path, f.blob); err != nil {
			return err
		}
		changed = true
	}
	if !changed {
		return nil
	}
	imp, err := loadProjectImpulse(pdir)
	if err != nil {
		return fmt.Errorf("project %d: reload impulse: %w", p.ID, err)
	}
	p.mu.Lock()
	p.impulse = imp
	p.mu.Unlock()
	return nil
}

// ResetReplicaDataset closes and deletes a replica project's dataset
// tree ahead of a snapshot bootstrap: the follower then writes the
// primary's manifest blob and full segment copies (store.PrepareBootstrap
// / store.SegmentPath) into ReplicaDatasetDir and calls
// ReopenReplicaDataset.
func (r *Registry) ResetReplicaDataset(id int) error {
	if !r.replica {
		return fmt.Errorf("project: ResetReplicaDataset on a primary registry")
	}
	r.mu.RLock()
	p, ok := r.projects[id]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("project: no project %d", id)
	}
	p.mu.Lock()
	if p.store != nil {
		p.store.Close()
		p.store = nil
	}
	p.mu.Unlock()
	return os.RemoveAll(datasetDir(r.dir, id))
}

// ReplicaDatasetDir returns a project's dataset store root — where a
// snapshot bootstrap writes manifest and segment files.
func (r *Registry) ReplicaDatasetDir(id int) string { return datasetDir(r.dir, id) }

// ReopenReplicaDataset reopens a project's dataset store in replica
// mode after a snapshot bootstrap populated its tree, swapping in a
// fresh lazy dataset view.
func (r *Registry) ReopenReplicaDataset(id int) error {
	if !r.replica {
		return fmt.Errorf("project: ReopenReplicaDataset on a primary registry")
	}
	r.mu.RLock()
	p, ok := r.projects[id]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("project: no project %d", id)
	}
	st, err := store.OpenReplica(datasetDir(r.dir, id), store.Options{})
	if err != nil {
		return err
	}
	ds, err := data.Open(st, 0)
	if err != nil {
		st.Close()
		return err
	}
	p.mu.Lock()
	if p.store != nil {
		p.store.Close()
	}
	p.store, p.dataset = st, ds
	p.mu.Unlock()
	return nil
}

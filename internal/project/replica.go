package project

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"edgepulse/internal/data"
	"edgepulse/internal/store"
)

// Registry replication: a follower runs a read-only standby of one
// worker's registry. Dataset samples replicate at the store layer
// (segment bytes + journal frames, internal/store/replication.go);
// everything else — users, project headers, impulse artefacts — is
// small metadata that replicates as a whole bundle: the primary exports
// a MetaBundle, the follower applies it, reconciling its in-memory
// registry and writing the same files a durable primary keeps on disk.
// A restarted follower therefore reopens from its own tree exactly like
// a worker does.

// ErrReplica reports a local mutation attempted on a read-only replica
// registry.
var ErrReplica = errors.New("project: read-only replica registry")

// ProjectMeta carries one project's impulse in a MetaBundle.
type ProjectMeta struct {
	ID int
	// Impulse is the impulse artefact, the bytes of the project's
	// impulse.eim (nil: none configured).
	Impulse []byte
}

// MetaBundle is the control-plane state a primary exports for its
// follower: the registry.json snapshot plus per-project impulse artefacts.
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
	r.dir, r.replica = dir, true
	blob, err := os.ReadFile(filepath.Join(dir, "registry.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return r, nil
	}
	if err == nil {
		err = r.applyRegistryBlobLocked(blob, r.openReplicaDataset)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// openReplicaDataset opens a project's dataset store in replica mode.
func (r *Registry) openReplicaDataset(p *Project) error {
	st, err := store.OpenReplica(datasetDir(r.dir, p.ID), store.Options{})
	if err != nil {
		return fmt.Errorf("open replica dataset: %w", err)
	}
	ds, err := data.Open(st, 0)
	if err != nil {
		st.Close()
		return err
	}
	p.store, p.dataset = st, ds
	return nil
}

// ExportMeta renders the registry's control-plane state as a bundle a
// follower can apply. Blobs are marshaled from the live in-memory
// state, so the bundle is consistent even if a write-through persist
// is still in flight.
func (r *Registry) ExportMeta() (MetaBundle, error) {
	r.mu.RLock()
	blob, err := r.renderRegistryLocked()
	r.mu.RUnlock()
	if err != nil {
		return MetaBundle{}, err
	}
	b := MetaBundle{Registry: blob}
	for _, p := range r.Projects() {
		pm := ProjectMeta{ID: p.ID}
		if imp := p.Impulse(); imp != nil {
			if pm.Impulse, err = imp.MarshalArtifact(); err != nil {
				return MetaBundle{}, fmt.Errorf("project %d: %w", p.ID, err)
			}
		}
		b.Projects = append(b.Projects, pm)
	}
	return b, nil
}

// ApplyMeta reconciles a replica registry against a primary's exported
// bundle: users and counters are replaced; projects are created
// (with replica-mode dataset stores), updated, or dropped; the registry
// blob and the primary's impulse artefact bytes land on disk as they
// are, so a follower restart reopens the same state. An artefact that
// does not load costs its project the impulse; a project whose write
// fails is reported after the others are applied.
func (r *Registry) ApplyMeta(b MetaBundle) error {
	if !r.replica {
		return fmt.Errorf("project: ApplyMeta on a primary registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.applyRegistryBlobLocked(b.Registry, r.openReplicaDataset); err != nil {
		return err
	}
	if err := store.AtomicWriteFile(filepath.Join(r.dir, "registry.json"), b.Registry); err != nil {
		return err
	}
	var errs []error
	for _, pm := range b.Projects {
		p, ok := r.projects[pm.ID]
		if !ok {
			continue // header row missing from the registry blob
		}
		pdir := projectDir(r.dir, p.ID)
		if cur, err := os.ReadFile(filepath.Join(pdir, artifactFile)); err == nil && pm.Impulse != nil && bytes.Equal(cur, pm.Impulse) {
			continue
		}
		if err := writeArtifact(pdir, pm.Impulse); err != nil {
			errs = append(errs, fmt.Errorf("project %d: %w", p.ID, err))
			continue
		}
		p.setLoadedImpulse(readImpulse(pdir))
	}
	return errors.Join(errs...)
}

// ResetReplicaDataset closes and deletes a replica project's dataset
// tree ahead of a snapshot bootstrap: the follower then writes the
// primary's manifest blob and full segment copies (store.PrepareBootstrap
// / store.SegmentPath) into ReplicaDatasetDir and calls
// ReopenReplicaDataset.
func (r *Registry) ResetReplicaDataset(id int) error {
	p, err := r.replicaProject("ResetReplicaDataset", id)
	if err != nil {
		return err
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
	p, err := r.replicaProject("ReopenReplicaDataset", id)
	if err != nil {
		return err
	}
	fresh := &Project{ID: id}
	if err := r.openReplicaDataset(fresh); err != nil {
		return err
	}
	p.mu.Lock()
	if p.store != nil {
		p.store.Close()
	}
	p.store, p.dataset = fresh.store, fresh.dataset
	p.mu.Unlock()
	return nil
}

// replicaProject looks a project up for op, which only a replica
// registry serves.
func (r *Registry) replicaProject(op string, id int) (*Project, error) {
	if !r.replica {
		return nil, fmt.Errorf("project: %s on a primary registry", op)
	}
	return r.GetProject(id)
}

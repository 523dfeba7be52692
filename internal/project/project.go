// Package project implements the collaboration layer of the platform
// (paper Sec. 3 and 6.3): users with API keys, projects holding a
// dataset and an impulse, multi-user collaboration, project
// versioning (snapshots of dataset version + impulse design), and public
// projects discoverable by everyone.
package project

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/store"
)

// User is one platform account.
type User struct {
	ID     string
	Name   string
	APIKey string
}

// Version is a project snapshot: the paper's answer to the ML
// reproducibility problem — data, preprocessing, and model design
// captured together.
type Version struct {
	ID int
	// Note is the user-supplied description.
	Note string
	// DatasetVersion is the content hash of the dataset at snapshot time.
	DatasetVersion string
	// ImpulseConfig is the serialized impulse design (nil if unset).
	ImpulseConfig json.RawMessage
	CreatedAt     time.Time
}

// Project is one ML project.
type Project struct {
	ID      int
	Name    string
	OwnerID string
	// HMACKey authenticates device data ingestion.
	HMACKey string

	mu            sync.RWMutex
	collaborators map[string]bool
	public        bool
	dataset       *data.Dataset
	// store is the dataset's segmented backing store when the registry
	// is durable (opened via Open/Load); nil for in-memory registries.
	store *store.Store
	// persist, when set (durable registries), write-through-saves the
	// project's metadata after a mutation; withModels additionally
	// rewrites the impulse artefact. It must be invoked WITHOUT p.mu
	// held. Persistence failures are logged, not returned: the
	// in-memory state is already mutated and the next Save retries.
	persist func(withModels bool)
	impulse *core.Impulse
	// impulseErr is why the stored impulse did not load; the project
	// then has none. Setting an impulse clears it.
	impulseErr error
	versions   []Version
}

// persisted invokes the write-through hook if the registry is durable.
// withModels must be true only for mutations that change the impulse
// or its trained weights — the artefact is large and fsynced, so ACL
// and visibility flips persist registry metadata alone.
func (p *Project) persisted(withModels bool) {
	if p.persist != nil {
		p.persist(withModels)
	}
}

// Dataset returns the project's dataset. Guarded by the project lock:
// replication followers swap in a rebuilt view after applying journal
// ops (RefreshDataset).
func (p *Project) Dataset() *data.Dataset {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.dataset
}

// Store returns the dataset's segmented backing store, or nil for
// in-memory registries — the replication plane reads (primary) and
// applies (replica) segment bytes and journal frames through it.
// Guarded because replica bootstrap swaps the store out underneath.
func (p *Project) Store() *store.Store {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.store
}

// RefreshDataset rebuilds the lazy dataset view over the project's
// store. Replication followers call it after applying journal frames,
// which mutate the store's index underneath the Dataset's header cache.
func (p *Project) RefreshDataset() error {
	st := p.Store()
	if st == nil {
		return fmt.Errorf("project: project %d has no backing store", p.ID)
	}
	ds, err := data.Open(st, 0)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.dataset = ds
	p.mu.Unlock()
	return nil
}

// Impulse returns the configured impulse, or nil.
func (p *Project) Impulse() *core.Impulse {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.impulse
}

// ImpulseError reports why the stored impulse did not load, or nil.
func (p *Project) ImpulseError() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.impulseErr
}

// SetImpulse installs an impulse design. On durable registries the
// impulse artefact (design and trained state) persists immediately, so
// a crash after training keeps the trained impulse.
func (p *Project) SetImpulse(imp *core.Impulse) {
	p.mu.Lock()
	p.impulse, p.impulseErr = imp, nil
	p.mu.Unlock()
	p.persisted(true)
}

// setLoadedImpulse installs an impulse read from disk or from a leader.
// One that failed to load leaves the project without an impulse and is
// logged here, once per load.
func (p *Project) setLoadedImpulse(imp *core.Impulse, err error) {
	if err != nil {
		slog.Error("project: impulse does not load; the project has none", "project", p.ID, "err", err)
	}
	p.mu.Lock()
	p.impulse, p.impulseErr = imp, err
	p.mu.Unlock()
}

// Public reports whether the project is publicly listed.
func (p *Project) Public() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.public
}

// SetPublic toggles public visibility (paper Sec. 6.3).
func (p *Project) SetPublic(public bool) {
	p.mu.Lock()
	p.public = public
	p.mu.Unlock()
	p.persisted(false)
}

// AddCollaborator grants a user access.
func (p *Project) AddCollaborator(userID string) {
	p.mu.Lock()
	p.collaborators[userID] = true
	p.mu.Unlock()
	p.persisted(false)
}

// RemoveCollaborator revokes access (owners cannot be removed).
func (p *Project) RemoveCollaborator(userID string) {
	p.mu.Lock()
	delete(p.collaborators, userID)
	p.mu.Unlock()
	p.persisted(false)
}

// Collaborators lists user IDs with access (excluding the owner).
func (p *Project) Collaborators() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.collaborators))
	for id := range p.collaborators {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// CanAccess reports whether the user may read/write the project.
func (p *Project) CanAccess(userID string) bool {
	if userID == p.OwnerID {
		return true
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.collaborators[userID]
}

// Snapshot records a version of the current dataset + impulse design.
func (p *Project) Snapshot(note string) Version {
	p.mu.Lock()
	v := Version{
		ID:             len(p.versions) + 1,
		Note:           note,
		DatasetVersion: p.dataset.Version(),
		CreatedAt:      time.Now(),
	}
	if p.impulse != nil {
		if blob, err := json.Marshal(p.impulse.Config()); err == nil {
			v.ImpulseConfig = blob
		}
	}
	p.versions = append(p.versions, v)
	p.mu.Unlock()
	p.persisted(false)
	return v
}

// Versions lists snapshots oldest-first.
func (p *Project) Versions() []Version {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]Version(nil), p.versions...)
}

// Registry is the store of users and projects. A
// registry created by NewRegistry is purely in-memory; one opened via
// Open or Load is rooted at a directory and persists every project's
// dataset incrementally through internal/store.
type Registry struct {
	// dir is the durable root ("" for in-memory registries).
	dir string
	// replica marks a read-only standby registry (OpenReplica): local
	// mutations are rejected; state advances only via ApplyMeta and the
	// per-project replication apply path.
	replica bool
	// projOffset/projStride restrict project ID allocation to one
	// residue class (IDs ≡ projOffset mod projStride), so each worker in
	// a hash-mod sharded cluster mints IDs its own shard owns.
	projOffset int
	projStride int
	// persistMu serializes registry.json writes so a stale snapshot can
	// never rename over a fresher one. Lock order: r.mu before
	// persistMu, always.
	persistMu sync.Mutex
	mu        sync.RWMutex
	users     map[string]*User // by ID
	byKey     map[string]*User // by API key
	projects  map[int]*Project
	nextUser  int
	nextProj  int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		users:    map[string]*User{},
		byKey:    map[string]*User{},
		projects: map[int]*Project{},
	}
}

// SetProjectIDStride restricts project ID allocation to IDs ≡ offset
// (mod stride). Cluster workers call it with their shard id and the
// shard count so every ID they mint hashes back to their own shard;
// stride <= 1 restores unrestricted allocation.
func (r *Registry) SetProjectIDStride(offset, stride int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.projOffset, r.projStride = offset, stride
}

func randomKey(prefix string) string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return prefix + hex.EncodeToString(b)
}

// CreateUser registers a user and mints an API key.
func (r *Registry) CreateUser(name string) (*User, error) {
	if name == "" {
		return nil, fmt.Errorf("project: user name required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.replica {
		return nil, ErrReplica
	}
	r.nextUser++
	u := &User{
		ID:     fmt.Sprintf("user-%d", r.nextUser),
		Name:   name,
		APIKey: randomKey("ei_"),
	}
	r.users[u.ID] = u
	r.byKey[u.APIKey] = u
	if err := r.persistMetaLocked(); err != nil {
		delete(r.users, u.ID)
		delete(r.byKey, u.APIKey)
		r.nextUser--
		return nil, fmt.Errorf("project: persist registry: %w", err)
	}
	return u, nil
}

// AdmitUser inserts a pre-minted account (identity and API key chosen
// elsewhere) — the cluster gateway creates each user on one worker and
// broadcasts the minted identity to the rest, so every shard
// authenticates the same key. Idempotent for exact redelivery.
func (r *Registry) AdmitUser(id, name, apiKey string) (*User, error) {
	if id == "" || apiKey == "" {
		return nil, fmt.Errorf("project: user id and api key required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.replica {
		return nil, ErrReplica
	}
	if u, ok := r.users[id]; ok {
		if u.APIKey == apiKey {
			return u, nil // redelivered
		}
		return nil, fmt.Errorf("project: user %s already exists with a different key", id)
	}
	if _, ok := r.byKey[apiKey]; ok {
		return nil, fmt.Errorf("project: API key already in use")
	}
	u := &User{ID: id, Name: name, APIKey: apiKey}
	r.users[id] = u
	r.byKey[apiKey] = u
	// Keep local allocation ahead of admitted "user-N" identities so a
	// future CreateUser here cannot collide.
	var n int
	if _, err := fmt.Sscanf(id, "user-%d", &n); err == nil && n > r.nextUser {
		r.nextUser = n
	}
	if err := r.persistMetaLocked(); err != nil {
		delete(r.users, id)
		delete(r.byKey, apiKey)
		return nil, fmt.Errorf("project: persist registry: %w", err)
	}
	return u, nil
}

// Authenticate resolves an API key to its user.
func (r *Registry) Authenticate(apiKey string) (*User, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.byKey[apiKey]
	if !ok {
		return nil, fmt.Errorf("project: invalid API key")
	}
	return u, nil
}

// GetUser returns a user by ID.
func (r *Registry) GetUser(id string) (*User, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.users[id]
	if !ok {
		return nil, fmt.Errorf("project: no user %s", id)
	}
	return u, nil
}

// CreateProject makes a project owned by the user, with a fresh dataset
// and ingestion HMAC key.
func (r *Registry) CreateProject(name, ownerID string) (*Project, error) {
	if name == "" {
		return nil, fmt.Errorf("project: project name required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.replica {
		return nil, ErrReplica
	}
	if _, ok := r.users[ownerID]; !ok {
		return nil, fmt.Errorf("project: no user %s", ownerID)
	}
	prevNext := r.nextProj
	r.nextProj++
	if r.projStride > 1 {
		// Advance to this worker's residue class so the hash-mod shard
		// map routes the new ID back here.
		for r.nextProj%r.projStride != r.projOffset%r.projStride {
			r.nextProj++
		}
	}
	p := &Project{
		ID:            r.nextProj,
		Name:          name,
		OwnerID:       ownerID,
		HMACKey:       randomKey("hmac_"),
		collaborators: map[string]bool{},
		dataset:       data.New(),
	}
	if r.dir != "" {
		// Durable registry: back the dataset with a segmented store so
		// every upload persists incrementally.
		if err := openProjectDataset(r.dir, p); err != nil {
			r.nextProj = prevNext
			return nil, fmt.Errorf("project: open dataset store: %w", err)
		}
		p.persist = r.projectPersister(p)
	}
	r.projects[p.ID] = p
	if err := r.persistMetaLocked(); err != nil {
		delete(r.projects, p.ID)
		r.nextProj = prevNext
		if p.store != nil {
			// Roll back the store opened above: release its handles
			// and remove the half-created dataset directory.
			p.store.Close()
			p.store = nil
			os.RemoveAll(datasetDir(r.dir, p.ID))
		}
		return nil, fmt.Errorf("project: persist registry: %w", err)
	}
	return p, nil
}

// projectPersister builds the write-through hook for one project:
// registry metadata (headers, flags, versions) always, and — only for
// impulse/model mutations — the project's impulse artefact.
// Failures are logged; the mutation already happened in memory and the
// next Save retries the write.
func (r *Registry) projectPersister(p *Project) func(withModels bool) {
	return func(withModels bool) {
		r.mu.RLock()
		err := r.persistMetaLocked()
		r.mu.RUnlock()
		if err != nil {
			slog.Error("project: write-through registry persist failed", "err", err)
		}
		if !withModels {
			return
		}
		r.persistMu.Lock()
		err = saveImpulse(r.dir, p)
		r.persistMu.Unlock()
		if err != nil {
			slog.Error("project: write-through project persist failed", "project", p.ID, "err", err)
		}
	}
}

// GetProject returns a project by ID.
func (r *Registry) GetProject(id int) (*Project, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.projects[id]
	if !ok {
		return nil, fmt.Errorf("project: no project %d", id)
	}
	return p, nil
}

// ListAccessible returns projects a user owns or collaborates on, by ID.
func (r *Registry) ListAccessible(userID string) []*Project {
	return r.list(func(p *Project) bool { return p.CanAccess(userID) })
}

// Projects returns every project, by ID — the replication plane
// iterates all shards' data without ACL scoping.
func (r *Registry) Projects() []*Project {
	return r.list(func(*Project) bool { return true })
}

// ListPublic returns all public projects, by ID — the searchable index of
// paper Sec. 6.3.
func (r *Registry) ListPublic() []*Project { return r.list((*Project).Public) }

// list returns the projects keep accepts, by ID.
func (r *Registry) list(keep func(*Project) bool) []*Project {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Project
	for _, p := range r.projects {
		if keep(p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CloneProject copies a public project's dataset and impulse design into
// a new project owned by the user (the "clone public project" flow).
func (r *Registry) CloneProject(srcID int, ownerID string) (*Project, error) {
	src, err := r.GetProject(srcID)
	if err != nil {
		return nil, err
	}
	if !src.Public() && !src.CanAccess(ownerID) {
		return nil, fmt.Errorf("project: project %d is not public", srcID)
	}
	dst, err := r.CreateProject(src.Name+" (clone)", ownerID)
	if err != nil {
		return nil, err
	}
	it := src.Dataset().Batches("", 64)
	for {
		batch, ok := it.Next()
		if !ok {
			break
		}
		for _, s := range batch {
			clone := *s
			clone.ID = ""
			clone.Metadata = map[string]string{}
			for k, v := range s.Metadata {
				clone.Metadata[k] = v
			}
			if _, err := dst.Dataset().Add(&clone); err != nil {
				return nil, err
			}
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	if imp := src.Impulse(); imp != nil {
		cloned, err := core.FromConfig(imp.Config())
		if err != nil {
			return nil, err
		}
		dst.SetImpulse(cloned)
	}
	return dst, nil
}

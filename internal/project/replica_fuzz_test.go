package project

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"testing"
)

// metaIDs lists a registry's user IDs and project IDs, sorted.
func metaIDs(r *Registry) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	users := make([]string, 0, len(r.users))
	for id := range r.users {
		users = append(users, id)
	}
	projects := make([]int, 0, len(r.projects))
	for id := range r.projects {
		projects = append(projects, id)
	}
	sort.Strings(users)
	sort.Ints(projects)
	return fmt.Sprint(users, projects)
}

// FuzzApplyMeta applies a bundle read from a peer, its registry blob and
// one project's impulse artefact, to a fresh replica. Nothing may panic;
// a bundle ApplyMeta accepts reopens through OpenReplica with the same
// user and project IDs, and after a refused one the directory still
// reopens.
func FuzzApplyMeta(f *testing.F) {
	// An artefact that does not load is logged; keep the fuzzer's output
	// readable.
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	lead := NewRegistry()
	u, err := lead.CreateUser("ada")
	if err != nil {
		f.Fatal(err)
	}
	p, err := lead.CreateProject("motion", u.ID)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := lead.CreateProject("other", u.ID); err != nil {
		f.Fatal(err)
	}
	p.SetImpulse(motionImpulse(f, 100, false))
	b, err := lead.ExportMeta()
	if err != nil {
		f.Fatal(err)
	}
	var imp []byte
	for _, pm := range b.Projects {
		if pm.ID == p.ID {
			imp = pm.Impulse
		}
	}
	f.Add(b.Registry, imp)
	f.Add(b.Registry, []byte(nil))
	f.Add(b.Registry, []byte("EPIM"))
	f.Add(b.Registry[:len(b.Registry)/2], imp)
	f.Add([]byte(`null`), imp)
	f.Add([]byte(`{"users":[{"id":"u1"},{"id":"u1"}],"projects":[{"id":1},{"id":1},{"id":-3}]}`), imp[:len(imp)/2])

	f.Fuzz(func(t *testing.T, registry, artefact []byte) {
		dir := t.TempDir()
		r, err := OpenReplica(dir)
		if err != nil {
			t.Fatal(err)
		}
		applyErr := r.ApplyMeta(MetaBundle{Registry: registry, Projects: []ProjectMeta{{ID: p.ID, Impulse: artefact}}})
		applied := metaIDs(r)
		r.Close()
		back, err := OpenReplica(dir)
		if err != nil {
			t.Fatalf("reopen after ApplyMeta (error %v): %v", applyErr, err)
		}
		defer back.Close()
		if got := metaIDs(back); applyErr == nil && got != applied {
			t.Fatalf("reopened with %s, applied %s", got, applied)
		}
	})
}

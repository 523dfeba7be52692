package api

import (
	"crypto/subtle"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
	"edgepulse/internal/store"
)

// Cluster-plane endpoints, registered only on nodes configured with
// WithClusterNode: node identity (for the gateway's shard map and lag
// probes), user admission (cross-shard auth broadcast), and the
// replication feed a follower tails — registry metadata, per-project
// store state, journal frames, and raw segment byte ranges. All of
// them sit behind an optional shared cluster token and bypass the
// admission gate and rate limiter: replication must keep flowing
// exactly when the node is under pressure.

// ClusterTokenHeader authenticates intra-cluster requests when the
// node was configured with a cluster token.
const ClusterTokenHeader = "X-Cluster-Token"

// clusterNode is a node's cluster identity.
type clusterNode struct {
	name   string
	role   string // "worker" | "follower"
	shard  int
	shards int
}

// WithClusterNode assigns the server a cluster identity and enables the
// cluster-plane endpoints. role is "worker" or "follower"; shard is the
// node's shard index in [0, shards).
func WithClusterNode(name, role string, shard, shards int) Option {
	return func(s *Server) {
		s.cluster = &clusterNode{name: name, role: role, shard: shard, shards: shards}
	}
}

// WithClusterToken guards the cluster-plane endpoints with a shared
// secret carried in X-Cluster-Token. Empty leaves them open (tests,
// trusted networks).
func WithClusterToken(token string) Option {
	return func(s *Server) { s.clusterToken = token }
}

// ShardID returns the node's shard index (-1 when not clustered) — the
// access log includes it so one request is attributable to a shard
// across gateway hops.
func (s *Server) ShardID() int {
	if s.cluster == nil {
		return -1
	}
	return s.cluster.shard
}

// clusterRoutes registers the cluster plane. Exempt from the limiter and
// the gate: a follower must keep syncing from an overloaded primary.
func (s *Server) clusterRoutes() {
	if s.cluster == nil {
		return
	}
	cl := routeOpts{class: resilience.ClassInteractive, exempt: true, budget: 30 * time.Second}
	s.route("GET /cluster/node", cl, s.clusterAuth(s.handleClusterNode))
	s.route("POST /cluster/users", cl, s.clusterAuth(s.handleClusterAdmitUser))
	s.route("GET /cluster/replication/meta", cl, s.clusterAuth(s.handleReplicationMeta))
	s.route("GET /cluster/replication/projects/{id}/state", cl, s.clusterAuth(s.handleReplicationState))
	s.route("GET /cluster/replication/projects/{id}/manifest", cl, s.clusterAuth(s.handleReplicationManifest))
	s.route("GET /cluster/replication/projects/{id}/journal", cl, s.clusterAuth(s.handleReplicationJournal))
	s.route("GET /cluster/replication/projects/{id}/segments/{seg}", cl, s.clusterAuth(s.handleReplicationSegment))
}

// clusterAuth enforces the shared cluster token when one is set.
func (s *Server) clusterAuth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.clusterToken != "" &&
			subtle.ConstantTimeCompare([]byte(r.Header.Get(ClusterTokenHeader)), []byte(s.clusterToken)) != 1 {
			WriteError(w, r, http.StatusForbidden, v1.CodeForbidden, "bad cluster token")
			return
		}
		next(w, r)
	}
}

// handleClusterNode reports the node's identity and per-project store
// versions; the gateway diffs a follower's versions against its
// primary's to compute replication lag.
func (s *Server) handleClusterNode(w http.ResponseWriter, r *http.Request) {
	out := v1.ClusterNodeResponse{
		Success: true,
		Name:    s.cluster.name,
		Role:    s.cluster.role,
		Shard:   s.cluster.shard,
		Shards:  s.cluster.shards,
	}
	for _, p := range s.registry.Projects() {
		if st := p.Store(); st != nil {
			if out.Projects == nil {
				out.Projects = map[int]uint64{}
			}
			out.Projects[p.ID] = st.Committed()
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleClusterAdmitUser inserts a pre-minted account, letting the
// gateway broadcast one user identity to every worker.
func (s *Server) handleClusterAdmitUser(w http.ResponseWriter, r *http.Request) {
	var req v1.AdmitUserRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	u, err := s.registry.AdmitUser(req.ID, req.Name, req.APIKey)
	if err != nil {
		status, code := http.StatusBadRequest, v1.CodeBadRequest
		if errors.Is(err, project.ErrReplica) {
			status, code = http.StatusConflict, v1.CodeConflict
		}
		WriteError(w, r, status, code, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.CreateUserResponse{
		Success: true, ID: u.ID, Name: u.Name, APIKey: u.APIKey,
	})
}

// handleReplicationMeta exports the registry's control-plane state
// (users, project headers, impulse artefacts).
func (s *Server) handleReplicationMeta(w http.ResponseWriter, r *http.Request) {
	b, err := s.registry.ExportMeta()
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	}
	out := v1.ClusterMetaResponse{Success: true, Registry: b.Registry}
	for _, pm := range b.Projects {
		out.Projects = append(out.Projects, v1.ProjectMetaBlob{
			ID: pm.ID, Impulse: pm.Impulse,
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

// replicationStore resolves {id} to a project's backing store, writing
// the error response itself on failure.
func (s *Server) replicationStore(w http.ResponseWriter, r *http.Request) *store.Store {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "bad project id")
		return nil
	}
	p, err := s.registry.GetProject(id)
	if err != nil {
		WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, err.Error())
		return nil
	}
	st := p.Store()
	if st == nil {
		WriteError(w, r, http.StatusConflict, v1.CodeConflict, "project has no durable store")
		return nil
	}
	return st
}

func (s *Server) handleReplicationState(w http.ResponseWriter, r *http.Request) {
	st := s.replicationStore(w, r)
	if st == nil {
		return
	}
	rs, err := st.ReplicationState()
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	}
	out := v1.ReplicationStateResponse{
		Success: true, Version: rs.Version, SnapVersion: rs.SnapVersion,
	}
	for _, seg := range rs.Segments {
		out.Segments = append(out.Segments, v1.ReplicationSegment{Index: seg.Index, Size: seg.Size})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleReplicationManifest(w http.ResponseWriter, r *http.Request) {
	st := s.replicationStore(w, r)
	if st == nil {
		return
	}
	blob, version, err := st.ManifestBlob()
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.ReplicationManifestResponse{
		Success: true, Manifest: blob, Version: version,
	})
}

// handleReplicationJournal returns raw journal frames for versions in
// (since, upto]. A cursor older than the retained journal answers 409
// conflict — the follower must bootstrap from the manifest instead.
func (s *Server) handleReplicationJournal(w http.ResponseWriter, r *http.Request) {
	st := s.replicationStore(w, r)
	if st == nil {
		return
	}
	since, err := parseUintParam(r, "since")
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	upto, err := parseUintParam(r, "upto")
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	frames, last, err := st.JournalSince(since, upto)
	switch {
	case errors.Is(err, store.ErrReplicationGap):
		WriteError(w, r, http.StatusConflict, v1.CodeConflict, err.Error())
		return
	case err != nil:
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.ReplicationJournalResponse{Success: true, Frames: frames, Last: last})
}

// handleReplicationSegment streams one segment's committed bytes from
// the requested offset as an octet stream; the committed size the range
// runs to is carried in X-Segment-Size.
func (s *Server) handleReplicationSegment(w http.ResponseWriter, r *http.Request) {
	st := s.replicationStore(w, r)
	if st == nil {
		return
	}
	seg, err := strconv.Atoi(r.PathValue("seg"))
	if err != nil || seg <= 0 {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "bad segment index")
		return
	}
	from, err := parseUintParam(r, "from")
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	rd, size, err := st.SegmentReader(seg, int64(from))
	if err != nil {
		WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Segment-Size", strconv.FormatInt(size, 10))
	w.Header().Set("Content-Length", strconv.FormatInt(size-int64(from), 10))
	io.Copy(w, rd)
}

// parseUintParam reads an optional non-negative integer query
// parameter (0 when absent).
func parseUintParam(r *http.Request, name string) (uint64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, errors.New(name + " must be a non-negative integer")
	}
	return v, nil
}

package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/synth"
)

// clusterEnv serves a durable registry with one project and a few
// samples on a node that has the cluster plane enabled.
func clusterEnv(t *testing.T, token string) (*testEnv, int) {
	t.Helper()
	reg, err := project.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	owner, err := reg.CreateUser("owner")
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.CreateProject("kws", owner.ID)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.KWSDataset(2, 2, 8000, 0.25, 0.03, 7)
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
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1, ScaleInterval: 10 * time.Millisecond})
	t.Cleanup(sched.Shutdown)
	s := NewServer(reg, sched, WithClusterNode("w0", "worker", 0, 1), WithClusterToken(token))
	if s.ShardID() != 0 {
		t.Fatalf("shard id %d", s.ShardID())
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return &testEnv{t: t, server: srv, sched: sched, reg: reg, apiKey: owner.APIKey}, p.ID
}

// clusterGet issues a GET carrying the cluster token.
func (e *testEnv) clusterGet(path, token string) (*http.Response, []byte) {
	e.t.Helper()
	req, err := http.NewRequest("GET", e.server.URL+path, nil)
	if err != nil {
		e.t.Fatal(err)
	}
	req.Header.Set(ClusterTokenHeader, token)
	return e.doReq(req)
}

func TestClusterPlaneReplicationFeed(t *testing.T) {
	const token = "s3cret"
	e, id := clusterEnv(t, token)
	base := fmt.Sprintf("/api/v1/cluster/replication/projects/%d", id)

	// The token guards every cluster route.
	if resp, _ := e.clusterGet("/api/v1/cluster/node", "wrong"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bad token: %d", resp.StatusCode)
	}

	resp, raw := e.clusterGet("/api/v1/cluster/node", token)
	var node v1.ClusterNodeResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &node) != nil {
		t.Fatalf("node: %d %s", resp.StatusCode, raw)
	}
	if node.Name != "w0" || node.Role != "worker" || node.Shards != 1 || node.Projects[id] == 0 {
		t.Fatalf("node: %+v", node)
	}

	resp, raw = e.clusterGet("/api/v1/cluster/replication/meta", token)
	var meta v1.ClusterMetaResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &meta) != nil || len(meta.Registry) == 0 {
		t.Fatalf("meta: %d %s", resp.StatusCode, raw)
	}

	resp, raw = e.clusterGet(base+"/state", token)
	var state v1.ReplicationStateResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &state) != nil {
		t.Fatalf("state: %d %s", resp.StatusCode, raw)
	}
	if state.Version != node.Projects[id] || len(state.Segments) == 0 {
		t.Fatalf("state: %+v (node version %d)", state, node.Projects[id])
	}

	resp, raw = e.clusterGet(base+"/manifest", token)
	var man v1.ReplicationManifestResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &man) != nil || len(man.Manifest) == 0 {
		t.Fatalf("manifest: %d %s", resp.StatusCode, raw)
	}

	resp, raw = e.clusterGet(fmt.Sprintf("%s/journal?since=%d", base, man.Version), token)
	var jr v1.ReplicationJournalResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &jr) != nil {
		t.Fatalf("journal: %d %s", resp.StatusCode, raw)
	}
	if jr.Last != state.Version {
		t.Fatalf("journal last %d, committed %d", jr.Last, state.Version)
	}

	seg := state.Segments[0]
	resp, raw = e.clusterGet(fmt.Sprintf("%s/segments/%d?from=0", base, seg.Index), token)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("segment: %d %s", resp.StatusCode, raw)
	}
	if size, _ := strconv.ParseInt(resp.Header.Get("X-Segment-Size"), 10, 64); size != seg.Size || int64(len(raw)) != seg.Size {
		t.Fatalf("segment size header %q, body %d, state %d", resp.Header.Get("X-Segment-Size"), len(raw), seg.Size)
	}

	// Malformed and unknown references.
	for path, want := range map[string]int{
		"/api/v1/cluster/replication/projects/x/state":       http.StatusBadRequest,
		"/api/v1/cluster/replication/projects/999/state":     http.StatusNotFound,
		base + "/journal?since=-1":                           http.StatusBadRequest,
		base + "/journal?upto=x":                             http.StatusBadRequest,
		base + "/segments/0":                                 http.StatusBadRequest,
		base + fmt.Sprintf("/segments/%d?from=x", seg.Index): http.StatusBadRequest,
		base + "/segments/999":                               http.StatusNotFound,
	} {
		if resp, raw := e.clusterGet(path, token); resp.StatusCode != want {
			t.Errorf("%s: %d, want %d (%s)", path, resp.StatusCode, want, raw)
		}
	}
}

func TestClusterPlaneAdmitUser(t *testing.T) {
	const token = "s3cret"
	e, _ := clusterEnv(t, token)
	admit := func(body string) (*http.Response, []byte) {
		req, err := http.NewRequest("POST", e.server.URL+"/api/v1/cluster/users", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ClusterTokenHeader, token)
		return e.doReq(req)
	}
	resp, raw := admit(`{"id":"user-9","name":"remote","api_key":"ei_remote"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d %s", resp.StatusCode, raw)
	}
	if u, err := e.reg.Authenticate("ei_remote"); err != nil || u.ID != "user-9" {
		t.Fatalf("admitted user: %v %v", u, err)
	}
	if resp, raw := admit(`{"id":"user-9","nope":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, raw)
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	e := newEnv(t)
	e.expectStatus("GET", "/api/v1/devices", "", nil, http.StatusOK)
	resp, raw := e.doRaw("GET", "/api/v1/metrics?format=prometheus", e.apiKey, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus: %d %s", resp.StatusCode, raw)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE ei_requests_total counter",
		`ei_route_requests_total{route="GET /api/v1/devices"} 1`,
		"ei_scheduler_workers ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus body lacks %q:\n%s", want, body)
		}
	}
}

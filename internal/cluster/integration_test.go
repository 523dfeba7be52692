package cluster

// In-package integration suite: real workers (durable registries +
// full API servers over httptest), a follower replicating shard 0, and
// the gateway in front — the same topology cmd/ei-gateway and
// ei-studio's -shards/-follow roles assemble in production.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
)

const testToken = "cluster-secret"

// chaos is a settable readiness-probe failure, the test's stand-in for
// a dying worker.
type chaos struct {
	mu  sync.Mutex
	err error
}

func (c *chaos) set(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

func (c *chaos) probe() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// testNode is one booted cluster member.
type testNode struct {
	name  string
	reg   *project.Registry
	srv   *httptest.Server
	chaos *chaos
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// startWorker boots a durable shard-owning worker.
func startWorker(t *testing.T, shard, shards int) *testNode {
	t.Helper()
	reg, err := project.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	reg.SetProjectIDStride(shard, shards)
	return startNode(t, reg, fmt.Sprintf("worker-%d", shard), RoleWorker, shard, shards)
}

// startFollower boots a replica node plus its sync loop (not started).
func startFollower(t *testing.T, primary *testNode, shard, shards int) (*testNode, *Follower) {
	t.Helper()
	reg, err := project.OpenReplica(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	n := startNode(t, reg, fmt.Sprintf("follower-%d", shard), RoleFollower, shard, shards)
	f, err := NewFollower(reg, FollowerConfig{
		PrimaryURL: primary.srv.URL,
		Token:      testToken,
		Interval:   25 * time.Millisecond,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, f
}

func startNode(t *testing.T, reg *project.Registry, name, role string, shard, shards int) *testNode {
	t.Helper()
	ch := &chaos{}
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 2, ScaleInterval: 5 * time.Millisecond})
	t.Cleanup(sched.Shutdown)
	server := api.NewServer(reg, sched,
		api.WithLogger(quietLogger()),
		api.WithClusterNode(name, role, shard, shards),
		api.WithClusterToken(testToken),
		api.WithReadinessProbe("chaos", ch.probe),
	)
	t.Cleanup(server.Close)
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)
	return &testNode{name: name, reg: reg, srv: srv, chaos: ch}
}

// startGateway fronts the nodes with a fast-polling gateway.
func startGateway(t *testing.T, m *Map) (*Gateway, *httptest.Server) {
	t.Helper()
	gw := NewGateway(m, GatewayConfig{
		Token:        testToken,
		PollInterval: 25 * time.Millisecond,
		Logger:       quietLogger(),
	})
	gw.Start()
	t.Cleanup(gw.Stop)
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	return gw, srv
}

// signedDoc builds a unique tiny acquisition document.
func signedDoc(t *testing.T, hmacKey string, seq int) []byte {
	t.Helper()
	values := make([][]float64, 8)
	for i := range values {
		values[i] = []float64{float64(seq*8 + i)}
	}
	doc, err := ingest.SignJSON(ingest.Payload{
		DeviceName: "sim-01", DeviceType: "NANO33BLE",
		IntervalMS: 1000.0 / 100.0,
		Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
		Values:     values,
	}, hmacKey, 1670000000+int64(seq))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func uploadN(t *testing.T, c *client.Client, proj *v1.CreateProjectResponse, n, base int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := c.UploadSample(ctx, proj.ID, client.UploadParams{
			Label: "yes", Name: fmt.Sprintf("s-%d", base+i), Format: "acquisition",
		}, signedDoc(t, proj.HMACKey, base+i)); err != nil {
			t.Fatalf("upload %d: %v", base+i, err)
		}
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// datasetVersion reads a project's dataset content hash on a node.
func datasetVersion(n *testNode, id int) string {
	p, err := n.reg.GetProject(id)
	if err != nil {
		return "err:" + err.Error()
	}
	return p.Dataset().Version()
}

// rawGet issues a GET with the API key, returning the response.
func rawGet(t *testing.T, url, apiKey, requestID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("x-api-key", apiKey)
	if requestID != "" {
		req.Header.Set(api.RequestIDHeader, requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClusterLifecycle is the tentpole proof: cross-shard placement,
// replication, request-ID preservation, outage failover with write
// shedding, bounded recovery, and the status/metrics surfaces.
func TestClusterLifecycle(t *testing.T) {
	w0 := startWorker(t, 0, 2)
	w1 := startWorker(t, 1, 2)
	f0, follower := startFollower(t, w0, 0, 2)
	m := &Map{Shards: 2, Nodes: []Node{
		{Name: w0.name, URL: w0.srv.URL, Role: RoleWorker, Shard: 0},
		{Name: w1.name, URL: w1.srv.URL, Role: RoleWorker, Shard: 1},
		{Name: f0.name, URL: f0.srv.URL, Role: RoleFollower, Shard: 0},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	gw, gwSrv := startGateway(t, m)
	follower.Start()
	t.Cleanup(follower.Stop)

	ctx := context.Background()
	c := client.New(gwSrv.URL)
	user, err := c.CreateUser(ctx, "cluster-bot")
	if err != nil {
		t.Fatal(err)
	}
	c = c.WithAPIKey(user.APIKey)

	// The admit broadcast lands the user on both workers.
	for _, w := range []*testNode{w0, w1} {
		if _, err := w.reg.Authenticate(user.APIKey); err != nil {
			t.Fatalf("user not admitted on %s: %v", w.name, err)
		}
	}

	// Two creations round-robin across the two primaries; ID striding
	// puts them on different shards.
	pa, err := c.CreateProject(ctx, "proj-a")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.CreateProject(ctx, "proj-b")
	if err != nil {
		t.Fatal(err)
	}
	if pa.ID%2 == pb.ID%2 {
		t.Fatalf("projects landed on one shard: ids %d, %d", pa.ID, pb.ID)
	}
	p0, p1 := pa, pb // p0 on shard 0, p1 on shard 1
	if pa.ID%2 != 0 {
		p0, p1 = pb, pa
	}

	// Uploads through the gateway land in the owning worker's store —
	// and only there.
	uploadN(t, c, p0, 6, 0)
	uploadN(t, c, p1, 4, 100)
	if p, err := w0.reg.GetProject(p0.ID); err != nil || p.Dataset().Len() != 6 {
		t.Fatalf("worker-0 store for project %d: %v", p0.ID, err)
	}
	if p, err := w1.reg.GetProject(p1.ID); err != nil || p.Dataset().Len() != 4 {
		t.Fatalf("worker-1 store for project %d: %v", p1.ID, err)
	}
	if _, err := w0.reg.GetProject(p1.ID); err == nil {
		t.Fatalf("project %d leaked onto worker-0", p1.ID)
	}
	if _, err := w1.reg.GetProject(p0.ID); err == nil {
		t.Fatalf("project %d leaked onto worker-1", p0.ID)
	}

	// Fan-out listing merges both shards, re-paginated at the gateway.
	projs, err := c.Projects(ctx, client.Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(projs.Projects) != 2 || projs.Total != 2 {
		t.Fatalf("merged listing: %+v", projs)
	}
	window, err := c.Projects(ctx, client.Page{Limit: 1, Offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(window.Projects) != 1 || window.Total != 2 || window.Offset != 1 {
		t.Fatalf("paginated listing: %+v", window)
	}

	// X-Request-Id: minted when absent, preserved verbatim end-to-end.
	resp := rawGet(t, gwSrv.URL+"/api/v1/projects/"+fmt.Sprint(p0.ID), user.APIKey, "")
	if resp.Header.Get(api.RequestIDHeader) == "" {
		t.Fatal("gateway did not mint a request id")
	}
	if got := resp.Header.Get(NodeHeader); got != w0.name {
		t.Fatalf("project %d served by %q, want %q", p0.ID, got, w0.name)
	}
	resp.Body.Close()
	resp = rawGet(t, gwSrv.URL+"/api/v1/projects/"+fmt.Sprint(p1.ID), user.APIKey, "trace-me-42")
	if got := resp.Header.Get(api.RequestIDHeader); got != "trace-me-42" {
		t.Fatalf("request id rewritten to %q", got)
	}
	if got := resp.Header.Get(NodeHeader); got != w1.name {
		t.Fatalf("project %d served by %q, want %q", p1.ID, got, w1.name)
	}
	resp.Body.Close()

	// An impulse design on p0 replicates as the worker's impulse.eim.
	if _, err := c.SetImpulse(ctx, p0.ID, json.RawMessage(`{"version":2,"name":"kws",
		"input":{"kind":"time-series","window_ms":80,"frequency_hz":100,"axes":1},
		"dsp":[{"type":"raw"}],"classes":["no","yes"]}`)); err != nil {
		t.Fatal(err)
	}

	// Replication: one explicit sync round brings the follower's
	// dataset to the primary's exact content hash — deterministic, no
	// interval polling — and its impulse.eim to the primary's bytes.
	if err := follower.SyncOnce(ctx); err != nil {
		t.Fatalf("follower sync: %v", err)
	}
	if got, want := datasetVersion(f0, p0.ID), datasetVersion(w0, p0.ID); got != want {
		t.Fatalf("follower converged to %s, primary at %s", got, want)
	}
	eim := func(n *testNode) []byte {
		blob, err := os.ReadFile(filepath.Join(n.reg.Dir(), "projects", fmt.Sprint(p0.ID), "impulse.eim"))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(eim(f0), eim(w0)) {
		t.Fatal("follower impulse.eim is not the worker's bytes")
	}

	// Outage: worker-0's readiness probe goes red. The gateway fails
	// reads over to the follower and sheds writes with 503 + no_shard.
	w0.chaos.set(errors.New("injected outage"))
	waitFor(t, 2*time.Second, "gateway to mark worker-0 unready", func() bool {
		return !gw.Health().State(w0.name).Ready
	})
	resp = rawGet(t, gwSrv.URL+"/api/v1/projects/"+fmt.Sprint(p0.ID), user.APIKey, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(NodeHeader) != f0.name {
		t.Fatalf("read during outage: status %d via %q", resp.StatusCode, resp.Header.Get(NodeHeader))
	}
	resp.Body.Close()
	_, err = c.UploadSample(ctx, p0.ID, client.UploadParams{
		Label: "yes", Name: "shed-me", Format: "acquisition",
	}, signedDoc(t, p0.HMACKey, 9000))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable ||
		apiErr.Code != v1.CodeNoShard || apiErr.RetryAfter <= 0 {
		t.Fatalf("write during outage: %v", err)
	}
	// The other shard is unaffected.
	uploadN(t, c, p1, 1, 200)

	// Recovery: probe green again, writes resume within 5s.
	w0.chaos.set(nil)
	waitFor(t, 5*time.Second, "shard 0 write recovery", func() bool {
		_, err := c.UploadSample(context.Background(), p0.ID, client.UploadParams{
			Label: "yes", Name: "recovered", Format: "acquisition",
		}, signedDoc(t, p0.HMACKey, 9001))
		return err == nil
	})

	// Cluster status reflects the topology and shows converged lag.
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("status shards: %+v", st.Shards)
	}
	if st.Shards[0].Primary.Name != w0.name || !st.Shards[0].Primary.Ready {
		t.Fatalf("shard 0 primary: %+v", st.Shards[0].Primary)
	}
	if len(st.Shards[0].Followers) != 1 || st.Shards[0].Followers[0].Name != f0.name {
		t.Fatalf("shard 0 followers: %+v", st.Shards[0].Followers)
	}
}

// TestGatewayOperationalSurface covers the gateway's own endpoints:
// readyz aggregation, metrics (JSON + Prometheus), devices/blocks
// passthrough, and the error paths.
func TestGatewayOperationalSurface(t *testing.T) {
	w0 := startWorker(t, 0, 1)
	m := &Map{Shards: 1, Nodes: []Node{
		{Name: w0.name, URL: w0.srv.URL, Role: RoleWorker, Shard: 0},
	}}
	gw, gwSrv := startGateway(t, m)

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(gwSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	if resp, _ := get("/api/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp, body := get("/api/v1/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"shard-0":"ok"`) {
		t.Fatalf("readyz: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get("/api/v1/devices"); resp.StatusCode != http.StatusOK {
		t.Fatalf("devices passthrough: %d", resp.StatusCode)
	}
	if resp, _ := get("/api/v1/blocks"); resp.StatusCode != http.StatusOK {
		t.Fatalf("blocks passthrough: %d", resp.StatusCode)
	}
	if resp, body := get("/api/v1/metrics"); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"routes"`) {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	if resp, body := get("/api/v1/metrics?format=prometheus"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "# TYPE ei_requests_total counter") {
		t.Fatalf("prometheus metrics: %d %s", resp.StatusCode, body)
	} else if ct := resp.Header.Get("Content-Type"); ct != api.PrometheusContentType {
		t.Fatalf("prometheus content type: %q", ct)
	}
	if resp, _ := get("/api/v1/projects/notanumber"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad project id: %d", resp.StatusCode)
	}
	if resp, _ := get("/api/v1/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}
	if resp, _ := get("/outside"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("non-API path: %d", resp.StatusCode)
	}
	// Only /api/v1 is routed; the unversioned prefix is not an alias.
	for _, path := range []string{"/api/devices", "/api/healthz"} {
		if resp, body := get(path); resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "unknown path") {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
	}
	// An unauthenticated job lookup surfaces the worker's 401 untouched.
	if resp, body := get("/api/v1/jobs/job-999"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated job probe: %d %s", resp.StatusCode, body)
	}
	// An authenticated lookup for a job no shard owns is the gateway's
	// own 404 after probing every primary.
	user, err := client.New(w0.srv.URL).CreateUser(context.Background(), "ops-bot")
	if err != nil {
		t.Fatal(err)
	}
	resp0 := rawGet(t, gwSrv.URL+"/api/v1/jobs/job-999", user.APIKey, "")
	body0, _ := io.ReadAll(resp0.Body)
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusNotFound || !strings.Contains(string(body0), "any shard") {
		t.Fatalf("unknown job: %d %s", resp0.StatusCode, body0)
	}

	// With the only worker dead, readyz degrades and project paths shed.
	w0.chaos.set(errors.New("down"))
	waitFor(t, 2*time.Second, "worker marked unready", func() bool {
		return !gw.Health().State(w0.name).Ready
	})
	if resp, _ := get("/api/v1/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: %d", resp.StatusCode)
	}
	resp, body := get("/api/v1/projects/1")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, v1.CodeNoShard) {
		t.Fatalf("read with no node: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if resp, _ := get("/api/v1/devices"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("passthrough with dead fleet: %d", resp.StatusCode)
	}
	post := func(path, payload string) *http.Response {
		t.Helper()
		resp, err := http.Post(gwSrv.URL+path, "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("/api/v1/users", `{"name":"x"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create user with dead fleet: %d", resp.StatusCode)
	}
	if resp := post("/api/v1/projects", `{"name":"x"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create project with dead fleet: %d", resp.StatusCode)
	}
	resp1 := rawGet(t, gwSrv.URL+"/api/v1/jobs/job-1", user.APIKey, "")
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job probe with dead fleet: %d", resp1.StatusCode)
	}
}

// TestHealthEdgeCases covers identity mismatches, unknown and
// unreachable nodes, and the status view of a primary-less shard.
// TestGatewayProjectListPagesEachShard: a shard holding more projects
// than one worker page is listed whole, and the gateway reads limit and
// offset by the worker's rule.
func TestGatewayProjectListPagesEachShard(t *testing.T) {
	reg := project.NewRegistry()
	w0 := startNode(t, reg, "worker-0", RoleWorker, 0, 1)
	_, gwSrv := startGateway(t, &Map{Shards: 1, Nodes: []Node{
		{Name: w0.name, URL: w0.srv.URL, Role: RoleWorker, Shard: 0},
	}})
	u, err := reg.CreateUser("lister")
	if err != nil {
		t.Fatal(err)
	}
	const n = api.MaxPageSize + 5
	for i := 0; i < n; i++ {
		if _, err := reg.CreateProject(fmt.Sprintf("p%d", i), u.ID); err != nil {
			t.Fatal(err)
		}
	}
	list := func(query string) (int, v1.ProjectsResponse) {
		t.Helper()
		resp := rawGet(t, gwSrv.URL+"/api/v1/projects"+query, u.APIKey, "")
		defer resp.Body.Close()
		var out v1.ProjectsResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}
	code, out := list(fmt.Sprintf("?limit=10&offset=%d", n-3))
	if code != http.StatusOK || out.Page.Total != n || len(out.Projects) != 3 {
		t.Fatalf("tail page: %d, total %d, %d projects", code, out.Page.Total, len(out.Projects))
	}
	if code, out = list("?limit=5000"); code != http.StatusOK || out.Page.Limit != api.MaxPageSize ||
		len(out.Projects) != api.MaxPageSize {
		t.Fatalf("limit=5000: %d, page %+v, %d projects", code, out.Page, len(out.Projects))
	}
	for _, q := range []string{"?limit=abc", "?limit=0", "?offset=-1"} {
		if code, _ := list(q); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", q, code)
		}
	}
}

func TestHealthEdgeCases(t *testing.T) {
	w0 := startWorker(t, 0, 2)
	// The map claims this node serves shard 1 as a follower; the node's
	// own identity says worker/shard 0 — the poll must refuse to route
	// to a node that disagrees with the map.
	m := &Map{Shards: 2, Nodes: []Node{
		{Name: "mislabeled", URL: w0.srv.URL, Role: RoleFollower, Shard: 1},
		{Name: "unreachable", URL: "http://127.0.0.1:1", Role: RoleWorker, Shard: 0},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	h := NewHealth(m, HealthConfig{Interval: 20 * time.Millisecond, Token: testToken})
	h.Start()
	defer h.Stop()

	if st := h.State("mislabeled"); st.Ready || !strings.Contains(st.Err, "identity mismatch") {
		t.Fatalf("mislabeled node state: %+v", st)
	}
	if st := h.State("unreachable"); st.Ready || st.Err == "" {
		t.Fatalf("unreachable node state: %+v", st)
	}
	if st := h.State("ghost"); st.Err != "unknown node" {
		t.Fatalf("ghost node state: %+v", st)
	}
	if n := h.ServeRead(1); n != nil {
		t.Fatalf("ServeRead routed to unhealthy node %+v", n)
	}

	// A gateway over this map reports the shard-1 hole in its status.
	_, gwSrv := startGateway(t, m)
	st, err := client.New(gwSrv.URL).ClusterStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards[1].Primary.Error != "no primary in shard map" {
		t.Fatalf("primary-less shard status: %+v", st.Shards[1].Primary)
	}
}

// TestFollowerConstruction covers the constructor contracts and the
// unreachable-primary error path.
func TestFollowerConstruction(t *testing.T) {
	normal, err := project.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { normal.Close() })
	if _, err := NewFollower(normal, FollowerConfig{PrimaryURL: "http://x"}); err == nil {
		t.Error("expected error for non-replica registry")
	}

	replica, err := project.OpenReplica(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	if _, err := NewFollower(replica, FollowerConfig{}); err == nil {
		t.Error("expected error for missing primary URL")
	}
	f, err := NewFollower(replica, FollowerConfig{PrimaryURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(context.Background()); err == nil {
		t.Error("expected sync failure against unreachable primary")
	}
	if f.LastError() == "" {
		t.Error("LastError empty after failed round")
	}
}

func TestAPIErrorString(t *testing.T) {
	e := &apiError{status: 409, code: "conflict"}
	if !strings.Contains(e.Error(), "409") || !strings.Contains(e.Error(), "conflict") {
		t.Fatalf("apiError rendering: %s", e.Error())
	}
	if isConflict(e) != true || isConflict(errors.New("other")) {
		t.Fatal("isConflict misclassified")
	}
}

// TestFollowerBootstrap forces the snapshot-horizon path: the primary
// compacts while the follower is behind, so the incremental journal
// tail 409s and the follower rebuilds from the manifest — and still
// converges to the same content hash.
func TestFollowerBootstrap(t *testing.T) {
	w0 := startWorker(t, 0, 1)
	f0, follower := startFollower(t, w0, 0, 1)
	ctx := context.Background()

	c := client.New(w0.srv.URL)
	user, err := c.CreateUser(ctx, "boot-bot")
	if err != nil {
		t.Fatal(err)
	}
	c = c.WithAPIKey(user.APIKey)
	proj, err := c.CreateProject(ctx, "boot-proj")
	if err != nil {
		t.Fatal(err)
	}
	uploadN(t, c, proj, 5, 0)

	// First sync: plain incremental replication from version 0.
	if err := follower.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := datasetVersion(f0, proj.ID), datasetVersion(w0, proj.ID); got != want {
		t.Fatalf("after incremental sync: follower %s, primary %s", got, want)
	}
	if follower.bootstps != 0 {
		t.Fatalf("incremental sync bootstrapped %d times", follower.bootstps)
	}

	// The follower misses some writes, then the primary compacts its
	// journal: the follower's cursor is now behind the snapshot horizon.
	uploadN(t, c, proj, 5, 50)
	p, err := w0.reg.GetProject(proj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Store().Snapshot(); err != nil {
		t.Fatal(err)
	}
	uploadN(t, c, proj, 3, 80)

	if err := follower.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if follower.bootstps == 0 {
		t.Fatal("expected a manifest bootstrap after primary compaction")
	}
	// Bootstrap leaves the store at the manifest version; the next round
	// tails the post-snapshot journal to full convergence.
	if err := follower.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := datasetVersion(f0, proj.ID), datasetVersion(w0, proj.ID); got != want {
		t.Fatalf("after bootstrap: follower %s, primary %s", got, want)
	}
	if follower.LastError() != "" {
		t.Fatalf("follower error: %s", follower.LastError())
	}
}

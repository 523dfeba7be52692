package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
)

func TestParseMap(t *testing.T) {
	m, err := ParseMap([]byte(`{"shards": 2, "nodes": [
		{"name": "w0", "url": "http://a", "role": "worker", "shard": 0},
		{"name": "w1", "url": "http://b", "role": "worker", "shard": 1},
		{"name": "f0", "url": "http://c", "role": "follower", "shard": 0}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 2 || len(m.Nodes) != 3 {
		t.Fatalf("parsed %+v", m)
	}
	if p := m.Primary(0); p == nil || p.Name != "w0" {
		t.Fatalf("primary(0) = %+v", p)
	}
	if p := m.Primary(1); p == nil || p.Name != "w1" {
		t.Fatalf("primary(1) = %+v", p)
	}
	if fs := m.Followers(0); len(fs) != 1 || fs[0].Name != "f0" {
		t.Fatalf("followers(0) = %+v", fs)
	}
	if fs := m.Followers(1); len(fs) != 0 {
		t.Fatalf("followers(1) = %+v", fs)
	}
}

func TestParseMapRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{`,
		"no shards":     `{"shards": 0, "nodes": [{"name":"a","url":"u","role":"worker","shard":0}]}`,
		"no nodes":      `{"shards": 1, "nodes": []}`,
		"unnamed":       `{"shards": 1, "nodes": [{"url":"u","role":"worker","shard":0}]}`,
		"dup name":      `{"shards": 1, "nodes": [{"name":"a","url":"u","role":"worker","shard":0},{"name":"a","url":"u","role":"follower","shard":0}]}`,
		"no url":        `{"shards": 1, "nodes": [{"name":"a","role":"worker","shard":0}]}`,
		"shard range":   `{"shards": 1, "nodes": [{"name":"a","url":"u","role":"worker","shard":1}]}`,
		"bad role":      `{"shards": 1, "nodes": [{"name":"a","url":"u","role":"observer","shard":0}]}`,
		"two primaries": `{"shards": 1, "nodes": [{"name":"a","url":"u","role":"worker","shard":0},{"name":"b","url":"u","role":"worker","shard":0}]}`,
	}
	for label, blob := range cases {
		if _, err := ParseMap([]byte(blob)); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
}

func TestParseNodeSpecs(t *testing.T) {
	m, err := ParseNodeSpecs(2, []string{
		"worker:0:http://a", "worker:1:http://b", "follower:0:http://c", "follower:0:http://d",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 4 {
		t.Fatalf("nodes: %+v", m.Nodes)
	}
	// Derived names are unique even for two followers of one shard.
	if m.Nodes[2].Name == m.Nodes[3].Name {
		t.Fatalf("duplicate derived names: %+v", m.Nodes)
	}
	if !strings.HasPrefix(m.Nodes[0].Name, "worker-0") {
		t.Fatalf("derived name %q", m.Nodes[0].Name)
	}

	if _, err := ParseNodeSpecs(1, []string{"worker:0"}); err == nil {
		t.Error("expected error for malformed spec")
	}
	if _, err := ParseNodeSpecs(1, []string{"worker:x:http://a"}); err == nil {
		t.Error("expected error for non-numeric shard")
	}
	if _, err := ParseNodeSpecs(0, []string{"worker:0:http://a"}); err == nil {
		t.Error("expected error for zero shard count")
	}
}

func TestShardFor(t *testing.T) {
	m := &Map{Shards: 3}
	for id, want := range map[int]int{0: 0, 1: 1, 5: 2, 6: 0, -1: 2} {
		if got := m.ShardFor(id); got != want {
			t.Errorf("ShardFor(%d) = %d, want %d", id, got, want)
		}
	}
}

// TestGatewayRoutesClassifyLikeWorker: the gateway counts each proxied
// answer exactly as a worker's own route counters do; a 499 client
// abort is neither a 4xx nor a 5xx on either.
func TestGatewayRoutesClassifyLikeWorker(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case v1.Prefix + "/readyz":
			api.WriteJSON(w, http.StatusOK, v1.ReadyResponse{Success: true, Ready: true})
		case v1.Prefix + "/cluster/node":
			api.WriteJSON(w, http.StatusOK, v1.ClusterNodeResponse{Success: true, Role: RoleWorker, Shards: 1})
		default:
			status, _ := strconv.Atoi(r.URL.Query().Get("status"))
			w.WriteHeader(status)
		}
	}))
	defer worker.Close()
	m, err := ParseMap([]byte(fmt.Sprintf(`{"shards": 1, "nodes": [{"name": "w0", "url": %q, "role": "worker", "shard": 0}]}`, worker.URL)))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGateway(m, GatewayConfig{Logger: quietLogger()})
	g.Start()
	defer g.Stop()
	var onWorker api.RouteRecorder
	for _, status := range []int{http.StatusOK, http.StatusNotFound, 499, http.StatusServiceUnavailable} {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/devices?status=%d", status), nil))
		if rec.Code != status {
			t.Fatalf("proxied status %d, want %d", rec.Code, status)
		}
		onWorker.Record("GET /devices", status, 0)
	}
	got, _ := g.obs.Routes.Snapshot()
	want, _ := onWorker.Snapshot()
	if len(got) != 1 || got[0].Route != want[0].Route || got[0].Count != want[0].Count ||
		got[0].Err4xx != want[0].Err4xx || got[0].Err5xx != want[0].Err5xx {
		t.Fatalf("gateway counted %+v, worker %+v", got, want)
	}
	if got[0].Err4xx != 1 || got[0].Err5xx != 1 {
		t.Fatalf("499 counted as an error: %+v", got[0])
	}
}

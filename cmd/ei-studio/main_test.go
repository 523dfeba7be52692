package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
	"edgepulse/internal/project"
)

const token = "studio-test-token"

// node is one ei-studio run on a loopback port.
type node struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

// start parses args as ei-studio's command line and serves it until
// stop.
func start(t *testing.T, args ...string) *node {
	t.Helper()
	fs := flag.NewFlagSet("ei-studio", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { n.done <- run(ctx, o, ln) }()
	t.Cleanup(func() { n.stop(t) })
	return n
}

// stop cancels the run and waits for its graceful shutdown.
func (n *node) stop(t *testing.T) {
	t.Helper()
	if n.cancel == nil {
		return
	}
	n.cancel()
	n.cancel = nil
	select {
	case err := <-n.done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// getJSON decodes GET url into out, sending the cluster token.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(api.ClusterTokenHeader, token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// checkNode asserts n's readiness probes and cluster identity.
func checkNode(t *testing.T, n *node, role string, shard, shards int) v1.ClusterNodeResponse {
	t.Helper()
	var ready v1.ReadyResponse
	getJSON(t, n.url+v1.Prefix+"/readyz", &ready)
	if ready.Probes["store"] != "ok" {
		t.Fatalf("%s readyz probes %v, want store ok", role, ready.Probes)
	}
	var id v1.ClusterNodeResponse
	getJSON(t, n.url+v1.Prefix+"/cluster/node", &id)
	want := fmt.Sprintf("%s-%d", role, shard)
	if id.Role != role || id.Shard != shard || id.Shards != shards || id.Name != want {
		t.Fatalf("cluster/node %+v, want %s shard %d/%d named %s", id, role, shard, shards, want)
	}
	return id
}

// TestWorkerAndFollower boots a shard worker and a follower of it
// through the one host function ei-studio's main calls.
func TestWorkerAndFollower(t *testing.T) {
	ctx := context.Background()
	wdir, fdir := t.TempDir(), t.TempDir()
	w := start(t, "-data", wdir, "-shards", "2", "-shard", "1", "-cluster-token", token)
	checkNode(t, w, "worker", 1, 2)

	user, err := client.New(w.url).CreateUser(ctx, "ada")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(w.url, client.WithAPIKey(user.APIKey))
	created, err := c.CreateProject(ctx, "kws")
	if err != nil {
		t.Fatal(err)
	}
	pid := created.ID
	if pid%2 != 1 {
		t.Fatalf("worker of shard 1/2 minted project %d outside its residue class", pid)
	}

	// Follower.Start syncs once before run serves, so the replica
	// already holds the project when the first request lands.
	f := start(t, "-data", fdir, "-shards", "2", "-shard", "1", "-cluster-token", token, "-follow", w.url)
	id := checkNode(t, f, "follower", 1, 2)
	if _, ok := id.Projects[pid]; !ok {
		t.Fatalf("follower projects %v lack project %d", id.Projects, pid)
	}
	got, err := client.New(f.url, client.WithAPIKey(user.APIKey)).Project(ctx, pid)
	if err != nil {
		t.Fatalf("follower read of project %d: %v", pid, err)
	}
	if got.Project.Name != "kws" {
		t.Fatalf("follower project %+v", got.Project)
	}

	f.stop(t)
	w.stop(t)
	reg, err := project.Open(wdir)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if p, err := reg.GetProject(pid); err != nil || p.Name != "kws" {
		t.Fatalf("reopened worker state: project %d: %v", pid, err)
	}
}

func TestClusterFlagsValidated(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-follow", "http://127.0.0.1:1", "-shards", "2"}, "-data"},
		{[]string{"-data", t.TempDir(), "-shards", "2", "-shard", "2"}, "-shard (2) < -shards (2)"},
		{[]string{"-data", t.TempDir(), "-follow", "http://127.0.0.1:1"}, "-shard (0) < -shards (0)"},
		{[]string{"-cluster-token", token}, "need -shards"},
	} {
		fs := flag.NewFlagSet("ei-studio", flag.ContinueOnError)
		o := defineFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		err = run(context.Background(), o, ln)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: err %v, want it to mention %q", tc.args, err, tc.want)
		}
	}
}

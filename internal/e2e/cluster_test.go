package e2e

// Cluster e2e: the full MLOps loop driven through the gateway only,
// against a 2-worker fleet with a replicating follower — the fleet
// topology the paper's multi-tenant platform implies (Sec. 3), built
// in-process from the parts cmd/ei-gateway and ei-studio's -shards and
// -follow roles assemble.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
	"edgepulse/internal/cluster"
	"edgepulse/internal/core"
	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/synth"
)

const clusterToken = "e2e-cluster-token"

// chaosProbe is a flip-switch readiness failure.
type chaosProbe struct {
	mu  sync.Mutex
	err error
}

func (c *chaosProbe) set(err error) { c.mu.Lock(); c.err = err; c.mu.Unlock() }
func (c *chaosProbe) probe() error  { c.mu.Lock(); defer c.mu.Unlock(); return c.err }

// clusterNode is one fleet member with direct registry access for
// store-level assertions.
type clusterNode struct {
	name  string
	reg   *project.Registry
	srv   *httptest.Server
	chaos *chaosProbe
}

// clusterEnv is a booted 2-shard fleet: two workers, a follower for
// shard 0, and the gateway. The client talks to the gateway only.
type clusterEnv struct {
	w0, w1, f0 *clusterNode
	follower   *cluster.Follower
	gw         *cluster.Gateway
	gwSrv      *httptest.Server
	c          *client.Client
	user       *v1.CreateUserResponse
	p0, p1     *v1.CreateProjectResponse // p0 on shard 0, p1 on shard 1
}

func bootNode(t *testing.T, reg *project.Registry, name, role string, shard, shards int) *clusterNode {
	t.Helper()
	ch := &chaosProbe{}
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 2, ScaleInterval: 5 * time.Millisecond})
	t.Cleanup(sched.Shutdown)
	server := api.NewServer(reg, sched,
		api.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		api.WithClusterNode(name, role, shard, shards),
		api.WithClusterToken(clusterToken),
		api.WithReadinessProbe("chaos", ch.probe),
	)
	t.Cleanup(server.Close)
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)
	return &clusterNode{name: name, reg: reg, srv: srv, chaos: ch}
}

func newClusterEnv(t *testing.T) *clusterEnv {
	t.Helper()
	e := &clusterEnv{}
	for shard, dst := range []**clusterNode{&e.w0, &e.w1} {
		reg, err := project.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reg.Close() })
		reg.SetProjectIDStride(shard, 2)
		*dst = bootNode(t, reg, fmt.Sprintf("worker-%d", shard), cluster.RoleWorker, shard, 2)
	}
	freg, err := project.OpenReplica(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { freg.Close() })
	e.f0 = bootNode(t, freg, "follower-0", cluster.RoleFollower, 0, 2)
	e.follower, err = cluster.NewFollower(freg, cluster.FollowerConfig{
		PrimaryURL: e.w0.srv.URL,
		Token:      clusterToken,
		Interval:   25 * time.Millisecond,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.follower.Start()
	t.Cleanup(e.follower.Stop)

	m := &cluster.Map{Shards: 2, Nodes: []cluster.Node{
		{Name: e.w0.name, URL: e.w0.srv.URL, Role: cluster.RoleWorker, Shard: 0},
		{Name: e.w1.name, URL: e.w1.srv.URL, Role: cluster.RoleWorker, Shard: 1},
		{Name: e.f0.name, URL: e.f0.srv.URL, Role: cluster.RoleFollower, Shard: 0},
	}}
	e.gw = cluster.NewGateway(m, cluster.GatewayConfig{
		Token:        clusterToken,
		PollInterval: 25 * time.Millisecond,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	e.gw.Start()
	t.Cleanup(e.gw.Stop)
	e.gwSrv = httptest.NewServer(e.gw)
	t.Cleanup(e.gwSrv.Close)

	ctx := context.Background()
	c := client.New(e.gwSrv.URL)
	e.user, err = c.CreateUser(ctx, "fleet-bot")
	if err != nil {
		t.Fatal(err)
	}
	e.c = c.WithAPIKey(e.user.APIKey)

	// Round-robin placement + per-worker ID striding puts consecutive
	// creations on different shards.
	pa, err := e.c.CreateProject(ctx, "fleet-a")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := e.c.CreateProject(ctx, "fleet-b")
	if err != nil {
		t.Fatal(err)
	}
	if pa.ID%2 == pb.ID%2 {
		t.Fatalf("projects landed on one shard: %d, %d", pa.ID, pb.ID)
	}
	e.p0, e.p1 = pa, pb
	if pa.ID%2 != 0 {
		e.p0, e.p1 = pb, pa
	}
	return e
}

// tinyDoc signs a minimal unique acquisition document.
func tinyDoc(t *testing.T, hmacKey string, seq int) []byte {
	t.Helper()
	values := make([][]float64, 8)
	for i := range values {
		values[i] = []float64{float64(seq*8 + i)}
	}
	doc, err := ingest.SignJSON(ingest.Payload{
		DeviceName: "fleet-dev", DeviceType: "NANO33BLE",
		IntervalMS: 1000.0 / 100.0,
		Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
		Values:     values,
	}, hmacKey, 1680000000+int64(seq))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func (e *clusterEnv) datasetVersion(n *clusterNode, id int) string {
	p, err := n.reg.GetProject(id)
	if err != nil {
		return "err"
	}
	return p.Dataset().Version()
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterPipelineThroughGateway drives upload → impulse → train →
// classify exclusively through the gateway, with the job located by
// the cross-shard probe.
func TestClusterPipelineThroughGateway(t *testing.T) {
	e := newClusterEnv(t)
	ctx := context.Background()

	ds, err := synth.KWSDataset(2, 10, 8000, 0.5, 0.03, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ds.List("") {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		values := make([][]float64, s.Signal.Frames())
		for i := range values {
			values[i] = []float64{float64(s.Signal.Data[i])}
		}
		doc, err := ingest.SignJSON(ingest.Payload{
			DeviceName: "device-01", DeviceType: "NANO33BLE",
			IntervalMS: 1000.0 / 8000.0,
			Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
			Values:     values,
		}, e.p0.HMACKey, 1670000000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.c.UploadSample(ctx, e.p0.ID, client.UploadParams{
			Label: s.Label, Name: s.Name, Format: "acquisition",
		}, doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.c.Rebalance(ctx, e.p0.ID, 0.25); err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.SetImpulse(ctx, e.p0.ID, core.Config{
		Version: core.ConfigVersion,
		Name:    "fleet-kws",
		Input:   core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1},
		DSP: []core.DSPBlockSpec{{
			Name: "audio", Type: "mfe",
			Params: map[string]float64{"num_filters": 16, "fft_length": 128},
		}},
		Learn:   []core.LearnBlockSpec{{Type: core.LearnClassification, Inputs: []string{"audio"}}},
		Classes: []string{"noise", "yes"},
	}); err != nil {
		t.Fatal(err)
	}

	accepted, err := e.c.Train(ctx, e.p0.ID, v1.TrainRequest{
		Model:        v1.ModelSpec{Type: "conv1d", Depth: 2, StartFilters: 8, EndFilters: 16},
		Epochs:       6,
		LearningRate: 0.005,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := e.c.WaitJob(ctx, accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Job.Status != v1.JobFinished {
		t.Fatalf("training ended %s: %s", done.Job.Status, done.Job.Error)
	}

	sig, err := synth.Keyword("yes", 8000, 0.5, 0.02, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.c.Classify(ctx, e.p0.ID, sig.Data, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Label == "" || len(out.Classification) != 2 {
		t.Fatalf("classify through gateway: %+v", out)
	}

	// Everything above landed only on worker-0's store.
	if _, err := e.w1.reg.GetProject(e.p0.ID); err == nil {
		t.Fatalf("shard-0 project %d present on worker-1", e.p0.ID)
	}
}

// TestClusterReplication1kSamples proves the follower converges to the
// primary's exact dataset content hash after a 1000-sample ingest
// through the gateway.
func TestClusterReplication1kSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-sample ingest")
	}
	e := newClusterEnv(t)
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		if _, err := e.c.UploadSample(ctx, e.p0.ID, client.UploadParams{
			Label: "yes", Name: fmt.Sprintf("bulk-%d", i), Format: "acquisition",
		}, tinyDoc(t, e.p0.HMACKey, i)); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	p, err := e.w0.reg.GetProject(e.p0.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dataset().Len() != 1000 {
		t.Fatalf("primary holds %d samples", p.Dataset().Len())
	}
	// One explicit sync round replaces interval polling: after it the
	// follower must hold the primary's exact content hash.
	if err := e.follower.SyncOnce(ctx); err != nil {
		t.Fatalf("follower sync: %v", err)
	}
	if got, want := e.datasetVersion(e.f0, e.p0.ID), e.datasetVersion(e.w0, e.p0.ID); got != want {
		t.Fatalf("follower converged to %s, primary at %s", got, want)
	}
	fp, err := e.f0.reg.GetProject(e.p0.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Dataset().Len() != 1000 {
		t.Fatalf("follower holds %d samples", fp.Dataset().Len())
	}
}

// TestClusterOutageIsolation kills one worker's readiness: its shard
// degrades (reads via follower, writes shed with 503 + Retry-After +
// no_shard) while the other shard keeps serving; recovery is ≤5s.
func TestClusterOutageIsolation(t *testing.T) {
	e := newClusterEnv(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := e.c.UploadSample(ctx, e.p0.ID, client.UploadParams{
			Label: "yes", Name: fmt.Sprintf("pre-%d", i), Format: "acquisition",
		}, tinyDoc(t, e.p0.HMACKey, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.follower.SyncOnce(ctx); err != nil {
		t.Fatalf("initial replication sync: %v", err)
	}
	if got, want := e.datasetVersion(e.f0, e.p0.ID), e.datasetVersion(e.w0, e.p0.ID); got != want {
		t.Fatalf("follower at %s, primary at %s", got, want)
	}

	e.w0.chaos.set(errors.New("injected crash"))
	waitUntil(t, 2*time.Second, "outage detection", func() bool {
		return !e.gw.Health().State(e.w0.name).Ready
	})

	// Reads on the degraded shard come from the follower's replica.
	samples, err := e.c.Samples(ctx, e.p0.ID, "", client.Page{})
	if err != nil {
		t.Fatalf("read during outage: %v", err)
	}
	if samples.Total != 5 {
		t.Fatalf("follower served %d samples, want 5", samples.Total)
	}
	// Writes on the degraded shard shed with the stable contract.
	_, err = e.c.UploadSample(ctx, e.p0.ID, client.UploadParams{
		Label: "yes", Name: "shed", Format: "acquisition",
	}, tinyDoc(t, e.p0.HMACKey, 500))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable ||
		apiErr.Code != v1.CodeNoShard || apiErr.RetryAfter <= 0 {
		t.Fatalf("write during outage: %v", err)
	}
	// The healthy shard is untouched.
	if _, err := e.c.UploadSample(ctx, e.p1.ID, client.UploadParams{
		Label: "yes", Name: "other-shard", Format: "acquisition",
	}, tinyDoc(t, e.p1.HMACKey, 600)); err != nil {
		t.Fatalf("healthy shard during outage: %v", err)
	}

	// Recovery: the primary comes back and writes resume within 5s.
	e.w0.chaos.set(nil)
	waitUntil(t, 5*time.Second, "write recovery", func() bool {
		_, err := e.c.UploadSample(ctx, e.p0.ID, client.UploadParams{
			Label: "yes", Name: "post-recovery", Format: "acquisition",
		}, tinyDoc(t, e.p0.HMACKey, 700))
		return err == nil
	})
}

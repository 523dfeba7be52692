// Command ei-studio serves the edgepulse platform REST API — the
// equivalent of the Edge Impulse Studio backend: projects, signed data
// ingestion, impulse design, training and tuner jobs on an autoscaling
// worker pool, profiling, and deployment artifact generation.
//
// Usage:
//
//	ei-studio -addr :4800 -workers 4 [-rate 100 -burst 200]
//
// Bootstrap a user, then drive everything over the versioned API:
//
//	curl -XPOST localhost:4800/api/v1/users -d '{"name":"ada"}'
//	curl -H "x-api-key: $KEY" -XPOST localhost:4800/api/v1/projects -d '{"name":"kws"}'
//
// Behind ei-gateway, -shards N makes it the worker owning shard -shard,
// and -follow URL a read-only follower replicating that worker (both
// need -data; see docs/API.md "Cluster plane"):
//
//	ei-studio -addr :4801 -data w0 -shards 2 -shard 0 -cluster-token SECRET -trust-proxy
//	ei-studio -addr :4811 -data f0 -shards 2 -shard 0 -cluster-token SECRET -trust-proxy \
//	          -follow http://127.0.0.1:4801
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgepulse/internal/api"
	"edgepulse/internal/cluster"
	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
)

// options holds ei-studio's parsed command line.
type options struct {
	addr, dataDir, follow, clusterToken   string
	workers, queue, quota, burst, streams int
	inflight, memLimitMB, shard, shards   int
	rate                                  float64
	trustProxy, watchdogCancel            bool
	watchdog                              time.Duration
}

// defineFlags registers ei-studio's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":4800", "listen address")
	fs.IntVar(&o.workers, "workers", 4, "max training workers")
	fs.IntVar(&o.queue, "queue", 64, "max pending jobs across all projects")
	fs.IntVar(&o.quota, "quota", 16, "max pending jobs per project (fairness quota)")
	fs.StringVar(&o.dataDir, "data", "", "directory for persistent state (load on start, save on SIGINT/SIGTERM)")
	fs.Float64Var(&o.rate, "rate", 100, "per-API-key request rate limit in req/s (0 = unlimited)")
	fs.IntVar(&o.burst, "burst", 200, "per-API-key burst allowance")
	fs.BoolVar(&o.trustProxy, "trust-proxy", false, "rate-limit by X-Forwarded-For client IP (only behind a proxy that sets it, such as ei-gateway)")
	fs.IntVar(&o.streams, "streams", 0, "max concurrent streaming inference sessions (0 = default)")
	fs.IntVar(&o.inflight, "inflight", 0, "max concurrent in-flight requests before the admission gate hard-sheds (0 = default)")
	fs.IntVar(&o.memLimitMB, "mem-limit-mb", 0, "budget in MiB for live heap object bytes, fed into the admission gate's load score (0 = ignore memory)")
	fs.DurationVar(&o.watchdog, "watchdog", 2*time.Minute, "flag running jobs with no progress for this long as stalled (0 = disable)")
	fs.BoolVar(&o.watchdogCancel, "watchdog-cancel", false, "also cancel jobs the watchdog flags as stalled")
	fs.IntVar(&o.shards, "shards", 0, "cluster shard count (0 = standalone server)")
	fs.IntVar(&o.shard, "shard", 0, "this node's shard index (-shards)")
	fs.StringVar(&o.follow, "follow", "", "run as a read-only follower replicating this worker URL (-shards)")
	fs.StringVar(&o.clusterToken, "cluster-token", "", "shared secret guarding the cluster-plane endpoints (-shards)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, ln); err != nil {
		log.Fatal(err)
	}
}

// run serves the platform on ln in the role o selects — standalone,
// shard worker or follower — until ctx is cancelled, then drains live
// streams and in-flight requests and, unless it is a follower, saves
// the registry metadata under -data.
func run(ctx context.Context, o *options, ln net.Listener) error {
	defer ln.Close()
	clustered := o.shards > 0 || o.follow != ""
	switch {
	case clustered && o.dataDir == "":
		return errors.New("ei-studio: cluster roles require -data DIR (replication needs the durable store)")
	case clustered && (o.shard < 0 || o.shard >= o.shards):
		return fmt.Errorf("ei-studio: need 0 <= -shard (%d) < -shards (%d)", o.shard, o.shards)
	case !clustered && (o.shard != 0 || o.clusterToken != ""):
		return errors.New("ei-studio: -shard and -cluster-token need -shards")
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	// The registry (internal/project) logs a project whose impulse does
	// not load, or whose write-through persist fails, through the
	// default logger: give it this one, so those lines keep the format
	// of every other line of the node's log.
	slog.SetDefault(logger)
	var registry *project.Registry
	var follower *cluster.Follower
	var err error
	switch {
	case o.follow != "":
		if registry, err = project.OpenReplica(o.dataDir); err != nil {
			return fmt.Errorf("opening replica state: %w", err)
		}
		defer registry.Close()
		follower, err = cluster.NewFollower(registry,
			cluster.FollowerConfig{PrimaryURL: o.follow, Token: o.clusterToken, Logger: logger})
		if err != nil {
			return err
		}
	case o.dataDir != "":
		// Open runs crash recovery on every project's segmented store
		// and migrates v1 dataset.json trees in place; from here on
		// each upload persists incrementally (one segment append + one
		// manifest patch), so a crash loses no acknowledged sample.
		if registry, err = project.Open(o.dataDir); err != nil {
			return fmt.Errorf("opening state: %w", err)
		}
		defer registry.Close()
		// Stride project IDs over the shard count so every ID a worker
		// mints hash-routes back to it (a no-op standalone, -shards 0).
		registry.SetProjectIDStride(o.shard, o.shards)
		fmt.Printf("opened durable state in %s\n", o.dataDir)
	default:
		registry = project.NewRegistry()
	}
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: o.workers,
		QueueSize: o.queue, MaxQueuedPerTag: o.quota})
	defer sched.Shutdown()

	opts := []api.Option{
		api.WithLogger(logger),
		api.WithRateLimit(o.rate, o.burst),
		api.WithGate(resilience.GateConfig{MaxInflight: o.inflight}),
	}
	if o.trustProxy {
		opts = append(opts, api.WithTrustProxy())
	}
	if o.streams > 0 {
		opts = append(opts, api.WithStreamSessions(o.streams))
	}
	if o.memLimitMB > 0 {
		opts = append(opts, api.WithMemoryLimit(uint64(o.memLimitMB)<<20))
	}
	if o.watchdog > 0 {
		opts = append(opts, api.WithWatchdog(o.watchdog, o.watchdogCancel))
	}
	if o.dataDir != "" {
		// /readyz goes red if the state directory disappears out from
		// under the process (unmounted volume, deleted tree).
		opts = append(opts, api.WithReadinessProbe("store", func() error {
			_, err := os.Stat(o.dataDir)
			return err
		}))
	}
	name := "edgepulse studio"
	if clustered {
		role := cluster.RoleWorker
		if follower != nil {
			role = cluster.RoleFollower
		}
		name = fmt.Sprintf("%s-%d", role, o.shard)
		opts = append(opts, api.WithClusterNode(name, role, o.shard, o.shards),
			api.WithClusterToken(o.clusterToken))
	}
	server := api.NewServer(registry, sched, opts...)
	defer server.Close()
	if follower != nil {
		follower.Start()
		defer follower.Stop()
	}
	httpSrv := &http.Server{Handler: server.Handler()}

	// Graceful shutdown: drain live streaming sessions (each flushes its
	// queued frames and emits a terminal event to its subscribers), then
	// stop the HTTP server, waiting for in-flight requests.
	drained := make(chan struct{})
	stopDrain := context.AfterFunc(ctx, func() {
		defer close(drained)
		fmt.Printf("\n%s shutting down: draining streams and in-flight requests\n", name)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := server.Drain(ctx); err != nil {
			log.Println("draining streams:", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Println("http shutdown:", err)
		}
	})
	defer stopDrain()

	fmt.Printf("%s listening on %s\n", name, ln.Addr())
	fmt.Printf("design blocks: dsp %v, learn %v (catalog: GET /api/v1/blocks)\n",
		dsp.Names(), core.LearnNames())
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	if o.dataDir != "" && follower == nil {
		// Datasets are already durable; Save persists registry metadata +
		// impulse artefacts and compacts store manifests (not a follower's).
		if err := registry.Save(o.dataDir); err != nil {
			return fmt.Errorf("saving state: %w", err)
		}
		fmt.Printf("state saved to %s\n", o.dataDir)
	}
	return nil
}

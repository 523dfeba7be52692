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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgepulse/internal/api"
	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
)

func main() {
	addr := flag.String("addr", ":4800", "listen address")
	workers := flag.Int("workers", 4, "max training workers")
	queue := flag.Int("queue", 64, "max pending jobs across all projects")
	quota := flag.Int("quota", 16, "max pending jobs per project (fairness quota)")
	dataDir := flag.String("data", "", "directory for persistent state (load on start, save on SIGINT/SIGTERM)")
	rate := flag.Float64("rate", 100, "per-API-key request rate limit in req/s (0 = unlimited)")
	burst := flag.Int("burst", 200, "per-API-key burst allowance")
	trustProxy := flag.Bool("trust-proxy", false, "rate-limit by X-Forwarded-For client IP (only behind a proxy that sets it)")
	streams := flag.Int("streams", 0, "max concurrent streaming inference sessions (0 = default)")
	inflight := flag.Int("inflight", 0, "max concurrent in-flight requests before the admission gate hard-sheds (0 = default)")
	memLimitMB := flag.Int("mem-limit-mb", 0, "budget in MiB for live heap object bytes, fed into the admission gate's load score (0 = ignore memory)")
	watchdog := flag.Duration("watchdog", 2*time.Minute, "flag running jobs with no progress for this long as stalled (0 = disable)")
	watchdogCancel := flag.Bool("watchdog-cancel", false, "also cancel jobs the watchdog flags as stalled")
	flag.Parse()

	registry := project.NewRegistry()
	if *dataDir != "" {
		// Open runs crash recovery on every project's segmented store
		// and migrates v1 dataset.json trees in place; from here on
		// each upload persists incrementally (one segment append + one
		// manifest patch), so a crash loses no acknowledged sample.
		loaded, err := project.Open(*dataDir)
		if err != nil {
			log.Fatal("opening state: ", err)
		}
		registry = loaded
		defer registry.Close()
		fmt.Printf("opened durable state in %s\n", *dataDir)
	}
	sched := jobs.NewScheduler(jobs.Config{
		MinWorkers: 1, MaxWorkers: *workers,
		QueueSize: *queue, MaxQueuedPerTag: *quota,
	})
	defer sched.Shutdown()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	opts := []api.Option{
		api.WithLogger(logger),
		api.WithRateLimit(*rate, *burst),
		api.WithGate(resilience.GateConfig{MaxInflight: *inflight}),
	}
	if *trustProxy {
		opts = append(opts, api.WithTrustProxy())
	}
	if *streams > 0 {
		opts = append(opts, api.WithStreamSessions(*streams))
	}
	if *memLimitMB > 0 {
		opts = append(opts, api.WithMemoryLimit(uint64(*memLimitMB)<<20))
	}
	if *watchdog > 0 {
		opts = append(opts, api.WithWatchdog(*watchdog, *watchdogCancel))
	}
	if *dataDir != "" {
		// /readyz goes red if the state directory disappears out from
		// under the process (unmounted volume, deleted tree).
		dir := *dataDir
		opts = append(opts, api.WithReadinessProbe("store", func() error {
			_, err := os.Stat(dir)
			return err
		}))
	}
	server := api.NewServer(registry, sched, opts...)
	defer server.Close()
	httpSrv := &http.Server{Addr: *addr, Handler: server.Handler()}

	// Graceful shutdown: drain live streaming sessions (each flushes its
	// queued frames and emits a terminal event to its subscribers), then
	// stop the HTTP server, waiting for in-flight requests.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\nshutting down: draining streams and in-flight requests")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := server.Drain(ctx); err != nil {
			log.Println("draining streams:", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Println("http shutdown:", err)
		}
	}()

	fmt.Printf("edgepulse studio listening on %s\n", *addr)
	fmt.Printf("design blocks: dsp %v, learn %v (catalog: GET /api/v1/blocks)\n",
		dsp.Names(), core.LearnNames())
	fmt.Println("bootstrap: curl -XPOST http://localhost" + *addr + "/api/v1/users -d '{\"name\":\"you\"}'")
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if *dataDir != "" {
		// Datasets are already durable; Save persists registry metadata +
		// impulse designs and compacts store manifests.
		if err := registry.Save(*dataDir); err != nil {
			log.Println("saving state:", err)
		} else {
			fmt.Printf("state saved to %s\n", *dataDir)
		}
	}
}

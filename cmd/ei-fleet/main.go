// Command ei-fleet is the macro load harness CLI: it storms a live
// target — a running daemon, a gateway fronting a worker fleet, or an
// in-process daemon it boots itself — with M synthetic devices running
// a configurable scenario mix, then prints the per-op latency/shed
// breakdown and detection-recall scoreboard.
//
// Usage:
//
//	ei-fleet                              storm an in-process daemon
//	ei-fleet -target http://host:4800     storm a running target
//	ei-fleet -devices 32 -ops 8           bigger fleet
//	ei-fleet -mix classify=4,stream=2     custom scenario mix
//	ei-fleet -out FLEET_STAMP.json        also write the result as JSON
//	ei-fleet -check                       exit 1 on SLO violations
//
// Runs are deterministic from -seed: the same devices replay the same
// uploads, windows and embedded utterances on every invocation.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgepulse/internal/api"
	"edgepulse/internal/fleet"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
)

func main() {
	target := flag.String("target", "", "base URL of a running daemon or gateway (empty = boot an in-process daemon)")
	devices := flag.Int("devices", 8, "number of synthetic devices")
	ops := flag.Int("ops", 4, "scenario iterations per device")
	seed := flag.Int64("seed", 42, "base seed; device i storms with synth.Derive(seed, i)")
	mixSpec := flag.String("mix", "", "scenario mix weights, e.g. classify=4,stream=1 (empty = default mix)")
	concurrency := flag.Int("concurrency", 0, "max devices in flight at once (0 = all)")
	quantized := flag.Bool("quantized", false, "serve the int8 model instead of float32")
	streamSeconds := flag.Float64("stream-seconds", 0, "seconds of audio per streaming session (0 = default)")
	streamEvents := flag.Int("stream-events", 0, "embedded utterances per streaming session (0 = default)")
	out := flag.String("out", "", "write the result as a JSON record (STAMP expands to a UTC timestamp)")
	check := flag.Bool("check", false, "evaluate the default SLO and exit 1 on violations")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall run deadline")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	cfg := fleet.Config{
		Devices:       *devices,
		OpsPerDevice:  *ops,
		Seed:          *seed,
		Concurrency:   *concurrency,
		Quantized:     *quantized,
		StreamSeconds: *streamSeconds,
		StreamEvents:  *streamEvents,
	}
	if *mixSpec != "" {
		mix, err := fleet.ParseMix(*mixSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Mix = mix
	}

	url := *target
	if url == "" {
		shutdown, addr, err := startInproc()
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		url = addr
		fmt.Printf("in-process daemon listening on %s\n", url)
	}

	res, err := fleet.Run(ctx, url, cfg)
	if err != nil {
		fatal(err)
	}
	report(res)

	if *out != "" {
		path, err := fleet.WriteRecord(*out, res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nrecord written to %s\n", path)
	}
	if *check {
		if v := res.Violations(fleet.DefaultSLO()); len(v) > 0 {
			fmt.Fprintln(os.Stderr, "\nSLO violations:")
			for _, line := range v {
				fmt.Fprintf(os.Stderr, "  %s\n", line)
			}
			os.Exit(1)
		}
		fmt.Println("\nSLO: ok")
	}
}

// startInproc boots the platform's API server on a loopback port with
// rate limits off, so the harness measures the platform rather than its
// own API-key budget. It is leaner than cmd/ei-studio's wiring: no
// durable state, no stalled-job watchdog and no request logger.
func startInproc() (shutdown func(), url string, err error) {
	registry := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{
		MinWorkers: 2,
		MaxWorkers: 4,
		QueueSize:  64,
	})
	server := api.NewServer(registry, sched, api.WithRateLimit(0, 0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Shutdown()
		return nil, "", err
	}
	httpSrv := &http.Server{Handler: server.Handler()}
	go httpSrv.Serve(ln)
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		sched.Shutdown()
	}
	return shutdown, "http://" + ln.Addr().String(), nil
}

// report prints the scoreboard: one row per op, then recall and the
// target's goroutine/heap movement.
func report(res *fleet.Result) {
	fmt.Printf("target    %s\n", res.Target)
	fmt.Printf("fleet     %d devices x %d ops, seed %d, mix %s\n",
		res.Config.Devices, res.Config.OpsPerDevice, res.Config.Seed, res.Config.Mix)
	fmt.Printf("timing    setup %.2fs, storm %.2fs\n\n", res.SetupSeconds, res.WallSeconds)

	fmt.Printf("%-15s %7s %7s %9s %9s %9s %9s %6s %6s\n",
		"op", "count", "ops/s", "p50 ms", "p95 ms", "p99 ms", "max ms", "shed", "hard")
	for _, o := range res.Ops {
		fmt.Printf("%-15s %7d %7.1f %9.2f %9.2f %9.2f %9.2f %6d %6d\n",
			o.Op, o.Count, o.OpsPerSec, o.P50MS, o.P95MS, o.P99MS, o.MaxMS, o.Shed, o.HardErrors)
	}

	if res.Recall.Sessions > 0 {
		fmt.Printf("\nrecall    %d/%d utterances over %d sessions (%.3f), %d missed, %d false\n",
			res.Recall.Detected, res.Recall.Events, res.Recall.Sessions,
			res.Recall.Recall, res.Recall.Missed, res.Recall.False)
	}
	if res.TargetDelta.Available {
		fmt.Printf("target Δ  %+d goroutines, %+.1f KiB heap\n",
			res.TargetDelta.Goroutines, float64(res.TargetDelta.HeapAllocBytes)/1024)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ei-fleet:", err)
	os.Exit(1)
}

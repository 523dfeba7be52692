// Command ei-gateway is the cluster front door: it owns the static
// shard map and reverse-proxies the entire /api/v1 surface onto a
// worker fleet. Project-scoped requests route to the shard owning the
// project ID (hash-mod); when a shard's primary goes unready the
// gateway fails reads over to the shard's follower and sheds writes
// with 503 + Retry-After and the stable no_shard error code.
//
// Usage, flag-driven map:
//
//	ei-gateway -addr :4799 -shards 2 -cluster-token SECRET \
//	    -node worker:0:http://127.0.0.1:4801 \
//	    -node worker:1:http://127.0.0.1:4802 \
//	    -node follower:0:http://127.0.0.1:4811
//
// over the matching ei-studio nodes:
//
//	ei-studio -addr :4801 -data w0 -shards 2 -shard 0 -cluster-token SECRET -trust-proxy
//	ei-studio -addr :4802 -data w1 -shards 2 -shard 1 -cluster-token SECRET -trust-proxy
//	ei-studio -addr :4811 -data f0 -shards 2 -shard 0 -cluster-token SECRET -trust-proxy \
//	    -follow http://127.0.0.1:4801
//
// or config-file driven:
//
//	ei-gateway -addr :4799 -map cluster.json
//
// where cluster.json matches internal/cluster.Map:
//
//	{"shards": 2, "nodes": [
//	  {"name": "w0", "url": "http://127.0.0.1:4801", "role": "worker", "shard": 0},
//	  ...
//	]}
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

	"edgepulse/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":4799", "listen address")
	mapFile := flag.String("map", "", "shard map JSON file (alternative to -shards/-node)")
	shards := flag.Int("shards", 0, "shard count for flag-driven maps")
	token := flag.String("cluster-token", "", "shared secret sent as X-Cluster-Token on intra-cluster calls")
	poll := flag.Duration("poll", time.Second, "worker health poll interval")
	var specs []string
	flag.Func("node", "cluster node as role:shard:url (repeatable)", func(v string) error {
		specs = append(specs, v)
		return nil
	})
	flag.Parse()

	var m *cluster.Map
	var err error
	switch {
	case *mapFile != "":
		blob, rerr := os.ReadFile(*mapFile)
		if rerr != nil {
			log.Fatal("reading shard map: ", rerr)
		}
		m, err = cluster.ParseMap(blob)
	case len(specs) > 0:
		m, err = cluster.ParseNodeSpecs(*shards, specs)
	default:
		log.Fatal("ei-gateway: provide -map FILE or -shards N with -node specs")
	}
	if err != nil {
		log.Fatal(err)
	}

	gw := cluster.NewGateway(m, cluster.GatewayConfig{
		Token:        *token,
		PollInterval: *poll,
		Logger:       slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	gw.Start()
	defer gw.Stop()

	httpSrv := &http.Server{Addr: *addr, Handler: gw}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\nshutting down gateway")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Println("http shutdown:", err)
		}
	}()

	fmt.Printf("edgepulse gateway listening on %s (%d shards, %d nodes)\n",
		*addr, m.Shards, len(m.Nodes))
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

package e2e

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"edgepulse/internal/api"
	"edgepulse/internal/fleet"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
)

// TestFleetMacroStorm is the macro end-to-end: a mixed-scenario device
// fleet storms one in-process daemon wired with a real admission gate
// and a deliberately small job queue, and the platform SLO must hold —
// interactive traffic is never shed with "overloaded", every refusal
// carries Retry-After, streamed ground truth is recovered exactly, and
// the daemon's goroutines return to baseline once the storm drains.
func TestFleetMacroStorm(t *testing.T) {
	registry := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{
		MinWorkers: 2, MaxWorkers: 2,
		QueueSize: 4, MaxQueuedPerTag: 4,
	})
	t.Cleanup(sched.Shutdown)
	server := httptest.NewServer(api.NewServer(registry, sched,
		api.WithRateLimit(0, 0), // the gate does the shedding, not the token bucket
		api.WithGate(resilience.GateConfig{MaxInflight: 16, SamplePeriod: time.Millisecond}),
	).Handler())
	t.Cleanup(server.Close)

	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	res, err := fleet.Run(ctx, server.URL, fleet.Config{
		Devices:       12, // one full default-mix pattern plus change
		OpsPerDevice:  2,
		Seed:          42,
		StreamSeconds: 6,
		StreamEvents:  1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The platform contract, as one gate: no interactive "overloaded"
	// sheds, Retry-After on every refusal, exact recall, zero hard
	// errors.
	if v := res.Violations(fleet.DefaultSLO()); len(v) != 0 {
		t.Fatalf("SLO violations:\n%v\nresult: %+v", v, res.Ops)
	}

	// Every scenario actually ran — a storm that silently skipped ops
	// would pass the SLO vacuously.
	for _, op := range []string{
		fleet.OpUpload, fleet.OpClassify, fleet.OpClassifyBatch,
		fleet.OpStreamOpen, fleet.OpStreamPush, fleet.OpStreamClose,
		fleet.OpTrain, fleet.OpTune,
	} {
		if st := res.Op(op); st == nil || st.Count == 0 {
			t.Fatalf("op %s never ran: %+v", op, res.Ops)
		}
	}
	if res.Recall.Sessions == 0 || res.Recall.Events == 0 {
		t.Fatalf("no streaming ground truth scored: %+v", res.Recall)
	}

	// The daemon sheds load, it doesn't leak it: goroutines return to
	// the pre-storm baseline (modulo scheduler worker slack) once
	// sessions close and jobs drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !res.TargetDelta.Available {
		t.Fatalf("runtime metrics missing from target: %+v", res.TargetDelta)
	}
}

// TestFleetGatewayStorm aims a smaller fleet — including a streaming
// device — at the sharded gateway from the cluster harness: the same
// SLO must hold when every request hops through shard routing and the
// session lives on a worker behind the proxy.
func TestFleetGatewayStorm(t *testing.T) {
	e := newClusterEnv(t)

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	res, err := fleet.Run(ctx, e.gwSrv.URL, fleet.Config{
		Devices:       4, // upload, classify, classify, stream
		OpsPerDevice:  1,
		Seed:          42,
		Mix:           fleet.Mix{Upload: 1, Classify: 2, Stream: 1},
		StreamSeconds: 6,
		StreamEvents:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(fleet.DefaultSLO()); len(v) != 0 {
		t.Fatalf("SLO violations through gateway:\n%v\nresult: %+v", v, res.Ops)
	}
	for _, op := range []string{fleet.OpUpload, fleet.OpClassify, fleet.OpStreamOpen, fleet.OpStreamPush, fleet.OpStreamClose} {
		if st := res.Op(op); st == nil || st.Count == 0 {
			t.Fatalf("op %s never ran through the gateway: %+v", op, res.Ops)
		}
	}
	if res.Recall.Sessions != 1 || res.Recall.Missed != 0 || res.Recall.False != 0 {
		t.Fatalf("gateway stream recall: %+v", res.Recall)
	}
}

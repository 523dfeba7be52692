package fleet

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"edgepulse/internal/api"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
)

// startDaemon boots an in-process platform the same way the e2e suite
// does and returns its base URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	registry := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{
		MinWorkers: 2, MaxWorkers: 4,
		QueueSize: 64, ScaleInterval: 5 * time.Millisecond,
	})
	t.Cleanup(sched.Shutdown)
	server := httptest.NewServer(api.NewServer(registry, sched, api.WithRateLimit(0, 0)).Handler())
	t.Cleanup(server.Close)
	return server.URL
}

// TestRunMixedStorm drives a full mixed-scenario fleet against an
// in-process daemon: every scenario executes, nothing hard-errors, the
// streamed ground truth is recovered exactly, and the record round
// trip preserves the result.
func TestRunMixedStorm(t *testing.T) {
	url := startDaemon(t)
	cfg := Config{
		Devices:       10, // one full default-mix pattern: every scenario runs
		OpsPerDevice:  1,
		Seed:          42,
		TrainEpochs:   8,
		StreamSeconds: 6,
		StreamEvents:  1,
	}
	res, err := Run(context.Background(), url, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every scenario in the mix produced stats.
	for _, op := range []string{OpUpload, OpClassify, OpClassifyBatch, OpStreamOpen, OpStreamPush, OpStreamClose, OpTrain, OpTune} {
		st := res.Op(op)
		if st == nil || st.Count == 0 {
			t.Fatalf("op %s missing from result: %+v", op, res.Ops)
		}
		if st.HardErrors != 0 {
			t.Fatalf("op %s hard errors: %+v", op, st)
		}
		if st.P50MS <= 0 || st.P99MS < st.P50MS {
			t.Fatalf("op %s percentiles: %+v", op, st)
		}
	}

	// The streaming device recovered its embedded ground truth exactly.
	if res.Recall.Sessions != 1 || res.Recall.Events != 1 {
		t.Fatalf("recall coverage: %+v", res.Recall)
	}
	if res.Recall.Recall != 1 || res.Recall.Missed != 0 || res.Recall.False != 0 {
		t.Fatalf("recall: %+v", res.Recall)
	}

	// The target served the runtime block, so the delta is available.
	if !res.TargetDelta.Available {
		t.Fatalf("target delta unavailable: %+v", res.TargetDelta)
	}
	if res.WallSeconds <= 0 || res.SetupSeconds <= 0 {
		t.Fatalf("timings: wall=%v setup=%v", res.WallSeconds, res.SetupSeconds)
	}

	// The default SLO holds on an unloaded daemon.
	if v := res.Violations(DefaultSLO()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}

	// And the record round-trips through WriteRecord's format.
	path, err := WriteRecord(t.TempDir()+"/FLEET_STAMP.json", res)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(readFile(t, path), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Op(OpClassify).Count != res.Op(OpClassify).Count {
		t.Fatalf("record %s round trip: %+v", path, rec)
	}
}

// TestRunTargetDown fails fast with a useful error instead of storming
// a dead target.
func TestRunTargetDown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err := Run(ctx, "http://127.0.0.1:1", Config{Devices: 1, OpsPerDevice: 1})
	if err == nil {
		t.Fatal("Run against a dead target succeeded")
	}
}

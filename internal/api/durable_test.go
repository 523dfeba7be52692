package api

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
)

// TestUploadsPersistAcrossRestart drives the REST ingestion endpoint
// against a durable (store-backed) registry, "crashes" the server
// without any Save, and verifies a second server over the same
// directory lists every acknowledged sample with the same dataset
// version — the end-to-end incremental-persistence contract.
func TestUploadsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	boot := func(reg *project.Registry) (*testEnv, func()) {
		sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 2})
		srv := httptest.NewServer(NewServer(reg, sched).Handler())
		env := &testEnv{t: t, server: srv, sched: sched}
		return env, func() { srv.Close(); sched.Shutdown() }
	}

	reg, err := project.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	env, shutdown := boot(reg)
	boot0 := env.do("POST", "/api/v1/users", "", map[string]any{"name": "tester"})
	env.apiKey = boot0["api_key"].(string)
	created := env.do("POST", "/api/v1/projects", env.apiKey, map[string]any{"name": "durable"})
	projID := int(created["id"].(float64))
	hmacKey := created["hmac_key"].(string)

	for i := 0; i < 3; i++ {
		doc, err := ingest.SignJSON(ingest.Payload{
			DeviceName: "dev", DeviceType: "TEST", IntervalMS: 10,
			Sensors: []ingest.Sensor{{Name: "x", Units: "g"}},
			Values:  [][]float64{{float64(i)}, {float64(i + 1)}, {float64(i + 2)}},
		}, hmacKey, 1670000000)
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := env.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/data?label=l%d", projID, i), env.apiKey, doc, "application/json")
		if resp.StatusCode != 201 {
			t.Fatalf("upload %d: %d %s", i, resp.StatusCode, raw)
		}
	}
	list := env.do("GET", fmt.Sprintf("/api/v1/projects/%d/data", projID), env.apiKey, nil)
	version := list["version"].(string)
	apiKey := env.apiKey
	// Persist registry metadata (users/keys) once; sample data needs no
	// save. Then crash: no Close, no further writes.
	if err := reg.Save(dir); err != nil {
		t.Fatal(err)
	}
	shutdown()

	reg2, err := project.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	env2, shutdown2 := boot(reg2)
	defer shutdown2()
	env2.apiKey = apiKey
	list2 := env2.do("GET", fmt.Sprintf("/api/v1/projects/%d/data", projID), env2.apiKey, nil)
	if list2["version"] != version {
		t.Fatalf("dataset version %v != %v across restart", list2["version"], version)
	}
	samples := list2["samples"].([]any)
	if len(samples) != 3 {
		t.Fatalf("%d samples after restart, want 3", len(samples))
	}
}

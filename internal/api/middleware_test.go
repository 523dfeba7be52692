package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
)

// decodeErr decodes the structured error envelope.
func decodeErr(t *testing.T, raw []byte) v1.ErrorResponse {
	t.Helper()
	var out v1.ErrorResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad error envelope %q: %v", raw, err)
	}
	return out
}

func TestAuthFailureEnvelope(t *testing.T) {
	e := newEnv(t)
	for _, tc := range []struct {
		key  string
		want string
	}{
		{"", "missing x-api-key header"},
		{"bogus", "invalid API key"},
	} {
		resp, raw := e.doRaw("GET", "/api/v1/projects", tc.key, nil, "")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("status %d", resp.StatusCode)
		}
		env := decodeErr(t, raw)
		if env.Success || env.Error.Code != v1.CodeUnauthorized {
			t.Fatalf("envelope: %+v", env)
		}
		if env.Error.Message != tc.want {
			t.Fatalf("message %q, want %q", env.Error.Message, tc.want)
		}
		if env.Error.RequestID == "" {
			t.Fatal("error envelope lacks request id")
		}
	}
}

func TestRateLimit429(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	// 1 token/s with a burst of 2: the third immediate request must 429.
	// Only authenticated keys get their own bucket, so mint real users.
	userA, err := reg.CreateUser("a")
	if err != nil {
		t.Fatal(err)
	}
	userB, err := reg.CreateUser("b")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, sched, WithRateLimit(1, 2)).Handler())
	t.Cleanup(srv.Close)

	status := func(key string) int {
		req, _ := http.NewRequest("GET", srv.URL+"/api/v1/devices", nil)
		if key != "" {
			req.Header.Set("x-api-key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			var env v1.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != v1.CodeRateLimited {
				t.Fatalf("429 envelope: %+v err=%v", env, err)
			}
		}
		return resp.StatusCode
	}
	if got := status(userA.APIKey); got != http.StatusOK {
		t.Fatalf("first request: %d", got)
	}
	if got := status(userA.APIKey); got != http.StatusOK {
		t.Fatalf("second request: %d", got)
	}
	if got := status(userA.APIKey); got != http.StatusTooManyRequests {
		t.Fatalf("third request: %d, want 429", got)
	}
	// A different authenticated key has its own bucket.
	if got := status(userB.APIKey); got != http.StatusOK {
		t.Fatalf("other key: %d", got)
	}
	// Invalid keys share the client IP's bucket: rotating random keys
	// cannot mint fresh burst allowances.
	if got := status("bogus-1"); got != http.StatusOK {
		t.Fatalf("first bogus key: %d", got)
	}
	if got := status("bogus-2"); got != http.StatusOK {
		t.Fatalf("second bogus key: %d", got)
	}
	if got := status("bogus-3"); got != http.StatusTooManyRequests {
		t.Fatalf("rotated bogus key: %d, want 429 (fresh bucket per bogus key?)", got)
	}
}

// lockedBuffer is a log sink the handler goroutine writes while the
// test goroutine reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func panickingHandler(w http.ResponseWriter, r *http.Request) { panic("kaboom") }

func TestPanicRecoveryEnvelope(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	var logs lockedBuffer
	s := NewServer(reg, sched, WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	s.route("GET /boom", defaultOpts, panickingHandler)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/api/v1/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var env v1.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Success || env.Error.Code != v1.CodeInternal {
		t.Fatalf("envelope: %+v", env)
	}
	// The logged record carries the stack, which names the panicking
	// function.
	if !strings.Contains(logs.String(), "api.panickingHandler") {
		t.Fatalf("panic log names no panicking function:\n%s", logs.String())
	}
	snap := s.metrics.snapshot()
	if snap.Panics != 1 {
		t.Fatalf("panics counter %d", snap.Panics)
	}
	// The panicked request is recorded as a 5xx on its route.
	for _, rt := range snap.Routes {
		if rt.Route == "GET /api/v1/boom" && rt.Err5xx != 1 {
			t.Fatalf("route stats: %+v", rt)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	e := newEnv(t)
	// A server-minted ID is returned on every response.
	resp, _ := e.doRaw("GET", "/api/v1/devices", "", nil, "")
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Fatal("no X-Request-Id on response")
	}
	// A caller-provided ID is echoed and lands in the error envelope.
	req, _ := http.NewRequest("GET", e.server.URL+"/api/v1/projects", nil)
	req.Header.Set(RequestIDHeader, "trace-1234")
	got, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	if id := got.Header.Get(RequestIDHeader); id != "trace-1234" {
		t.Fatalf("echoed id %q", id)
	}
	var env v1.ErrorResponse
	if err := json.NewDecoder(got.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.RequestID != "trace-1234" {
		t.Fatalf("envelope request id %q", env.Error.RequestID)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	e := newEnv(t)
	e.expectStatus("GET", "/api/v1/devices", "", nil, http.StatusOK)
	e.expectStatus("GET", "/api/v1/devices", "", nil, http.StatusOK)
	e.expectStatus("GET", "/api/v1/projects", "", nil, http.StatusUnauthorized)

	// Metrics expose operational internals and require auth.
	e.expectStatus("GET", "/api/v1/metrics", "", nil, http.StatusUnauthorized)
	resp, raw := e.doRaw("GET", "/api/v1/metrics", e.apiKey, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var m v1.MetricsResponse
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Success || m.Requests < 3 {
		t.Fatalf("metrics: %+v", m)
	}
	byRoute := map[string]v1.RouteMetrics{}
	for _, rt := range m.Routes {
		byRoute[rt.Route] = rt
	}
	if got := byRoute["GET /api/v1/devices"]; got.Count != 2 {
		t.Fatalf("devices route count %d", got.Count)
	}
	if got := byRoute["GET /api/v1/projects"]; got.Err4xx != 1 {
		t.Fatalf("projects route: %+v", got)
	}
	if m.Scheduler.Workers < 1 {
		t.Fatalf("scheduler metrics: %+v", m.Scheduler)
	}
	// Requests that match no route still surface in the counters.
	e.expectStatus("GET", "/api/v1/nope", "", nil, http.StatusNotFound)
	_, raw = e.doRaw("GET", "/api/v1/metrics", e.apiKey, nil, "")
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rt := range m.Routes {
		if rt.Route == routeUnmatched && rt.Err4xx >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("unmatched traffic missing from metrics: %+v", m.Routes)
	}
}

func TestUnknownJSONFieldRejected(t *testing.T) {
	e := newEnv(t)
	resp, raw := e.doRaw("POST", "/api/v1/projects", e.apiKey,
		[]byte(`{"name":"p","namme":"typo"}`), "application/json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d %s", resp.StatusCode, raw)
	}
	if env := decodeErr(t, raw); env.Error.Code != v1.CodeBadRequest {
		t.Fatalf("envelope: %+v", env)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	e := newEnv(t)
	// Valid JSON that only exceeds the limit mid-stream, so the decoder
	// hits the MaxBytesReader rather than a syntax error.
	name := make([]byte, maxJSONBody+1024)
	for i := range name {
		name[i] = 'x'
	}
	big := []byte(`{"name":"` + string(name) + `"}`)
	resp, raw := e.doRaw("POST", "/api/v1/projects", e.apiKey, big, "application/json")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", resp.StatusCode, raw[:min(len(raw), 200)])
	}
	if env := decodeErr(t, raw); env.Error.Code != v1.CodePayloadTooLarge {
		t.Fatalf("envelope: %+v", env)
	}
}

func TestProjectListPagination(t *testing.T) {
	e := newEnv(t)
	for i := 0; i < 5; i++ {
		e.expectStatus("POST", "/api/v1/projects", e.apiKey,
			map[string]any{"name": fmt.Sprintf("p%d", i)}, http.StatusCreated)
	}
	resp, raw := e.doRaw("GET", "/api/v1/projects?limit=2&offset=1", e.apiKey, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, raw)
	}
	var out v1.ProjectsResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Projects) != 2 || out.Total != 5 || out.Limit != 2 || out.Offset != 1 {
		t.Fatalf("page: %+v", out)
	}
	if out.Projects[0].Name != "p1" || out.Projects[1].Name != "p2" {
		t.Fatalf("window: %+v", out.Projects)
	}
	// Offset past the end yields an empty window, not an error.
	resp, raw = e.doRaw("GET", "/api/v1/projects?offset=99", e.apiKey, nil, "")
	json.Unmarshal(raw, &out)
	if resp.StatusCode != http.StatusOK || len(out.Projects) != 0 || out.Total != 5 {
		t.Fatalf("past-end page: %d %+v", resp.StatusCode, out)
	}
	// Bad parameters are rejected.
	e.expectStatus("GET", "/api/v1/projects?limit=0", e.apiKey, nil, http.StatusBadRequest)
	e.expectStatus("GET", "/api/v1/projects?limit=abc", e.apiKey, nil, http.StatusBadRequest)
	e.expectStatus("GET", "/api/v1/projects?offset=-1", e.apiKey, nil, http.StatusBadRequest)
}

func TestDataListPagination(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "p"}, http.StatusCreated)
	id := int(created["id"].(float64))
	for i := 0; i < 4; i++ {
		csv := "timestamp,ax\n0,1.0\n10,2.0\n"
		path := fmt.Sprintf("/api/v1/projects/%d/data?label=walk&name=s%d&format=csv", id, i)
		resp, raw := e.doRaw("POST", path, e.apiKey, []byte(csv), "text/csv")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload: %d %s", resp.StatusCode, raw)
		}
	}
	resp, raw := e.doRaw("GET", fmt.Sprintf("/api/v1/projects/%d/data?limit=3", id), e.apiKey, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, raw)
	}
	var out v1.ListDataResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 3 || out.Total != 4 {
		t.Fatalf("page: got %d samples, total %d", len(out.Samples), out.Total)
	}
	if len(out.Stats) == 0 || out.Version == "" {
		t.Fatalf("stats/version missing: %+v", out)
	}
}

// TestUnversionedPathsNotFound pins that only /api/v1 is routed: the
// unversioned /api prefix answers 404 with the v1 error envelope.
func TestUnversionedPathsNotFound(t *testing.T) {
	e := newEnv(t)
	for _, path := range []string{"/api/devices", "/api/healthz"} {
		resp, raw := e.doRaw("GET", path, "", nil, "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var env v1.ErrorResponse
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: %v (%s)", path, err, raw)
		}
		if env.Success || env.Error.Code != v1.CodeNotFound {
			t.Fatalf("%s: envelope %s", path, raw)
		}
	}
}

func TestJobWaitLongPoll(t *testing.T) {
	e := newEnv(t)
	release := make(chan struct{})
	job, err := e.sched.Submit("training", func(ctx context.Context, j *jobs.Job) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Short poll on a running job returns done=false.
	out := e.expectStatus("GET", "/api/v1/jobs/"+job.ID+"/wait?timeout_ms=50", e.apiKey, nil, http.StatusOK)
	if out["done"] != false {
		t.Fatalf("running job reported done: %v", out)
	}
	// Release mid-poll, once the wait request holds its gate slot: the
	// long poll returns done=true well before the timeout instead of
	// busy-waiting.
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for e.api.gate.Metrics().Inflight == 0 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		close(release)
	}()
	start := time.Now()
	out = e.expectStatus("GET", "/api/v1/jobs/"+job.ID+"/wait?timeout_ms=10000", e.apiKey, nil, http.StatusOK)
	if out["done"] != true || out["status"] != "finished" {
		t.Fatalf("wait result: %v", out)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("long poll did not return promptly after completion")
	}
	// Unknown job and bad timeout.
	e.expectStatus("GET", "/api/v1/jobs/job-999/wait", e.apiKey, nil, http.StatusNotFound)
	e.expectStatus("GET", "/api/v1/jobs/"+job.ID+"/wait?timeout_ms=nope", e.apiKey, nil, http.StatusBadRequest)
}

func TestRateLimitDisabled(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	srv := httptest.NewServer(NewServer(reg, sched, WithRateLimit(0, 0)).Handler())
	t.Cleanup(srv.Close)
	for i := 0; i < 50; i++ {
		resp, err := http.Get(srv.URL + "/api/v1/devices")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d with limiting disabled", i, resp.StatusCode)
		}
	}
}

func TestRateLimiterChurnResistance(t *testing.T) {
	rl := newRateLimiter(1, 1) // burst 1: a single request exhausts a bucket
	now := time.Now()
	// Fill the map to the cap with throttled buckets.
	for i := 0; i < maxBuckets; i++ {
		if !rl.allow(fmt.Sprintf("k%d", i), now) {
			t.Fatalf("key %d denied on first request", i)
		}
	}
	// A brand-new key cannot mint a fresh burst by churning: with only
	// exhausted buckets to evict, the limiter fails closed.
	if rl.allow("newcomer", now) {
		t.Fatal("newcomer admitted while map is full of throttled buckets")
	}
	// Existing throttled keys stay throttled — their buckets survived.
	if rl.allow("k0", now) {
		t.Fatal("throttled key regained tokens")
	}
	// Once buckets refill, pruning frees slots and newcomers are admitted.
	later := now.Add(2 * time.Second)
	if !rl.allow("newcomer", later) {
		t.Fatal("newcomer denied after refill window")
	}
}

func TestJobAccessControl(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "private"}, http.StatusCreated)
	id := int(created["id"].(float64))
	// A tuner job only needs an impulse, so it is the cheapest way to
	// mint a job tied to this project over the API.
	impulse := map[string]any{
		"name":     "p",
		"input":    map[string]any{"kind": "time-series", "window_ms": 100, "frequency_hz": 100, "axes": 1},
		"dsp_name": "raw",
	}
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/impulse", id), e.apiKey, impulse, http.StatusOK)
	csv := "timestamp,ax\n0,1.0\n10,2.0\n"
	resp, raw := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/data?label=l&format=csv", id), e.apiKey, []byte(csv), "text/csv")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, raw)
	}
	accepted := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/tuner", id), e.apiKey,
		map[string]any{"max_trials": 1, "epochs": 1}, http.StatusAccepted)
	jobID := accepted["job_id"].(string)

	// A different user (valid key, no project access) must not see the
	// job — 404, not 403, so guessing sequential IDs confirms nothing.
	other := e.do("POST", "/api/v1/users", "", map[string]any{"name": "snoop"})
	otherKey := other["api_key"].(string)
	for _, path := range []string{
		"/api/v1/jobs/" + jobID,
		"/api/v1/jobs/" + jobID + "/wait?timeout_ms=50",
		"/api/v1/jobs/" + jobID + "/result",
	} {
		e.expectStatus("GET", path, otherKey, nil, http.StatusNotFound)
	}
	// The owner still sees it.
	e.expectStatus("GET", "/api/v1/jobs/"+jobID, e.apiKey, nil, http.StatusOK)
	// A collaborator gains access with the project.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/collaborators", id), e.apiKey,
		map[string]any{"user_id": other["id"]}, http.StatusOK)
	e.expectStatus("GET", "/api/v1/jobs/"+jobID, otherKey, nil, http.StatusOK)
}

func TestJobWaitTimeoutOverflow(t *testing.T) {
	e := newEnv(t)
	release := make(chan struct{})
	defer close(release)
	job, err := e.sched.Submit("slow", func(ctx context.Context, j *jobs.Job) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A huge timeout_ms must clamp to the max wait, not overflow into a
	// negative duration that returns immediately. Clamped max is 120s,
	// so observe that the call does NOT return within ~200ms.
	start := time.Now()
	done := make(chan map[string]any, 1)
	go func() {
		done <- e.expectStatus("GET", "/api/v1/jobs/"+job.ID+"/wait?timeout_ms=10000000000000", e.apiKey, nil, http.StatusOK)
	}()
	select {
	case <-done:
		t.Fatalf("overflowed timeout returned immediately after %v", time.Since(start))
	case <-time.After(200 * time.Millisecond):
		// Still waiting — the clamp worked. Release the job so the
		// long poll completes promptly.
	}
	release <- struct{}{}
	out := <-done
	if out["done"] != true {
		t.Fatalf("wait result: %v", out)
	}
}

func TestUnmatchedRouteEnvelope(t *testing.T) {
	e := newEnv(t)
	// Unknown path: JSON envelope, not net/http's plain-text 404.
	resp, raw := e.doRaw("GET", "/api/v1/nonexistent", "", nil, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if env := decodeErr(t, raw); env.Error.Code != v1.CodeNotFound {
		t.Fatalf("envelope: %+v (%s)", env, raw)
	}
	// Wrong method on a real route: 405 envelope with Allow preserved.
	resp, raw = e.doRaw("PUT", "/api/v1/devices", "", nil, "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("Allow") == "" {
		t.Fatal("405 without Allow header")
	}
	if env := decodeErr(t, raw); env.Error.Code != v1.CodeMethodNotAllowed {
		t.Fatalf("envelope: %+v (%s)", env, raw)
	}
}

// TestRouteRecorderClassifiesStatus pins how a status counts: 4xx and
// 5xx as errors, a 499 client abort as neither, and status 0 (a handler
// that panicked before writing) as a 5xx.
func TestRouteRecorderClassifiesStatus(t *testing.T) {
	var rr RouteRecorder
	for _, status := range []int{http.StatusOK, http.StatusNotFound, statusClientClosedRequest, http.StatusServiceUnavailable, 0} {
		rr.Record("GET /x", status, 2*time.Millisecond)
	}
	rr.Record("GET /a", http.StatusOK, 0)
	routes, requests := rr.Snapshot()
	if requests != 6 || len(routes) != 2 || routes[0].Route != "GET /a" {
		t.Fatalf("snapshot %+v, %d requests", routes, requests)
	}
	if x := routes[1]; x.Count != 5 || x.Err4xx != 1 || x.Err5xx != 2 || x.AvgMS != 2 {
		t.Fatalf("GET /x counters %+v", x)
	}
}

package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
)

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp
}

func TestHealthzAlwaysOK(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	srv := httptest.NewServer(NewServer(reg, sched).Handler())
	t.Cleanup(srv.Close)

	var out v1.HealthResponse
	resp := getJSON(t, srv.URL+"/api/v1/healthz", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Success || out.Status != "ok" || out.UptimeSeconds < 0 {
		t.Fatalf("%+v", out)
	}
}

func TestReadyzDegradesAndRecovers(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	probeErr := error(nil)
	s := NewServer(reg, sched,
		WithReadinessProbe("store", func() error { return probeErr }))
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	var out v1.ReadyResponse
	resp := getJSON(t, srv.URL+"/api/v1/readyz", &out)
	if resp.StatusCode != http.StatusOK || !out.Ready {
		t.Fatalf("healthy readyz: %d %+v", resp.StatusCode, out)
	}
	if out.Probes["scheduler"] != "ok" || out.Probes["overload"] != "ok" || out.Probes["store"] != "ok" {
		t.Fatalf("probes: %+v", out.Probes)
	}

	// A failing dependency probe flips readiness to 503 with the probe
	// named in the body.
	probeErr = errOut("volume unmounted")
	out = v1.ReadyResponse{}
	resp = getJSON(t, srv.URL+"/api/v1/readyz", &out)
	if resp.StatusCode != http.StatusServiceUnavailable || out.Ready {
		t.Fatalf("degraded readyz: %d %+v", resp.StatusCode, out)
	}
	if out.Probes["store"] != "volume unmounted" {
		t.Fatalf("probes: %+v", out.Probes)
	}

	// Healing the dependency restores 200 without a restart.
	probeErr = nil
	resp = getJSON(t, srv.URL+"/api/v1/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered readyz: %d", resp.StatusCode)
	}

	// Draining flips readiness regardless of probe health.
	s.health.SetDraining(true)
	out = v1.ReadyResponse{}
	resp = getJSON(t, srv.URL+"/api/v1/readyz", &out)
	if resp.StatusCode != http.StatusServiceUnavailable || !out.Draining {
		t.Fatalf("draining readyz: %d %+v", resp.StatusCode, out)
	}
}

type errOut string

func (e errOut) Error() string { return string(e) }

func TestHealthPathsBypassRateLimit(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	// One request per second with burst 1: any second request would be
	// throttled if probes shared the limiter.
	srv := httptest.NewServer(NewServer(reg, sched, WithRateLimit(1, 1)).Handler())
	t.Cleanup(srv.Close)

	for i := 0; i < 10; i++ {
		resp := getJSON(t, srv.URL+"/api/v1/healthz", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz request %d throttled: %d", i, resp.StatusCode)
		}
		resp = getJSON(t, srv.URL+"/api/v1/readyz", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz request %d throttled: %d", i, resp.StatusCode)
		}
	}
}

// TestExemptionsComeFromTheRouteTable: only a route the table marks
// exempt skips the rate limiter and the gate. A path no route matches is
// throttled whatever its prefix, so on a node with no cluster identity
// /cluster/... answers like any unknown path; on a cluster node the
// cluster routes and both probes answer through a spent limiter and a
// gate at its concurrency bound.
func TestExemptionsComeFromTheRouteTable(t *testing.T) {
	newServer := func(opts ...Option) *Server {
		sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
		t.Cleanup(sched.Shutdown)
		return NewServer(project.NewRegistry(), sched, append(opts, WithRateLimit(1, 1))...)
	}
	get := func(s *Server, path string) int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	for _, path := range []string{"/api/v1/nope", "/api/v1/cluster/anything"} {
		s := newServer()
		var got []int
		for i := 0; i < 3; i++ {
			got = append(got, get(s, path))
		}
		if want := []int{404, 429, 429}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("GET %s three times: %v, want %v", path, got, want)
		}
	}

	s := newServer(WithClusterNode("w0", "worker", 0, 1),
		WithGate(resilience.GateConfig{MaxInflight: 1, SamplePeriod: time.Nanosecond}))
	s.route("GET /exempt", routeOpts{exempt: true}, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})
	// Spend the client's only token, then hold the gate's only slot.
	if code := get(s, "/api/v1/devices"); code != http.StatusOK {
		t.Fatalf("first request: %d", code)
	}
	release, err := s.gate.Acquire(resilience.ClassDefault)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if code := get(s, "/api/v1/devices"); code != http.StatusTooManyRequests {
		t.Fatalf("limiter not spent: %d", code)
	}
	// A default-class route the table exempts is neither throttled nor
	// shed.
	if code := get(s, "/api/v1/exempt"); code != http.StatusOK {
		t.Fatalf("exempt default-class route: %d", code)
	}
	for _, path := range []string{"/api/v1/healthz", "/api/v1/readyz", "/api/v1/cluster/node",
		"/api/v1/cluster/replication/meta"} {
		if h, _ := s.mux.Handler(httptest.NewRequest(http.MethodGet, path, nil)); !h.(*route).exempt {
			t.Errorf("%s is not exempt in the route table", path)
		}
		// readyz reports the saturated gate as 503; nothing is 429.
		if code := get(s, path); code == http.StatusTooManyRequests {
			t.Errorf("GET %s throttled on a cluster node", path)
		}
	}
	if inflight := s.gate.Metrics().Inflight; inflight != 1 {
		t.Fatalf("gate inflight %d after exempt requests, want the held 1", inflight)
	}
}

func TestDeadlineBudgetMapsTo504(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	s := NewServer(reg, sched)
	s.route("GET /slow", routeOpts{budget: 20 * time.Millisecond},
		func(w http.ResponseWriter, r *http.Request) {
			// Overrun the budget without ever writing: the deadline
			// layer owns the response.
			<-r.Context().Done()
		})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	var env v1.ErrorResponse
	resp := getJSON(t, srv.URL+"/api/v1/slow", &env)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if env.Success || env.Error.Code != v1.CodeDeadline {
		t.Fatalf("envelope: %+v", env)
	}

	// The timeout shows up in the metrics DTO and per-route counters.
	snap := s.metrics.snapshot()
	if snap.Resilience == nil || snap.Resilience.DeadlineTimeouts != 1 {
		t.Fatalf("resilience metrics: %+v", snap.Resilience)
	}
}

func TestDeadlineDoesNotClobberStartedResponse(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	s := NewServer(reg, sched)
	s.route("GET /latewrite", routeOpts{budget: 20 * time.Millisecond},
		func(w http.ResponseWriter, r *http.Request) {
			// The handler blows its budget but still writes its own
			// response; the deadline layer must not append a 504 envelope.
			<-r.Context().Done()
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"late":true}`))
		})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	resp := getJSON(t, srv.URL+"/api/v1/latewrite", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want handler's own 202", resp.StatusCode)
	}
	snap := s.metrics.snapshot()
	if snap.Resilience.DeadlineTimeouts != 0 {
		t.Fatalf("counted a deadline timeout for a handler that responded: %+v", snap.Resilience)
	}
}

func TestGateShedsWithRetryAfterAndAccounting(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	s := NewServer(reg, sched, WithGate(resilience.GateConfig{
		MaxInflight: 1, SamplePeriod: time.Nanosecond,
	}))
	ok := func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{}`)) }
	s.route("GET /work", defaultOpts, ok)
	s.route("GET /hot", interactive, ok)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// Hold the only slot so the next default-class request hard-sheds.
	release, err := s.gate.Acquire(resilience.ClassDefault)
	if err != nil {
		t.Fatal(err)
	}
	var env v1.ErrorResponse
	resp := getJSON(t, srv.URL+"/api/v1/work", &env)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if env.Error.Code != v1.CodeOverloaded {
		t.Fatalf("code %q, want %q", env.Error.Code, v1.CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Interactive traffic still flows at the hard concurrency bound.
	resp = getJSON(t, srv.URL+"/api/v1/hot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive under hard bound: %d", resp.StatusCode)
	}
	release()

	// Shed accounting reaches the metrics DTO: the total is the sum of
	// the gate's per-class breakdown.
	snap := s.metrics.snapshot()
	if snap.Resilience.Shed != 1 {
		t.Fatalf("shed counter %d, want 1", snap.Resilience.Shed)
	}
	gm := s.gate.Metrics()
	if gm.Shed["default"] != 1 {
		t.Fatalf("gate shed by class: %+v", gm.Shed)
	}
	// The 429 is also attributed to its route.
	found := false
	for _, rt := range snap.Routes {
		if rt.Route == "GET /api/v1/work" && rt.Err4xx == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("shed 429 not recorded on its route: %+v", snap.Routes)
	}
}

func TestStatusWriterWriteAfterCancel(t *testing.T) {
	// A handler whose client vanished mid-response: writes fail at the
	// transport, but the frame must keep its recorded status and not
	// panic, so metrics still classify the request.
	rec := httptest.NewRecorder()
	f := &Frame{ResponseWriter: rec}
	f.WriteHeader(statusClientClosedRequest)
	if _, err := f.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if f.status != statusClientClosedRequest || f.bytes != 4 {
		t.Fatalf("status %d, %d bytes", f.status, f.bytes)
	}
	// Late WriteHeader calls don't overwrite the first status.
	f.WriteHeader(http.StatusOK)
	if f.status != statusClientClosedRequest {
		t.Fatalf("status clobbered: %d", f.status)
	}
}

// TestGateHeapProbe: with a memory limit the gate's load sample carries
// the live heap bytes, read through runtime/metrics with at most the one
// small sample slice allocated.
func TestGateHeapProbe(t *testing.T) {
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	t.Cleanup(sched.Shutdown)
	s := NewServer(reg, sched, WithMemoryLimit(1<<30))
	if l := s.sampleLoad(); l.HeapBytes == 0 || l.HeapLimit != 1<<30 {
		t.Fatalf("load %+v: want heap bytes > 0 against a 1 GiB limit", l)
	}
	if a := testing.AllocsPerRun(100, func() { s.sampleLoad() }); a > 1 {
		t.Fatalf("sampleLoad allocates %.1f times per call", a)
	}
}

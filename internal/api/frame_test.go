package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
)

// routeCount returns route's counters in a metrics snapshot.
func routeCount(m v1.MetricsResponse, route string) v1.RouteMetrics {
	for _, rt := range m.Routes {
		if rt.Route == route {
			return rt
		}
	}
	return v1.RouteMetrics{}
}

// TestFrameEndsEachRequestOnce: however a request ends — no route, the
// wrong method, throttled, shed, panicking, out of budget or held open
// as a stream — its frame records it once under its label and status
// class and writes one access line with the response's X-Request-Id,
// and the answer is the envelope it always was.
func TestFrameEndsEachRequestOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		// prepare readies the server and returns the request to drive.
		prepare func(t *testing.T, s *Server) *http.Request
		status  int
		code    string // error envelope code; "" for a success
		route   string
		errs    string // status class counted: "4xx", "5xx" or ""
	}{
		{
			name: "not found",
			prepare: func(t *testing.T, s *Server) *http.Request {
				return httptest.NewRequest(http.MethodGet, "/api/v1/nope", nil)
			},
			status: http.StatusNotFound, code: v1.CodeNotFound, route: routeUnmatched, errs: "4xx",
		},
		{
			name: "method not allowed",
			prepare: func(t *testing.T, s *Server) *http.Request {
				return httptest.NewRequest(http.MethodPut, "/api/v1/devices", nil)
			},
			status: http.StatusMethodNotAllowed, code: v1.CodeMethodNotAllowed, route: routeUnmatched, errs: "4xx",
		},
		{
			name: "rate limited",
			opts: []Option{WithRateLimit(1, 1)},
			prepare: func(t *testing.T, s *Server) *http.Request {
				// The first request takes the client IP's only token.
				s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/v1/devices", nil))
				return httptest.NewRequest(http.MethodGet, "/api/v1/devices", nil)
			},
			status: http.StatusTooManyRequests, code: v1.CodeRateLimited, route: routeThrottled, errs: "4xx",
		},
		{
			name: "shed by the gate",
			opts: []Option{WithGate(resilience.GateConfig{MaxInflight: 1, SamplePeriod: time.Nanosecond})},
			prepare: func(t *testing.T, s *Server) *http.Request {
				// Hold the only slot, so a default-class request sheds.
				release, err := s.gate.Acquire(resilience.ClassDefault)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(release)
				return httptest.NewRequest(http.MethodGet, "/api/v1/devices", nil)
			},
			status: http.StatusTooManyRequests, code: v1.CodeOverloaded, route: "GET /api/v1/devices", errs: "4xx",
		},
		{
			name: "handler panic",
			prepare: func(t *testing.T, s *Server) *http.Request {
				s.route("GET /boom", defaultOpts, panickingHandler)
				return httptest.NewRequest(http.MethodGet, "/api/v1/boom", nil)
			},
			status: http.StatusInternalServerError, code: v1.CodeInternal, route: "GET /api/v1/boom", errs: "5xx",
		},
		{
			name: "deadline",
			prepare: func(t *testing.T, s *Server) *http.Request {
				s.route("GET /slow", routeOpts{budget: 5 * time.Millisecond},
					func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() })
				return httptest.NewRequest(http.MethodGet, "/api/v1/slow", nil)
			},
			status: http.StatusGatewayTimeout, code: v1.CodeDeadline, route: "GET /api/v1/slow", errs: "5xx",
		},
		{
			name: "stream",
			prepare: func(t *testing.T, s *Server) *http.Request {
				u, err := s.registry.CreateUser("feed")
				if err != nil {
					t.Fatal(err)
				}
				job, err := s.sched.Submit("train", func(ctx context.Context, j *jobs.Job) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.sched.Wait(job.ID, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+job.ID+"/events", nil)
				req.Header.Set("x-api-key", u.APIKey)
				return req
			},
			status: http.StatusOK, route: "GET /api/v1/jobs/{job}/events",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
			t.Cleanup(sched.Shutdown)
			var logs lockedBuffer
			s := NewServer(project.NewRegistry(), sched,
				append(tc.opts, WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))...)
			req := tc.prepare(t, s)
			before := s.metrics.snapshot()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			after := s.metrics.snapshot()

			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			id := rec.Header().Get(RequestIDHeader)
			if id == "" {
				t.Fatal("no X-Request-Id")
			}
			if tc.code != "" {
				var env v1.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Fatalf("envelope %q: %v", rec.Body, err)
				}
				if env.Success || env.Error.Code != tc.code || env.Error.RequestID != id {
					t.Fatalf("envelope %+v, want code %q and request id %q", env, tc.code, id)
				}
			}

			b, a := routeCount(before, tc.route), routeCount(after, tc.route)
			if after.Requests-before.Requests != 1 || a.Count-b.Count != 1 {
				t.Fatalf("recorded %d requests, %d under %q; want 1 and 1 (routes %+v)",
					after.Requests-before.Requests, a.Count-b.Count, tc.route, after.Routes)
			}
			e4, e5 := a.Err4xx-b.Err4xx, a.Err5xx-b.Err5xx
			if want4, want5 := tc.errs == "4xx", tc.errs == "5xx"; (e4 == 1) != want4 || (e5 == 1) != want5 || e4+e5 > 1 {
				t.Fatalf("counted %d 4xx and %d 5xx, want class %q", e4, e5, tc.errs)
			}

			var lines []string
			for _, l := range strings.Split(logs.String(), "\n") {
				if strings.Contains(l, "msg=request ") && strings.Contains(l, "request_id="+id) {
					lines = append(lines, l)
				}
			}
			if len(lines) != 1 || !strings.Contains(lines[0], fmt.Sprintf("status=%d", tc.status)) ||
				!strings.Contains(lines[0], tc.route) {
				t.Fatalf("access lines for %s: %q", id, lines)
			}

			switch tc.name {
			case "method not allowed":
				if allow := rec.Header().Get("Allow"); !strings.Contains(allow, http.MethodGet) {
					t.Fatalf("Allow %q", allow)
				}
			case "rate limited":
				if after.RateLimited-before.RateLimited != 1 || rec.Header().Get("Retry-After") != "1" {
					t.Fatalf("rate_limited %d -> %d, Retry-After %q",
						before.RateLimited, after.RateLimited, rec.Header().Get("Retry-After"))
				}
			case "shed by the gate":
				if after.Resilience.Shed-before.Resilience.Shed != 1 || rec.Header().Get("Retry-After") == "" {
					t.Fatalf("shed %d -> %d", before.Resilience.Shed, after.Resilience.Shed)
				}
			case "handler panic":
				if after.Panics-before.Panics != 1 {
					t.Fatalf("panics %d -> %d", before.Panics, after.Panics)
				}
			case "deadline":
				if after.Resilience.DeadlineTimeouts-before.Resilience.DeadlineTimeouts != 1 {
					t.Fatalf("deadline timeouts %+v", after.Resilience)
				}
			case "stream":
				// A held-open feed is recorded with zero duration; its
				// lifetime goes to the stream metrics.
				if a.AvgMS != 0 || len(after.Streams) != 1 || after.Streams[0].Count != 1 || after.Streams[0].Active != 0 {
					t.Fatalf("route %+v, streams %+v", a, after.Streams)
				}
			}
		})
	}
}

// getProjectRequest builds a server with the benchmark daemon's options
// (request log formatted and discarded, rate limit off, gate and
// watchdog on) and one authenticated GET /projects/{id} request.
func getProjectRequest(tb testing.TB) (http.Handler, *http.Request) {
	tb.Helper()
	reg := project.NewRegistry()
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	tb.Cleanup(sched.Shutdown)
	s := NewServer(reg, sched,
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		WithRateLimit(0, 0),
		WithGate(resilience.GateConfig{}),
		WithWatchdog(2*time.Minute, false),
	)
	tb.Cleanup(s.Close)
	u, err := reg.CreateUser("bench")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := reg.CreateProject("bench", u.ID)
	if err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/projects/%d", p.ID), nil)
	req.Header.Set("x-api-key", u.APIKey)
	return s.Handler(), req
}

// TestServeGetProjectAllocs pins the allocations of one authenticated
// GET /projects/{id} through Server.Handler(), recorder included: 33
// when the request passed four middlewares and a per-route closure, 25
// in one frame, 22 since the mux matches once and the gate admits
// without a release closure.
func TestServeGetProjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race-detector instrumentation")
	}
	h, req := getProjectRequest(t)
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
	if allocs > 22 {
		t.Fatalf("%.0f allocations per GET /projects/{id}, want <= 22", allocs)
	}
}

func BenchmarkServeGetProject(b *testing.B) {
	h, req := getProjectRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}

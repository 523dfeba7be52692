package api

import (
	"context"
	"errors"
	"net/http"
	"runtime/metrics"
	"strconv"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/resilience"
)

// Per-route deadline budgets. Interactive endpoints answer from memory
// or run one bounded inference, so they get a tight budget; uploads can
// move tens of megabytes; the long-poll wait route's budget sits above
// the maximum client-requested timeout so the deadline never fires
// before a legitimate long poll completes.
const (
	budgetInteractive = 10 * time.Second
	budgetDefault     = 30 * time.Second
	budgetUpload      = 2 * time.Minute
	budgetWait        = maxWaitTimeout + 10*time.Second
)

// routeOpts carries one route's resilience settings: its admission class
// and deadline budget. The zero value is a default-class route with the
// default budget.
type routeOpts struct {
	class resilience.Class
	// budget is the context deadline applied around the handler
	// (stream routes get none: they manage their own lifetimes).
	budget time.Duration
	// exempt bypasses the admission gate (health probes must answer
	// while shedding, or the orchestrator would kill an overloaded but
	// healthy instance).
	exempt bool
}

func (ro routeOpts) effectiveBudget() time.Duration {
	if ro.budget > 0 {
		return ro.budget
	}
	if ro.class == resilience.ClassInteractive {
		return budgetInteractive
	}
	return budgetDefault
}

// Route-class shorthands used by the route table.
var (
	interactive = routeOpts{class: resilience.ClassInteractive}
	defaultOpts = routeOpts{}
	batch       = routeOpts{class: resilience.ClassBatch}
)

// WithGate overrides the admission gate tuning. A nil Sample keeps the
// server's own load sampler (scheduler queue depth, stream sessions,
// optional memory limit).
func WithGate(cfg resilience.GateConfig) Option {
	return func(s *Server) { s.gateCfg = cfg }
}

// WithMemoryLimit adds heap pressure to the admission gate's load
// score: live heap object bytes (runtime/metrics'
// /memory/classes/heap/objects:bytes, read without stopping the world)
// approaching bytes contribute to shedding. That is less than
// MemStats.HeapInuse, which also counts free slots in in-use spans, so
// a given limit sheds later than a HeapInuse budget would. 0 (the
// default) ignores memory.
func WithMemoryLimit(bytes uint64) Option {
	return func(s *Server) { s.memLimit = bytes }
}

// WithWatchdog runs a stuck-job watchdog: running jobs that emit no
// event for window are flagged with a stalled event; cancel opts into
// cancelling them through the cooperative-cancel path. Callers that
// enable it should Close the server on shutdown.
func WithWatchdog(window time.Duration, cancel bool) Option {
	return func(s *Server) { s.watchdogCfg = &resilience.WatchdogConfig{Window: window, Cancel: cancel} }
}

// WithReadinessProbe registers a named dependency check on /readyz:
// probe returns nil while the dependency is healthy. The scheduler and
// overload probes are built in; hosts add externals (the durable store's
// data directory, a downstream service).
func WithReadinessProbe(name string, probe func() error) Option {
	return func(s *Server) { s.health.Register(name, probe) }
}

// sampleLoad feeds the gate's non-HTTP pressure dimensions.
func (s *Server) sampleLoad() resilience.Load {
	pending, qcap := s.sched.QueueDepth()
	load := resilience.Load{
		QueueDepth: pending,
		QueueCap:   qcap,
		Sessions:   s.streams.Active(),
		SessionCap: s.streams.Max(),
	}
	if s.memLimit > 0 {
		// The gate calls this at most once per SamplePeriod, under
		// its own mutex, so a fresh one-element sample is enough.
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(sample)
		load.HeapBytes = sample[0].Value.Uint64()
		load.HeapLimit = s.memLimit
	}
	return load
}

// withGate guards a route with the admission gate: shed requests get
// 429 + Retry-After with the stable "overloaded" code and never reach
// the handler.
func (s *Server) withGate(ro routeOpts, next http.Handler) http.Handler {
	if ro.exempt {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := s.gate.Acquire(ro.class)
		if err != nil {
			retryAfter := time.Second
			var shed *resilience.ShedError
			if errors.As(err, &shed) && shed.RetryAfter > 0 {
				retryAfter = shed.RetryAfter
			}
			w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
			WriteError(w, r, http.StatusTooManyRequests, v1.CodeOverloaded,
				"server overloaded, "+ro.class.String()+"-class request shed; retry later")
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// withDeadline bounds the handler with the route's timeout budget. When
// the budget expires before the handler has written anything (the
// frame holds no status), the request is answered 504 with the stable
// "deadline" code; a handler that already started its response keeps
// the status it wrote.
func (s *Server) withDeadline(budget time.Duration, next http.Handler) http.Handler {
	if budget <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return
		}
		if f, ok := w.(*Frame); ok && f.status == 0 {
			s.metrics.deadlineTimeout()
			WriteError(w, r, http.StatusGatewayTimeout, v1.CodeDeadline,
				"request exceeded its processing deadline")
		}
	})
}

// handleHealthz is the liveness probe: 200 whenever the process can
// serve HTTP, independent of load or dependency state, so orchestrators
// restart only truly dead processes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, v1.HealthResponse{
		Success:       true,
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
	})
}

// handleReadyz is the readiness probe: 503 while any dependency probe
// fails, load shedding is active, or the server is draining; 200
// otherwise. The probe map is returned either way so operators can see
// which check is red.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := s.health.Ready()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, v1.ReadyResponse{
		Success:  rd.Ready,
		Ready:    rd.Ready,
		Draining: rd.Draining,
		Probes:   rd.Probes,
	})
}

// isHealthPath matches the liveness/readiness endpoints, which bypass
// rate limiting (and the gate): a probe squeezed out by a token bucket
// would flap the instance out of the load balancer under churn.
func isHealthPath(path string) bool {
	switch path {
	case v1.Prefix + "/healthz", v1.Prefix + "/readyz":
		return true
	}
	return false
}

// registerHealthProbes wires the built-in readiness checks.
func (s *Server) registerHealthProbes() {
	s.health.Register("scheduler", func() error {
		if !s.sched.Accepting() {
			return errors.New("scheduler not accepting jobs")
		}
		return nil
	})
	s.health.Register("overload", func() error {
		if lvl := s.gate.Level(); lvl != resilience.LevelNormal {
			return errors.New("load shedding active: " + lvl.String())
		}
		return nil
	})
}

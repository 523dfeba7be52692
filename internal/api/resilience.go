package api

import (
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

// routeOpts says how one route is admitted. The zero value is a
// default-class route with the default budget.
type routeOpts struct {
	class resilience.Class
	// budget is the context deadline applied around the handler (0: the
	// class's default).
	budget time.Duration
	// stream marks a long-lived NDJSON route: it gets no budget (the
	// connection manages its own lifetime) and is recorded with zero
	// duration, its connection's lifetime going to the stream metrics.
	stream bool
	// exempt skips the rate limiter and the admission gate: a probe
	// squeezed out under load would flap the instance out of rotation,
	// and a follower must keep replicating from a busy primary.
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
	interactive       = routeOpts{class: resilience.ClassInteractive}
	interactiveStream = routeOpts{class: resilience.ClassInteractive, stream: true}
	defaultOpts       = routeOpts{}
	batch             = routeOpts{class: resilience.ClassBatch}
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

// answerShed answers a request the gate refused: 429 + Retry-After
// with the stable "overloaded" code.
func answerShed(f *Frame, r *http.Request, class resilience.Class, err error) {
	retryAfter := time.Second
	var shed *resilience.ShedError
	if errors.As(err, &shed) && shed.RetryAfter > 0 {
		retryAfter = shed.RetryAfter
	}
	f.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
	WriteError(f, r, http.StatusTooManyRequests, v1.CodeOverloaded,
		"server overloaded, "+class.String()+"-class request shed; retry later")
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

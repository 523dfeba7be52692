package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
)

// middleware wraps a handler with one cross-cutting concern. The chain
// is assembled once in NewServer; per-route instrumentation happens at
// registration time so metrics are keyed by route pattern, not raw URL.
type middleware func(http.Handler) http.Handler

// chain applies middlewares so that the first argument is outermost.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// --- request IDs ---

type ctxKey int

const (
	requestIDKey ctxKey = iota
	// authUserKey carries the *project.User the rate limiter already
	// resolved, so the auth adapter can skip a second lookup.
	authUserKey
)

// RequestIDHeader carries the request correlation ID.
const RequestIDHeader = "X-Request-Id"

// RequestID returns the correlation ID attached by the middleware, or
// "" outside a request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-unknown"
	}
	return hex.EncodeToString(b[:])
}

// withRequestID honors an incoming X-Request-Id (so IDs propagate
// through multi-hop automation) or mints one, stores it in the context
// and echoes it on the response.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > 64 {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

// --- response observation ---

// statusWriter records the status code and bytes written, for logging
// and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards http.Flusher through the wrapper so streaming
// endpoints (the job event feed) can push chunks mid-handler. Embedding
// alone would hide the underlying connection's Flush.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer
// for capabilities we don't forward explicitly (EnableFullDuplex,
// deadline control on the NDJSON duplex endpoint).
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// withLogging emits one structured line per request. Clustered nodes
// add their shard id, so one request id traces across the gateway hop
// to the shard that served it.
func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		fields := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(time.Since(start).Microseconds()) / 1000,
			"request_id", RequestID(r.Context()),
		}
		if s.cluster != nil {
			fields = append(fields, "shard", s.cluster.shard)
		}
		s.log.Info("request", fields...)
	})
}

// withRecovery converts handler panics into a 500 error envelope
// instead of tearing down the connection, logging the panicking
// goroutine's stack so the 500 can be traced to its source. A batch
// window's panic arrives re-raised by core.Impulse.ClassifyBatch; its
// record also carries the worker goroutine's stack.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.metrics.panic()
				fields := []any{"method", r.Method, "path", r.URL.Path,
					"panic", rec, "request_id", RequestID(r.Context()),
					"stack", string(debug.Stack())}
				if wp, ok := rec.(*core.WindowPanic); ok {
					fields = append(fields, "worker_stack", string(wp.Stack))
				}
				s.log.Error("panic in handler", fields...)
				s.writeError(w, r, http.StatusInternalServerError, v1.CodeInternal, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// --- rate limiting ---

// rateLimiter is a per-key token bucket: each API key (or, for
// unauthenticated traffic, each client IP) accrues rate tokens per
// second up to burst.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets hard-caps limiter memory regardless of key churn.
const maxBuckets = 4096

func newRateLimiter(rate float64, burst int) *rateLimiter {
	return &rateLimiter{rate: rate, burst: float64(burst), buckets: map[string]*bucket{}}
}

// bucketFor returns the refilled bucket for key, creating it when
// absent. At the maxBuckets cap it evicts only buckets that still hold
// spare tokens — dropping a throttled bucket would hand its key a
// fresh burst on recreation, letting key churn defeat the limit. When
// the map is entirely full of exhausted buckets (a churn attack), it
// returns nil and the request is denied (fail closed). The caller must
// hold rl.mu.
func (rl *rateLimiter) bucketFor(key string, now time.Time) *bucket {
	b, ok := rl.buckets[key]
	if !ok {
		if len(rl.buckets) >= maxBuckets {
			rl.prune(now)
			// Only fully-refilled buckets may go: recreation grants
			// exactly the burst such a bucket already held, so no key
			// gains allowance from being evicted.
			for k, old := range rl.buckets {
				if len(rl.buckets) < maxBuckets {
					break
				}
				if old.tokens >= rl.burst {
					delete(rl.buckets, k)
				}
			}
			if len(rl.buckets) >= maxBuckets {
				return nil
			}
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
		return b
	}
	b.tokens += now.Sub(b.last).Seconds() * rl.rate
	if b.tokens > rl.burst {
		b.tokens = rl.burst
	}
	b.last = now
	return b
}

// allow consumes one token for key, refilling lazily.
func (rl *rateLimiter) allow(key string, now time.Time) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.bucketFor(key, now)
	if b == nil || b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// allowBoth consumes one token from a bucket in each limiter only when
// both have capacity — all or nothing, so a rejection by one bucket
// never drains the other. Lock order is fixed (first, then second) and
// every caller passes (limiter, aggLimiter), so there is no deadlock.
func allowBoth(first *rateLimiter, firstKey string, second *rateLimiter, secondKey string, now time.Time) bool {
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	fb := first.bucketFor(firstKey, now)
	sb := second.bucketFor(secondKey, now)
	if fb == nil || sb == nil || fb.tokens < 1 || sb.tokens < 1 {
		return false
	}
	fb.tokens--
	sb.tokens--
	return true
}

// prune drops buckets idle long enough to have refilled completely.
func (rl *rateLimiter) prune(now time.Time) {
	for k, b := range rl.buckets {
		if now.Sub(b.last).Seconds()*rl.rate >= rl.burst {
			delete(rl.buckets, k)
		}
	}
}

// aggFactor scales the aggregate per-IP ceiling relative to the
// per-key budget: a NAT full of legitimate users gets headroom, but a
// single host cannot multiply its allowance without bound by minting
// users (POST /users is unauthenticated, so keys are free).
const aggFactor = 10

// withRateLimit enforces the per-key budget before any handler work.
// Only API keys that actually authenticate get their own bucket —
// unauthenticated and invalid keys share the client IP's bucket, so
// rotating random keys cannot mint fresh burst allowances — and all
// authenticated traffic is additionally bounded by an aggregate per-IP
// bucket at aggFactor× the per-key budget.
// clientHost resolves the client address for rate limiting. Behind a
// reverse proxy every connection shares the proxy's RemoteAddr, which
// would collapse all tenants into one IP bucket — WithTrustProxy opts
// in to the X-Forwarded-For client hop instead (never trusted by
// default, since the header is client-forgeable when no proxy strips
// it).
func (s *Server) clientHost(r *http.Request) string {
	if s.trustProxy {
		if fwd := r.Header.Get("X-Forwarded-For"); fwd != "" {
			// Take the RIGHTMOST hop: appending proxies add the real
			// client last, so earlier entries are client-forgeable.
			parts := strings.Split(fwd, ",")
			if host := strings.TrimSpace(parts[len(parts)-1]); host != "" {
				return host
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) withRateLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.limiter == nil { // WithRateLimit(0, _): limiting disabled
			next.ServeHTTP(w, r)
			return
		}
		if isHealthPath(r.URL.Path) || isClusterPath(r.URL.Path) {
			// Probes bypass the limiter: an orchestrator polling through
			// a shared NAT must never be throttled into flapping the
			// instance out of rotation. The cluster plane does too — a
			// follower tailing replication must not be throttled into
			// falling behind (it is token-guarded, not public).
			next.ServeHTTP(w, r)
			return
		}
		host := s.clientHost(r)
		now := time.Now()
		allowed, authenticated := false, false
		if apiKey := r.Header.Get("x-api-key"); apiKey != "" {
			if u, err := s.registry.Authenticate(apiKey); err == nil {
				authenticated = true
				allowed = allowBoth(s.limiter, "key:"+apiKey, s.aggLimiter, host, now)
				if allowed {
					// Stash the resolved user so the auth adapter
					// doesn't authenticate a second time.
					r = r.WithContext(context.WithValue(r.Context(), authUserKey, u))
				}
			}
		}
		if !authenticated {
			allowed = s.limiter.allow("ip:"+host, now)
		}
		if !allowed {
			s.metrics.rateLimit()
			s.metrics.routes.Record(routeThrottled, http.StatusTooManyRequests, 0)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, r, http.StatusTooManyRequests, v1.CodeRateLimited, "rate limit exceeded, retry later")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// --- metrics ---

// Synthetic route labels for traffic that never reaches a registered
// handler, so it still shows up in the request/error counters.
const (
	routeUnmatched = "(unmatched)"
	routeThrottled = "(rate-limited)"
)

// apiMetrics aggregates request counters per v1 route pattern. Requests
// that miss every route or are throttled before dispatch are counted
// under the synthetic (unmatched) and (rate-limited) labels.
type apiMetrics struct {
	start  time.Time
	routes RouteRecorder

	mu          sync.Mutex
	rateLimited int64
	panics      int64
	sheds       int64
	deadlines   int64
	streams     map[string]*streamStat
}

// RouteRecorder counts requests, 4xx and 5xx answers and latency per
// route label. A worker's metrics and the cluster gateway's both use it,
// so the two classify a status the same way. The zero value is ready.
type RouteRecorder struct {
	mu     sync.Mutex
	routes map[string]*routeStat
}

type routeStat struct {
	count    int64
	err4xx   int64
	err5xx   int64
	totalDur time.Duration
}

// streamStat tracks long-lived connections separately from routeStat:
// folding an hours-long NDJSON feed into totalDur would swamp the
// request-latency average for its route.
type streamStat struct {
	active   int64
	count    int64
	totalDur time.Duration
}

func newAPIMetrics() *apiMetrics {
	return &apiMetrics{
		start:   time.Now(),
		streams: map[string]*streamStat{},
	}
}

// Record counts one request to route that answered status after dur.
// A client abort (499) is not an error; status 0, a handler that
// panicked before writing, counts as a 5xx.
func (rr *RouteRecorder) Record(route string, status int, dur time.Duration) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	st, ok := rr.routes[route]
	if !ok {
		if rr.routes == nil {
			rr.routes = map[string]*routeStat{}
		}
		st = &routeStat{}
		rr.routes[route] = st
	}
	st.count++
	st.totalDur += dur
	switch {
	case status == statusClientClosedRequest:
		// Client aborts (long-poll disconnects) are not server errors.
	case status >= 500 || status == 0: // 0: the handler panicked mid-flight
		st.err5xx++
	case status >= 400:
		st.err4xx++
	}
}

// Snapshot returns the per-route counters sorted by route, and the
// request total over all routes.
func (rr *RouteRecorder) Snapshot() (routes []v1.RouteMetrics, requests int64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	routes = make([]v1.RouteMetrics, 0, len(rr.routes))
	for route, st := range rr.routes {
		avg := 0.0
		if st.count > 0 {
			avg = float64(st.totalDur.Microseconds()) / 1000 / float64(st.count)
		}
		routes = append(routes, v1.RouteMetrics{
			Route: route, Count: st.count,
			Err4xx: st.err4xx, Err5xx: st.err5xx, AvgMS: avg,
		})
		requests += st.count
	}
	sort.Slice(routes, func(i, j int) bool { return routes[i].Route < routes[j].Route })
	return routes, requests
}

func (m *apiMetrics) streamStart(route string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.streams[route]
	if !ok {
		st = &streamStat{}
		m.streams[route] = st
	}
	st.active++
}

func (m *apiMetrics) streamEnd(route string, dur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.streams[route]
	if !ok {
		st = &streamStat{}
		m.streams[route] = st
	}
	st.active--
	st.count++
	st.totalDur += dur
}

func (m *apiMetrics) rateLimit() {
	m.mu.Lock()
	m.rateLimited++
	m.mu.Unlock()
}

func (m *apiMetrics) panic() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// shedRequest counts a request refused by the admission gate (429
// "overloaded"); deadlineTimeout counts a request answered 504 because
// its budget expired before the handler wrote anything.
func (m *apiMetrics) shedRequest() {
	m.mu.Lock()
	m.sheds++
	m.mu.Unlock()
}

func (m *apiMetrics) deadlineTimeout() {
	m.mu.Lock()
	m.deadlines++
	m.mu.Unlock()
}

// snapshot renders the counters as the v1 DTO, routes sorted by name.
func (m *apiMetrics) snapshot() v1.MetricsResponse {
	routes, requests := m.routes.Snapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	streams := make([]v1.StreamRouteMetrics, 0, len(m.streams))
	for route, st := range m.streams {
		avg := 0.0
		if st.count > 0 {
			avg = st.totalDur.Seconds() / float64(st.count)
		}
		streams = append(streams, v1.StreamRouteMetrics{
			Route: route, Active: st.active, Count: st.count, AvgSeconds: avg,
		})
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].Route < streams[j].Route })
	return v1.MetricsResponse{
		Success:       true,
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      requests,
		RateLimited:   m.rateLimited,
		Panics:        m.panics,
		Routes:        routes,
		Streams:       streams,
		Resilience: &v1.ResilienceMetrics{
			Shed:             m.sheds,
			DeadlineTimeouts: m.deadlines,
		},
	}
}

// instrument wraps one route's handler to record per-route counters
// under the given (v1) pattern. Layering, outermost first: statusWriter
// + metrics, admission gate, deadline budget, handler — so gate 429s
// and deadline 504s are counted per route, and withDeadline can ask the
// statusWriter whether the handler wrote anything before answering 504.
func (s *Server) instrument(route string, ro routeOpts, h http.Handler) http.Handler {
	inner := s.withGate(ro, s.withDeadline(ro.effectiveBudget(), h))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			s.metrics.routes.Record(route, sw.status, time.Since(start))
		}()
		inner.ServeHTTP(sw, r)
	})
}

// instrumentStream wraps a long-lived streaming route: the request
// counter still records status and errors, but the connection's
// lifetime is accounted under stream metrics with zero request
// duration, so held-open feeds don't distort the route's latency. The
// admission gate still applies (a shed feed is cheap to retry); no
// deadline does — the connection manages its own lifetime.
func (s *Server) instrumentStream(route string, ro routeOpts, h http.Handler) http.Handler {
	inner := s.withGate(ro, h)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		s.metrics.streamStart(route)
		defer func() {
			dur := time.Since(start)
			s.metrics.streamEnd(route, dur)
			s.metrics.routes.Record(route, sw.status, 0)
		}()
		inner.ServeHTTP(sw, r)
	})
}

package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
)

// RequestIDHeader carries the request correlation ID.
const RequestIDHeader = "X-Request-Id"

// frameKey is the context key of a request's *Frame.
type frameKey struct{}

// RequestID returns the correlation ID of the request ctx belongs to, or
// "" outside a request.
func RequestID(ctx context.Context) string {
	if f, ok := ctx.Value(frameKey{}).(*Frame); ok {
		return f.id
	}
	return ""
}

// Frame is the one record of a request in flight, on a worker and on the
// cluster gateway alike. It is the http.ResponseWriter every handler
// writes through, so it sees the status and bytes, and it carries the
// start time, the request ID, the route label, the user the rate limiter
// authenticated and the node that served the request. An Observer
// allocates it once per request and stores it in the request context.
type Frame struct {
	http.ResponseWriter
	status int
	bytes  int64
	start  time.Time
	id     string
	route  string
	// untimed records the request with zero duration: a held-open stream
	// (its lifetime goes to stream metrics) or a request no route served.
	untimed bool
	// matched is the route-table entry the mux matched (worker only).
	matched *route
	user    *project.User
	node    string
	shard   int
}

// SetRoute sets the label the request is recorded under.
func (f *Frame) SetRoute(route string) { f.route = route }

// SetNode names the cluster node, and its shard, that served the request.
func (f *Frame) SetNode(name string, shard int) { f.node, f.shard = name, shard }

func (f *Frame) WriteHeader(code int) {
	if f.status == 0 {
		f.status = code
	}
	f.ResponseWriter.WriteHeader(code)
}

func (f *Frame) Write(b []byte) (int, error) {
	if f.status == 0 {
		f.status = http.StatusOK
	}
	n, err := f.ResponseWriter.Write(b)
	f.bytes += int64(n)
	return n, err
}

// Flush forwards http.Flusher, so streaming endpoints can push chunks
// mid-handler; embedding alone would hide the connection's Flush.
func (f *Frame) Flush() {
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the connection's writer
// for what the frame does not forward itself (EnableFullDuplex, write
// deadlines).
func (f *Frame) Unwrap() http.ResponseWriter { return f.ResponseWriter }

// Observer opens and ends the request frames of one server. Its End is
// the one place a request is recorded under its route, a panic becomes
// the 500 envelope and the access line is written, so a worker and the
// cluster gateway count and log requests the same way.
type Observer struct {
	Routes RouteRecorder
	log    *slog.Logger
	// msg is the access line's message; node and shard, when node is
	// not "", name the server itself on every line.
	msg    string
	node   string
	shard  int
	panics atomic.Int64
}

// NewObserver returns an Observer whose access lines go to log under msg.
func NewObserver(log *slog.Logger, msg string) *Observer {
	return &Observer{log: log, msg: msg}
}

// Panics counts the handler panics End answered with a 500.
func (o *Observer) Panics() int64 { return o.panics.Load() }

// Begin opens w's frame for r. It honors an incoming X-Request-Id of at
// most 64 bytes (so IDs propagate through multi-hop automation) or mints
// one, echoes it on the response and returns r with the frame in its
// context. The caller must defer End with the returned frame and request.
func (o *Observer) Begin(w http.ResponseWriter, r *http.Request) (*Frame, *http.Request) {
	f := &Frame{ResponseWriter: w, start: time.Now(), id: r.Header.Get(RequestIDHeader), node: o.node, shard: o.shard}
	if f.id == "" || len(f.id) > 64 {
		f.id = newRequestID()
	}
	w.Header().Set(RequestIDHeader, f.id)
	return f, r.WithContext(context.WithValue(r.Context(), frameKey{}, f))
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-unknown"
	}
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// End closes f. A panic in the handler is answered with the 500 envelope
// and logged with the panicking goroutine's stack (a batch window's
// panic, re-raised by core.Impulse.ClassifyBatch, also carries the
// worker goroutine's stack); http.ErrAbortHandler is re-raised once the
// request is recorded. The request is then recorded once under its
// route and the one access line is written. End must be deferred by
// Begin's caller: recover works only there.
func (o *Observer) End(f *Frame, r *http.Request) {
	rec := recover()
	if rec != nil && rec != http.ErrAbortHandler {
		o.panics.Add(1)
		fields := []any{"method", r.Method, "path", r.URL.Path,
			"panic", rec, "request_id", f.id, "stack", string(debug.Stack())}
		if wp, ok := rec.(*core.WindowPanic); ok {
			fields = append(fields, "worker_stack", string(wp.Stack))
		}
		o.log.Error("panic in handler", fields...)
		WriteError(f, r, http.StatusInternalServerError, v1.CodeInternal, "internal server error")
	}
	dur, recorded := time.Since(f.start), time.Duration(0)
	if !f.untimed {
		recorded = dur
	}
	o.Routes.Record(f.route, f.status, recorded)
	line := [...]slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", f.status),
		slog.Int64("bytes", f.bytes),
		slog.Float64("duration_ms", float64(dur.Microseconds())/1000),
		slog.String("route", f.route),
		slog.String("request_id", f.id),
		slog.String("node", f.node),
		slog.Int("shard", f.shard),
	}
	n := len(line)
	if f.node == "" { // no node served it: drop node and shard, the last two
		n -= 2
	}
	o.log.LogAttrs(r.Context(), slog.LevelInfo, o.msg, line[:n]...)
	if rec == http.ErrAbortHandler {
		panic(rec)
	}
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

// admit enforces the per-key budget before any handler work and reports
// whether the request may proceed; a refused one is answered 429 under
// the (rate-limited) label. Only API keys that actually authenticate get
// their own bucket — unauthenticated and invalid keys share the client
// IP's bucket, so rotating random keys cannot mint fresh burst
// allowances — and all authenticated traffic is additionally bounded by
// an aggregate per-IP bucket at aggFactor× the per-key budget. The user
// a key resolves to stays on the frame, so auth does not look it up
// again.
func (s *Server) admit(f *Frame, r *http.Request) bool {
	if s.limiter == nil { // WithRateLimit(0, _): limiting disabled
		return true
	}
	host := s.clientHost(r)
	now := time.Now()
	allowed, authenticated := false, false
	if apiKey := r.Header.Get(apiKeyHeader); apiKey != "" {
		if u, err := s.registry.Authenticate(apiKey); err == nil {
			authenticated = true
			allowed = allowBoth(s.limiter, "key:"+apiKey, s.aggLimiter, host, now)
			if allowed {
				f.user = u
			}
		}
	}
	if !authenticated {
		allowed = s.limiter.allow("ip:"+host, now)
	}
	if !allowed {
		f.route, f.untimed = routeThrottled, true
		f.Header().Set("Retry-After", "1")
		WriteError(f, r, http.StatusTooManyRequests, v1.CodeRateLimited, "rate limit exceeded, retry later")
	}
	return allowed
}

// --- metrics ---

// Synthetic route labels for traffic that never reaches a registered
// handler, so it still shows up in the request/error counters.
const (
	routeUnmatched = "(unmatched)"
	routeThrottled = "(rate-limited)"
)

// apiMetrics is a worker's Observer plus the counters only a worker
// keeps. Requests that miss every route or are throttled before their
// route runs are recorded under the synthetic (unmatched) and
// (rate-limited) labels.
type apiMetrics struct {
	Observer
	start time.Time
	// gate's per-class sheds are the shed total: serve is its only
	// caller.
	gate *resilience.Gate

	mu        sync.Mutex
	deadlines int64
	streams   map[string]*streamStat
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

func newAPIMetrics(log *slog.Logger, gate *resilience.Gate) *apiMetrics {
	return &apiMetrics{
		Observer: Observer{log: log, msg: "request"},
		start:    time.Now(),
		gate:     gate,
		streams:  map[string]*streamStat{},
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

// deadlineTimeout counts a request answered 504 because its budget
// expired before the handler wrote anything.
func (m *apiMetrics) deadlineTimeout() {
	m.mu.Lock()
	m.deadlines++
	m.mu.Unlock()
}

// snapshot renders the counters as the v1 DTO, routes sorted by name.
// The rate-limited total is the (rate-limited) route's count and the
// shed total the sum of the gate's per-class sheds.
func (m *apiMetrics) snapshot() v1.MetricsResponse {
	routes, requests := m.Routes.Snapshot()
	var throttled int64
	for _, rt := range routes {
		if rt.Route == routeThrottled {
			throttled = rt.Count
		}
	}
	gm := m.gate.Metrics()
	var shed int64
	for _, n := range gm.Shed {
		shed += n
	}
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
		RateLimited:   throttled,
		Panics:        m.Panics(),
		Routes:        routes,
		Streams:       streams,
		Resilience: &v1.ResilienceMetrics{
			Level:            gm.Level,
			Score:            gm.Score,
			Inflight:         gm.Inflight,
			Shed:             shed,
			ShedByClass:      gm.Shed,
			DeadlineTimeouts: m.deadlines,
		},
	}
}

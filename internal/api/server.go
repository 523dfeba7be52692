// Package api exposes the full platform over a versioned REST API
// (paper Sec. 4.9: "all functionality is exposed via publicly accessible
// REST APIs, which allows users to automate the data collection, model
// training, and deployment processes"). Every endpoint lives under
// /api/v1 with typed request/response DTOs declared in internal/api/v1.
// Each request runs in one frame that provides its request ID, panic
// recovery, request metrics (GET /api/v1/metrics) and one structured
// access line; per-API-key token-bucket rate limiting, the admission
// gate and the route's deadline budget run in it as the route table
// says. Failures use a structured envelope
// {"success":false,"error":{"code":...,"message":...}} with stable
// machine-readable codes.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path"
	"strconv"
	"strings"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
	"edgepulse/internal/stream"
)

// Option customizes a Server.
type Option func(*Server)

// WithLogger sets the structured request logger (default: discard).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithRateLimit overrides the per-API-key token bucket (default
// 100 req/s with a burst of 200); the aggregate per-IP ceiling scales
// with it at aggFactor×. rate == 0 disables rate limiting entirely,
// rate < 0 keeps the default, and burst <= 0 defaults to 2× the rate.
func WithRateLimit(rate float64, burst int) Option {
	return func(s *Server) {
		if rate < 0 {
			return
		}
		if rate == 0 {
			s.limiter, s.aggLimiter = nil, nil
			return
		}
		if burst <= 0 {
			burst = int(2 * rate)
			if burst < 1 {
				burst = 1
			}
		}
		s.limiter = newRateLimiter(rate, burst)
		s.aggLimiter = newRateLimiter(rate*aggFactor, burst*aggFactor)
	}
}

// Server wires the platform services behind an http.Handler.
type Server struct {
	registry *project.Registry
	sched    *jobs.Scheduler

	mux     *http.ServeMux
	log     *slog.Logger
	limiter *rateLimiter
	// aggLimiter bounds each client IP's aggregate authenticated
	// traffic, since API keys are freely mintable via POST /users.
	aggLimiter *rateLimiter
	// trustProxy honors X-Forwarded-For for the client IP (opt-in,
	// only safe behind a proxy that overwrites the header).
	trustProxy bool
	metrics    *apiMetrics
	// streams manages live inference sessions (the streaming plane),
	// at most streamMax at once (<= 0: stream.DefaultMaxSessions).
	streams   *stream.Manager
	streamMax int

	// Cluster plane: node identity (nil outside a cluster) and the
	// optional shared token guarding the replication endpoints.
	cluster      *clusterNode
	clusterToken string

	// Resilience plane: gate sheds batch/default work under load,
	// health backs /readyz, watchdog (optional) flags stuck jobs.
	gate        *resilience.Gate
	gateCfg     resilience.GateConfig
	memLimit    uint64
	health      *resilience.Health
	watchdog    *resilience.Watchdog
	watchdogCfg *resilience.WatchdogConfig
}

// WithStreamSessions caps concurrent live inference sessions across all
// projects (default stream.DefaultMaxSessions). max <= 0 keeps the
// default.
func WithStreamSessions(max int) Option {
	return func(s *Server) {
		s.streamMax = max
	}
}

// WithTrustProxy keys IP rate limiting on the first X-Forwarded-For
// hop instead of the connection's RemoteAddr. Enable only behind a
// reverse proxy that sets the header itself; the header is forgeable
// from direct connections.
func WithTrustProxy() Option {
	return func(s *Server) { s.trustProxy = true }
}

// NewServer builds the API server over a registry and scheduler.
func NewServer(reg *project.Registry, sched *jobs.Scheduler, opts ...Option) *Server {
	s := &Server{
		registry:   reg,
		sched:      sched,
		mux:        http.NewServeMux(),
		log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		limiter:    newRateLimiter(100, 200),
		aggLimiter: newRateLimiter(100*aggFactor, 200*aggFactor),
		health:     resilience.NewHealth(),
	}
	for _, opt := range opts {
		opt(s)
	}
	// Built after the options, so its sessions log through WithLogger's
	// logger.
	s.streams = stream.NewManager(s.streamMax, s.log)
	// The gate is built after options so WithGate tuning applies; its
	// sampler folds in scheduler backlog, stream sessions and (opt-in)
	// heap pressure on top of the in-flight count it tracks itself.
	if s.gateCfg.Sample == nil {
		s.gateCfg.Sample = s.sampleLoad
	}
	s.gate = resilience.NewGate(s.gateCfg)
	s.metrics = newAPIMetrics(s.log, s.gate)
	if s.cluster != nil {
		s.metrics.node, s.metrics.shard = s.cluster.name, s.cluster.shard
	}
	s.registerHealthProbes()
	if s.watchdogCfg != nil {
		cfg := *s.watchdogCfg
		cfg.OnStall = func(j *jobs.Job) {
			s.log.Warn("job stalled", "job", j.ID, "kind", j.Kind)
		}
		s.watchdog = resilience.NewWatchdog(sched, cfg)
		s.watchdog.Start()
	}
	s.routes()
	return s
}

// serve is the root handler and the one request pipeline. Inside the
// frame, whose deferred End records the request, recovers a panic and
// writes the access line, it matches the route table once, rate-limits
// unless the route is exempt (a path no route matches, or one the mux
// redirects, is not), admits through the gate unless exempt, bounds the
// handler with the route's budget (or accounts a stream route's
// connection instead) and runs it.
func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	f, r := s.metrics.Begin(w, r)
	defer s.metrics.End(f, r)
	// The mux answers by itself to redirect a path that is not clean
	// (and to refuse a "*" request URI), so such a request is limited
	// before it.
	if p := r.URL.EscapedPath(); r.Method != http.MethodConnect && p != cleanPath(p) && !s.admit(f, r) {
		return
	}
	// The mux sets r's path values and its entry names itself on f.
	s.mux.ServeHTTP(f, r)
	rt := f.matched
	if rt == nil {
		f.route, f.untimed = routeUnmatched, true
		return
	}
	f.route = rt.label
	if !rt.exempt && !s.admit(f, r) {
		return
	}
	if rt.h == nil {
		f.untimed = true
		s.answerUnmatched(f, r)
		return
	}
	if !rt.exempt {
		if err := s.gate.Admit(rt.class); err != nil {
			answerShed(f, r, rt.class, err)
			return
		}
		defer s.gate.Release()
	}
	if rt.stream {
		f.untimed = true
		s.metrics.streamStart(rt.label)
		defer func() { s.metrics.streamEnd(rt.label, time.Since(f.start)) }()
		rt.h(f, r)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.effectiveBudget())
	defer cancel()
	rt.h(f, r.WithContext(ctx))
	// A budget that expired before the handler wrote anything is
	// answered 504; a started response keeps the status it wrote.
	if f.status == 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.metrics.deadlineTimeout()
		WriteError(f, r, http.StatusGatewayTimeout, v1.CodeDeadline,
			"request exceeded its processing deadline")
	}
}

// cleanPath is the path net/http's ServeMux redirects p to: rooted,
// with . and .. elements and repeated slashes removed, and a trailing
// slash kept.
func cleanPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	np := path.Clean(p)
	if strings.HasSuffix(p, "/") && np != "/" {
		np += "/"
	}
	return np
}

// route is one entry of the route table: its label (the full v1
// pattern), how it is admitted and its handler. The catch-all entry has
// no handler.
type route struct {
	routeOpts
	label string
	h     http.HandlerFunc
}

// ServeHTTP is the mux's part of matching: it names the entry on the
// request's frame, and serve runs it.
func (rt *route) ServeHTTP(w http.ResponseWriter, _ *http.Request) { w.(*Frame).matched = rt }

// answerUnmatched answers a request no route matched with the envelope
// in place of net/http's plain-text fallbacks: 405 with the Allow header
// the mux computes (every method whose route matches the path, HEAD with
// GET) when the path has routes, else 404.
func (s *Server) answerUnmatched(f *Frame, r *http.Request) {
	var allow []string
	for _, m := range [...]string{http.MethodConnect, http.MethodDelete, http.MethodGet, http.MethodHead,
		http.MethodOptions, http.MethodPatch, http.MethodPost, http.MethodPut, http.MethodTrace} {
		if _, p := s.mux.Handler(&http.Request{Method: m, URL: r.URL, Host: r.Host}); p != catchAll {
			allow = append(allow, m)
		}
	}
	if len(allow) == 0 {
		WriteError(f, r, http.StatusNotFound, v1.CodeNotFound, "no such endpoint")
		return
	}
	f.Header().Set("Allow", strings.Join(allow, ", "))
	WriteError(f, r, http.StatusMethodNotAllowed, v1.CodeMethodNotAllowed,
		"method "+r.Method+" not allowed for this endpoint")
}

// Handler returns the root handler: every request runs in its frame.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serve) }

// Streams exposes the streaming session manager (for embedding hosts
// that want to drain it on shutdown).
func (s *Server) Streams() *stream.Manager { return s.streams }

// Drain starts graceful shutdown: readiness flips to 503 (so load
// balancers stop routing here), then live streaming sessions are closed,
// each flushing its queued frames and emitting a terminal event. Call
// before http.Server.Shutdown so held-open event feeds end gracefully.
func (s *Server) Drain(ctx context.Context) error {
	s.health.SetDraining(true)
	return s.streams.Drain(ctx)
}

// Close releases the server's background work (the stuck-job watchdog,
// when enabled). It does not drain; call Drain first for graceful
// shutdown.
func (s *Server) Close() {
	if s.watchdog != nil {
		s.watchdog.Stop()
	}
}

// Health exposes the readiness probe set, so embedding hosts can add
// probes or flip draining themselves.
func (s *Server) Health() *resilience.Health { return s.health }

// catchAll is the pattern of the route table's entry for every path no
// route matches.
const catchAll = "/"

// route registers a handler under the v1 prefix, admitted as ro says.
// pattern is "METHOD /path"; metrics are keyed by the full v1 pattern,
// so gate 429s and deadline 504s are counted per route.
func (s *Server) route(pattern string, ro routeOpts, h http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("api: route pattern must be \"METHOD /path\": " + pattern)
	}
	label := method + " " + v1.Prefix + path
	s.mux.Handle(label, &route{routeOpts: ro, label: label, h: h})
}

func (s *Server) routes() {
	// Every path no route matches: rate-limited, then 404 or 405.
	s.mux.Handle(catchAll, &route{label: routeUnmatched})

	// Liveness/readiness: unauthenticated, exempt from the limiter and
	// the gate so probes keep answering while the server sheds load.
	probe := routeOpts{class: resilience.ClassInteractive, exempt: true, budget: 5 * time.Second}
	s.route("GET /healthz", probe, s.handleHealthz)
	s.route("GET /readyz", probe, s.handleReadyz)

	// Unauthenticated bootstrap + discovery.
	s.route("POST /users", defaultOpts, s.handleCreateUser)
	s.route("GET /devices", defaultOpts, s.handleDevices)
	s.route("GET /blocks", defaultOpts, s.handleBlocks)
	s.route("GET /projects/public", defaultOpts, s.handlePublicProjects)

	// Operational counters expose route/error/load internals, so they
	// require an API key like every other non-bootstrap endpoint.
	// Interactive class: operators must see metrics during overload.
	s.route("GET /metrics", interactive, s.auth(s.handleMetrics))

	// Authenticated project APIs.
	s.route("POST /projects", defaultOpts, s.auth(s.handleCreateProject))
	s.route("GET /projects", defaultOpts, s.auth(s.handleListProjects))
	s.route("GET /projects/{id}", defaultOpts, s.auth(s.withProject(s.handleGetProject)))
	s.route("POST /projects/{id}/public", defaultOpts, s.auth(s.withProject(s.handleSetPublic)))
	s.route("POST /projects/{id}/collaborators", defaultOpts, s.auth(s.withProject(s.handleAddCollaborator)))

	s.route("POST /projects/{id}/data", routeOpts{budget: budgetUpload}, s.auth(s.withProject(s.handleUploadData)))
	s.route("GET /projects/{id}/data", defaultOpts, s.auth(s.withProject(s.handleListData)))
	s.route("DELETE /projects/{id}/data/{sample}", defaultOpts, s.auth(s.withProject(s.handleDeleteSample)))
	s.route("POST /projects/{id}/rebalance", defaultOpts, s.auth(s.withProject(s.handleRebalance)))

	s.route("POST /projects/{id}/impulse", defaultOpts, s.auth(s.withProject(s.handleSetImpulse)))
	s.route("GET /projects/{id}/impulse", defaultOpts, s.auth(s.withProject(s.handleGetImpulse)))

	// Training submits async work (default class); the tuner's long
	// sweeps are batch class — first to shed under pressure. Classify is
	// the interactive hot path the gate must never refuse.
	s.route("POST /projects/{id}/train", defaultOpts, s.auth(s.withProject(s.handleTrain)))
	s.route("POST /projects/{id}/tuner", batch, s.auth(s.withProject(s.handleTuner)))
	s.route("POST /projects/{id}/classify", interactive, s.auth(s.withProject(s.handleClassify)))
	s.route("POST /projects/{id}/classify/batch", interactive, s.auth(s.withProject(s.handleClassifyBatch)))
	s.route("GET /projects/{id}/deployment", defaultOpts, s.auth(s.withProject(s.handleDeployment)))
	s.route("GET /projects/{id}/profile", defaultOpts, s.auth(s.withProject(s.handleProfile)))

	s.route("POST /projects/{id}/versions", batch, s.auth(s.withProject(s.handleSnapshot)))
	s.route("GET /projects/{id}/versions", defaultOpts, s.auth(s.withProject(s.handleVersions)))

	// Live streaming inference sessions: interactive, a device is
	// holding an open feed.
	s.route("POST /projects/{id}/stream", interactive, s.auth(s.withProject(s.handleStreamOpen)))
	s.route("POST /projects/{id}/stream/{sid}/frames", interactive, s.auth(s.withProject(s.handleStreamPush)))
	s.route("GET /projects/{id}/stream/{sid}/events", interactiveStream, s.auth(s.withProject(s.handleStreamEvents)))
	s.route("DELETE /projects/{id}/stream/{sid}", interactive, s.auth(s.withProject(s.handleStreamClose)))
	s.route("POST /projects/{id}/stream/duplex", interactiveStream, s.auth(s.withProject(s.handleStreamDuplex)))

	// Cluster plane (no-op outside a cluster).
	s.clusterRoutes()

	s.route("GET /jobs/{job}", defaultOpts, s.auth(s.handleGetJob))
	s.route("GET /jobs/{job}/wait", routeOpts{budget: budgetWait}, s.auth(s.handleJobWait))
	s.route("GET /jobs/{job}/result", defaultOpts, s.auth(s.handleJobResult))
	s.route("GET /jobs/{job}/events", routeOpts{stream: true}, s.auth(s.handleJobEvents))
	s.route("DELETE /jobs/{job}", defaultOpts, s.auth(s.handleCancelJob))
}

// userHandler receives the authenticated user.
type userHandler func(w http.ResponseWriter, r *http.Request, u *project.User)

// apiKeyHeader carries the caller's API key; written canonically so
// looking it up does not allocate.
const apiKeyHeader = "X-Api-Key"

// auth resolves the x-api-key header to a user, reusing the identity
// the rate limiter already resolved onto the frame when available.
func (s *Server) auth(next userHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if f, ok := w.(*Frame); ok && f.user != nil {
			next(w, r, f.user)
			return
		}
		key := r.Header.Get(apiKeyHeader)
		if key == "" {
			WriteError(w, r, http.StatusUnauthorized, v1.CodeUnauthorized, "missing x-api-key header")
			return
		}
		u, err := s.registry.Authenticate(key)
		if err != nil {
			WriteError(w, r, http.StatusUnauthorized, v1.CodeUnauthorized, "invalid API key")
			return
		}
		next(w, r, u)
	}
}

// projectHandler receives the authorized project.
type projectHandler func(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project)

// withProject resolves {id} and enforces access control.
func (s *Server) withProject(next projectHandler) userHandler {
	return func(w http.ResponseWriter, r *http.Request, u *project.User) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "bad project id")
			return
		}
		p, err := s.registry.GetProject(id)
		if err != nil {
			WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, err.Error())
			return
		}
		if !p.CanAccess(u.ID) {
			WriteError(w, r, http.StatusForbidden, v1.CodeForbidden, "no access to this project")
			return
		}
		next(w, r, u, p)
	}
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers status with the structured error envelope: a stable
// code, the message and the request's correlation ID.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	WriteJSON(w, status, v1.ErrorResponse{
		Success: false,
		Error:   v1.ErrorDetail{Code: code, Message: msg, RequestID: RequestID(r.Context())},
	})
}

// badRequest classifies a body-decoding failure: oversized payloads get
// 413/payload_too_large, everything else 400/bad_request.
func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		WriteError(w, r, http.StatusRequestEntityTooLarge, v1.CodePayloadTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
		return
	}
	WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
}

// Body bounds: structured JSON requests are small; raw sample payloads
// and classify feature windows (image impulses reach megabytes of JSON)
// get the large bound.
const (
	maxJSONBody = 1 << 20
	maxDataBody = 64 << 20
)

// statusClientClosedRequest mirrors nginx's 499: the client went away
// before a response was written (normal for long-poll endpoints); the
// metrics layer excludes it from error counts.
const statusClientClosedRequest = 499

// decodeBody strictly decodes a JSON request body (v1.DecodeStrict:
// unknown fields and trailing data are rejected, so typos fail loudly
// instead of silently defaulting), and the reader is bounded so an
// oversized body surfaces as *http.MaxBytesError (mapped to 413 by
// badRequest) instead of being read to completion.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeBodyLimit(w, r, v, maxJSONBody)
}

func decodeBodyLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	if err := v1.DecodeStrict(http.MaxBytesReader(w, r.Body, limit), v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// PageParams reads a list request's limit/offset query parameters:
// limit defaults to 100 and is capped at MaxPageSize, offset defaults to
// 0; anything else is an error (400). The cluster gateway pages by the
// same rule.
func PageParams(r *http.Request) (limit, offset int, err error) {
	limit = defaultPageSize
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit <= 0 {
			return 0, 0, fmt.Errorf("limit must be a positive integer")
		}
		if limit > MaxPageSize {
			limit = MaxPageSize
		}
	}
	if raw := r.URL.Query().Get("offset"); raw != "" {
		offset, err = strconv.Atoi(raw)
		if err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("offset must be a non-negative integer")
		}
	}
	return limit, offset, nil
}

// Paginate slices items to the requested window and reports the applied
// page. An empty window yields a nil slice (marshals as null).
func Paginate[T any](items []T, limit, offset int) ([]T, v1.Page) {
	page := v1.Page{Limit: limit, Offset: offset, Total: len(items)}
	if offset >= len(items) {
		return nil, page
	}
	end := offset + limit
	if end > len(items) {
		end = len(items)
	}
	return items[offset:end], page
}

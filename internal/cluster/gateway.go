package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
)

// NodeHeader names the response header carrying the node that actually
// served a proxied request.
const NodeHeader = "X-Cluster-Node"

// retryAfterSeconds is the Retry-After hint on 503 no_shard responses.
const retryAfterSeconds = 2

// GatewayConfig configures the cluster gateway.
type GatewayConfig struct {
	// Token is forwarded as X-Cluster-Token on intra-cluster calls
	// (admit broadcasts, node identity probes).
	Token string
	// PollInterval is the health poll cadence; default 1s.
	PollInterval time.Duration
	// Logger receives access and routing logs; default slog.Default().
	Logger *slog.Logger
	// Client overrides the proxy HTTP client (no timeout: streaming
	// responses stay open for the life of the client connection).
	Client *http.Client
}

// Gateway reverse-proxies the full /api/v1 surface onto a worker
// fleet: project-scoped paths go to the owning shard, collection paths
// fan out and merge, and everything streams through without buffering.
type Gateway struct {
	m      *Map
	health *Health
	hc     *http.Client
	token  string
	log    *slog.Logger
	start  time.Time

	rrMu sync.Mutex
	rr   int

	obs *api.Observer
}

// NewGateway builds a gateway over a validated shard map.
func NewGateway(m *Map, cfg GatewayConfig) *Gateway {
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Gateway{
		m: m,
		health: NewHealth(m, HealthConfig{
			Interval: cfg.PollInterval,
			Token:    cfg.Token,
			Client:   &http.Client{Timeout: 3 * time.Second},
		}),
		hc:    hc,
		token: cfg.Token,
		log:   logger,
		start: time.Now(),
		obs:   api.NewObserver(logger, "gateway"),
	}
}

// Start begins health polling (one synchronous round first, so the
// gateway routes correctly from its first request).
func (g *Gateway) Start() { g.health.Start() }

// Stop halts health polling.
func (g *Gateway) Stop() { g.health.Stop() }

// Health exposes the tracker (status endpoint, tests).
func (g *Gateway) Health() *Health { return g.health }

// ServeHTTP implements the routing table in the request's frame, the
// same one a worker opens: every response carries X-Request-Id (minted
// here if absent, preserved end-to-end otherwise), and the frame's End
// records the route and writes the one access line.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f, r := g.obs.Begin(w, r)
	defer g.obs.End(f, r)
	g.dispatch(f, r)
}

// dispatch labels the frame with the request's metrics route and serves
// it.
func (g *Gateway) dispatch(f *api.Frame, r *http.Request) {
	rest := stripAPIPrefix(r.URL.Path) // "" matches no case
	switch {
	case rest == "/healthz":
		f.SetRoute("GET /healthz")
		api.WriteJSON(f, http.StatusOK, v1.HealthResponse{
			Success: true, Status: "ok", UptimeSeconds: time.Since(g.start).Seconds(),
		})
	case rest == "/readyz":
		f.SetRoute("GET /readyz")
		g.handleReadyz(f, r)
	case rest == "/metrics" && r.Method == http.MethodGet:
		f.SetRoute("GET /metrics")
		g.handleMetrics(f, r)
	case rest == "/cluster/status" && r.Method == http.MethodGet:
		f.SetRoute("GET /cluster/status")
		g.handleStatus(f, r)
	case rest == "/users" && r.Method == http.MethodPost:
		f.SetRoute("POST /users")
		g.handleCreateUser(f, r)
	case rest == "/devices" || rest == "/blocks":
		f.SetRoute(r.Method + " " + rest)
		g.proxyAny(f, r)
	case rest == "/projects/public" && r.Method == http.MethodGet:
		f.SetRoute("GET /projects/public")
		g.handleProjectList(f, r, rest)
	case rest == "/projects" && r.Method == http.MethodGet:
		f.SetRoute("GET /projects")
		g.handleProjectList(f, r, rest)
	case rest == "/projects" && r.Method == http.MethodPost:
		f.SetRoute("POST /projects")
		g.handleCreateProject(f, r)
	case strings.HasPrefix(rest, "/projects/"):
		f.SetRoute(r.Method + " /projects/{id}")
		g.handleProjectPath(f, r, rest)
	case strings.HasPrefix(rest, "/jobs/"):
		f.SetRoute(r.Method + " /jobs/{job}")
		g.handleJobPath(f, r, rest)
	default:
		f.SetRoute("unmatched")
		api.WriteError(f, r, http.StatusNotFound, v1.CodeNotFound, "unknown path")
	}
}

// handleReadyz reports gateway readiness: ready when every shard has at
// least one live node to answer reads. Probes detail each shard.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	probes := make(map[string]string, g.m.Shards)
	ready := true
	for s := 0; s < g.m.Shards; s++ {
		key := fmt.Sprintf("shard-%d", s)
		switch {
		case g.health.ReadyPrimary(s) != nil:
			probes[key] = "ok"
		case g.health.ServeRead(s) != nil:
			probes[key] = "degraded: primary down, reads via " + g.health.ServeRead(s).Name
		default:
			probes[key] = "down: no live node"
			ready = false
		}
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, v1.ReadyResponse{Success: true, Ready: ready, Probes: probes})
}

// handleMetrics renders the gateway's own counters, in the worker's
// MetricsResponse shape and through its responder.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := v1.MetricsResponse{
		Success:       true,
		UptimeSeconds: time.Since(g.start).Seconds(),
		Panics:        g.obs.Panics(),
	}
	out.Routes, out.Requests = g.obs.Routes.Snapshot()
	out.Runtime = api.RuntimeSnapshot()
	api.WriteMetrics(w, r, out)
}

// handleStatus reports the shard map with per-node health and follower
// replication lag (max per-project version deficit vs the primary).
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	out := v1.ClusterStatusResponse{Success: true}
	for s := 0; s < g.m.Shards; s++ {
		shard := v1.ClusterShardStatus{Shard: s}
		var primaryProjects map[int]uint64
		if p := g.m.Primary(s); p != nil {
			st := g.health.State(p.Name)
			primaryProjects = st.Projects
			shard.Primary = nodeStatus(p, st, 0)
		} else {
			shard.Primary = v1.ClusterNodeStatus{Error: "no primary in shard map"}
		}
		for _, f := range g.m.Followers(s) {
			st := g.health.State(f.Name)
			var lag uint64
			for id, pv := range primaryProjects {
				fv := st.Projects[id]
				if pv > fv && pv-fv > lag {
					lag = pv - fv
				}
			}
			shard.Followers = append(shard.Followers, nodeStatus(f, st, lag))
		}
		out.Shards = append(out.Shards, shard)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

func nodeStatus(n *Node, st NodeState, lag uint64) v1.ClusterNodeStatus {
	return v1.ClusterNodeStatus{
		Name: n.Name, URL: n.URL, Role: n.Role,
		Ready: st.Ready, Draining: st.Draining, Probes: st.Probes,
		LagOps: lag, Error: st.Err,
	}
}

// handleCreateUser creates the account on one live primary, then
// broadcasts the minted credentials to every other live primary so the
// same API key authenticates on any shard.
func (g *Gateway) handleCreateUser(w http.ResponseWriter, r *http.Request) {
	primaries := g.health.ReadyPrimaries()
	if len(primaries) == 0 {
		g.shed(w, r, "no live primary to create users on")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		api.WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "reading body: "+err.Error())
		return
	}
	target := primaries[g.nextRR(len(primaries))]
	resp, respBody, err := g.subRequest(r, target, http.MethodPost, v1.Prefix+"/users", body)
	if err != nil {
		api.WriteError(w, r, http.StatusBadGateway, v1.CodeUnavailable, err.Error())
		return
	}
	if resp.StatusCode < 300 {
		var created v1.CreateUserResponse
		if err := json.Unmarshal(respBody, &created); err == nil {
			g.broadcastAdmit(r, primaries, target, created)
		}
	}
	servedBy(w, target)
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

// broadcastAdmit replays minted credentials onto the other primaries.
// Failures are logged, not fatal: the unreachable worker admits the
// user on its next restart-free path (operator re-runs bootstrap) and
// meanwhile every other shard works.
func (g *Gateway) broadcastAdmit(r *http.Request, primaries []*Node, origin *Node, u v1.CreateUserResponse) {
	admit, _ := json.Marshal(v1.AdmitUserRequest{ID: u.ID, Name: u.Name, APIKey: u.APIKey})
	for _, n := range primaries {
		if n.Name == origin.Name {
			continue
		}
		resp, _, err := g.subRequest(r, n, http.MethodPost, v1.Prefix+"/cluster/users", admit)
		if err != nil {
			g.log.Warn("admit broadcast failed", "node", n.Name, "err", err)
			continue
		}
		if resp.StatusCode >= 300 {
			g.log.Warn("admit broadcast rejected", "node", n.Name, "status", resp.StatusCode)
		}
	}
}

// handleCreateProject places a new project on a live primary, rotating
// round-robin. ID striding on the workers guarantees the minted ID
// hash-routes back to its creator.
func (g *Gateway) handleCreateProject(w http.ResponseWriter, r *http.Request) {
	primaries := g.health.ReadyPrimaries()
	if len(primaries) == 0 {
		g.shed(w, r, "no live primary to place projects on")
		return
	}
	g.proxy(w, r, primaries[g.nextRR(len(primaries))])
}

// handleProjectList fans a list request out to every shard's serving
// node, paging through each shard's list, merges by project ID and
// paginates the merged list by the worker's rule.
func (g *Gateway) handleProjectList(w http.ResponseWriter, r *http.Request, rest string) {
	limit, offset, err := api.PageParams(r)
	if err != nil {
		api.WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	var merged []v1.ProjectSummary
	seen := map[int]bool{}
	served := 0
	for s := 0; s < g.m.Shards; s++ {
		n := g.health.ServeRead(s)
		if n == nil {
			continue
		}
		for from, total := 0, 1; from < total; {
			path := fmt.Sprintf("%s%s?limit=%d&offset=%d", v1.Prefix, rest, api.MaxPageSize, from)
			resp, body, err := g.subRequest(r, n, http.MethodGet, path, nil)
			if err != nil {
				g.log.Warn("list fan-out failed", "node", n.Name, "err", err)
				break
			}
			if resp.StatusCode != http.StatusOK {
				// An auth failure is identical on every shard: surface it.
				servedBy(w, n)
				copyHeaders(w.Header(), resp.Header)
				w.WriteHeader(resp.StatusCode)
				w.Write(body)
				return
			}
			var page v1.ProjectsResponse
			if err := json.Unmarshal(body, &page); err != nil {
				g.log.Warn("list fan-out bad body", "node", n.Name, "err", err)
				break
			}
			if from == 0 {
				served++
			}
			for _, p := range page.Projects {
				if !seen[p.ID] {
					seen[p.ID] = true
					merged = append(merged, p)
				}
			}
			if len(page.Projects) == 0 {
				break
			}
			from, total = from+len(page.Projects), page.Page.Total
		}
	}
	if served == 0 {
		g.shed(w, r, "no shard reachable for listing")
		return
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	window, page := api.Paginate(merged, limit, offset)
	api.WriteJSON(w, http.StatusOK, v1.ProjectsResponse{Success: true, Projects: window, Page: page})
}

// handleProjectPath routes /projects/{id}/... to the owning shard:
// writes require the live primary (503 no_shard otherwise), reads fail
// over to a live follower.
func (g *Gateway) handleProjectPath(w http.ResponseWriter, r *http.Request, rest string) {
	idPart := strings.TrimPrefix(rest, "/projects/")
	if i := strings.IndexByte(idPart, '/'); i >= 0 {
		idPart = idPart[:i]
	}
	id, err := strconv.Atoi(idPart)
	if err != nil {
		api.WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "bad project id "+idPart)
		return
	}
	shard := g.m.ShardFor(id)
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		if n := g.health.ServeRead(shard); n != nil {
			g.proxy(w, r, n)
			return
		}
		g.shed(w, r, fmt.Sprintf("shard %d has no live node", shard))
		return
	}
	if n := g.health.ReadyPrimary(shard); n != nil {
		g.proxy(w, r, n)
		return
	}
	g.shed(w, r, fmt.Sprintf("shard %d has no live primary; writes shed", shard))
}

// handleJobPath finds the worker owning a job by probing each live
// primary (job IDs are minted per worker), then proxies to it.
func (g *Gateway) handleJobPath(w http.ResponseWriter, r *http.Request, rest string) {
	jobID := strings.TrimPrefix(rest, "/jobs/")
	if i := strings.IndexByte(jobID, '/'); i >= 0 {
		jobID = jobID[:i]
	}
	primaries := g.health.ReadyPrimaries()
	if len(primaries) == 0 {
		g.shed(w, r, "no live primary to locate jobs on")
		return
	}
	for _, n := range primaries {
		resp, _, err := g.subRequest(r, n, http.MethodGet, v1.Prefix+"/jobs/"+jobID, nil)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusNotFound {
			g.proxy(w, r, n)
			return
		}
	}
	api.WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, "job not found on any shard")
}

// proxyAny forwards to any live node (static catalogs: devices,
// blocks), preferring primaries.
func (g *Gateway) proxyAny(w http.ResponseWriter, r *http.Request) {
	if ps := g.health.ReadyPrimaries(); len(ps) > 0 {
		g.proxy(w, r, ps[g.nextRR(len(ps))])
		return
	}
	for s := 0; s < g.m.Shards; s++ {
		if n := g.health.ServeRead(s); n != nil {
			g.proxy(w, r, n)
			return
		}
	}
	g.shed(w, r, "no live node")
}

// proxy streams one request to a node and its response back: the
// header is flushed as soon as the node's arrives and every body chunk
// after it, so NDJSON event streams pass through unbuffered. The
// request is carried full duplex, so a duplex stream keeps sending its
// body after the response has started (net/http otherwise discards the
// rest of the body on the first write).
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, n *Node) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, n.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		api.WriteError(w, r, http.StatusBadGateway, v1.CodeUnavailable, err.Error())
		return
	}
	req.ContentLength = r.ContentLength
	req.Header.Set(api.RequestIDHeader, api.RequestID(r.Context()))
	copyHeaders(req.Header, r.Header)
	appendForwardedFor(req.Header, r.RemoteAddr)
	// An error means the connection is already full duplex (HTTP/2) or
	// cannot be (a test recorder); either way the proxy goes on.
	_ = http.NewResponseController(w).EnableFullDuplex()

	resp, err := g.hc.Do(req)
	if err != nil {
		api.WriteError(w, r, http.StatusBadGateway, v1.CodeUnavailable,
			fmt.Sprintf("upstream %s: %v", n.Name, err))
		return
	}
	defer resp.Body.Close()

	servedBy(w, n)
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)

	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	buf := make([]byte, 32<<10)
	for {
		nr, rerr := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// subRequest issues a bounded intra-cluster request on behalf of the
// client, forwarding its credentials and correlation ID.
func (g *Gateway) subRequest(r *http.Request, n *Node, method, path string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, n.URL+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if v := r.Header.Get("X-Api-Key"); v != "" {
		req.Header.Set("X-Api-Key", v)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(api.RequestIDHeader, api.RequestID(r.Context()))
	if g.token != "" {
		req.Header.Set(api.ClusterTokenHeader, g.token)
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, nil, err
	}
	return resp, respBody, nil
}

// shed answers 503 with the stable no_shard code and a Retry-After
// hint, the contract for "this shard currently has no node that can
// take this request".
func (g *Gateway) shed(w http.ResponseWriter, r *http.Request, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	api.WriteError(w, r, http.StatusServiceUnavailable, v1.CodeNoShard, msg)
}

// servedBy names the node that answered, on the response
// (X-Cluster-Node) and on the request's access line.
func servedBy(w http.ResponseWriter, n *Node) {
	w.Header().Set(NodeHeader, n.Name)
	if f, ok := w.(*api.Frame); ok {
		f.SetNode(n.Name, n.Shard)
	}
}

func (g *Gateway) nextRR(n int) int {
	g.rrMu.Lock()
	defer g.rrMu.Unlock()
	g.rr++
	return g.rr % n
}

// --- plumbing ---

// stripAPIPrefix maps /api/v1/x to /x, and a path outside /api/v1 to
// "".
func stripAPIPrefix(path string) string {
	if rest, ok := strings.CutPrefix(path, v1.Prefix); ok && (rest == "" || rest[0] == '/') {
		return rest
	}
	return ""
}

// hopHeaders are the RFC 7230 hop-by-hop headers never forwarded.
var hopHeaders = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
}

// copyHeaders forwards non-hop-by-hop headers, leaving keys the
// destination already carries (X-Request-Id minted at the gateway,
// X-Cluster-Node) untouched to avoid duplicates.
func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		ck := http.CanonicalHeaderKey(k)
		if hopHeaders[ck] || dst.Get(ck) != "" {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

func appendForwardedFor(h http.Header, remoteAddr string) {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		host = remoteAddr
	}
	if prior := h.Get("X-Forwarded-For"); prior != "" {
		host = prior + ", " + host
	}
	h.Set("X-Forwarded-For", host)
}

// Package client is the first-class Go client for the edgepulse REST
// API — the programmatic surface the paper's Sec. 4.9 describes for
// automating data collection, training and deployment. It speaks the
// versioned /api/v1 contract using the typed DTOs of internal/api/v1,
// decodes the structured error envelope into *APIError, retries
// transient failures (429/502/503, honoring Retry-After), and replaces
// busy-polling with the server's long-poll job wait endpoint.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/resilience"
)

// APIError is the decoded error envelope of a non-2xx response.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable code (v1.Code*).
	Code string
	// Message is the human-readable description.
	Message string
	// RequestID correlates the failure with server logs.
	RequestID string
	// RetryAfter is the server-suggested wait from the Retry-After
	// header (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("api error %d (%s): %s [request %s]", e.Status, e.Code, e.Message, e.RequestID)
	}
	return fmt.Sprintf("api error %d (%s): %s", e.Status, e.Code, e.Message)
}

// Option customizes a Client.
type Option func(*Client)

// WithAPIKey sets the x-api-key header on every request.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries sets how many times transient failures (429, 502, 503 and
// transport errors on GET) are retried. Default 2; 0 disables.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// Client talks to one edgepulse studio server (or gateway).
type Client struct {
	baseURL string
	apiKey  string
	hc      *http.Client
	retries int
}

// New builds a client for a server base URL like "http://localhost:4800".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL: baseURL,
		hc:      http.DefaultClient,
		retries: 2,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// WithAPIKey returns a copy of the client authenticated as key — handy
// after bootstrapping a user with an unauthenticated client.
func (c *Client) WithAPIKey(key string) *Client {
	cp := *c
	cp.apiKey = key
	return &cp
}

// Page selects a pagination window on list calls. The zero value uses
// server defaults.
type Page struct {
	Limit  int
	Offset int
}

func (p Page) query() url.Values {
	q := url.Values{}
	if p.Limit > 0 {
		q.Set("limit", strconv.Itoa(p.Limit))
	}
	if p.Offset > 0 {
		q.Set("offset", strconv.Itoa(p.Offset))
	}
	return q
}

// do issues one API request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, body []byte, contentType string, out any) error {
	raw, err := c.doBytes(ctx, method, path, q, body, contentType)
	if err != nil {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("client: bad response body: %w", err)
		}
	}
	return nil
}

// doBytes issues one API request with the retry/backoff machinery and
// returns the raw success body; non-2xx responses come back as
// *APIError. body bytes are replayed on retry.
func (c *Client) doBytes(ctx context.Context, method, path string, q url.Values, body []byte, contentType string) ([]byte, error) {
	rel := v1.Prefix + path
	if len(q) > 0 {
		rel += "?" + q.Encode()
	}
	u := c.baseURL + rel
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return nil, err
		}
		if c.apiKey != "" {
			req.Header.Set("x-api-key", c.apiKey)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		raw, apiErr, err := c.roundTrip(req)
		if err == nil && apiErr == nil {
			return raw, nil
		}
		if err != nil {
			lastErr = err
			// Transport errors: retry only idempotent requests.
			if method != http.MethodGet || attempt >= c.retries {
				return nil, lastErr
			}
		} else {
			lastErr = apiErr
			if !retryable(method, apiErr.Status) || attempt >= c.retries {
				return nil, lastErr
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(RetryDelay(attempt, apiErr)):
		}
	}
}

// roundTrip performs one HTTP exchange. A non-2xx status yields an
// *APIError; transport problems yield err.
func (c *Client) roundTrip(req *http.Request) ([]byte, *APIError, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode >= 400 {
		return raw, parseAPIError(resp.StatusCode, resp.Header, raw), nil
	}
	return raw, nil, nil
}

// parseAPIError decodes a non-2xx response into *APIError: the
// structured envelope when present, otherwise a status-derived code
// (e.g. a proxy error page) so callers can still branch on it. The
// Retry-After header is captured either way.
func parseAPIError(status int, header http.Header, body []byte) *APIError {
	apiErr := &APIError{Status: status, Code: codeForStatus(status), Message: string(body)}
	if secs, err := strconv.Atoi(header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	var envelope v1.ErrorResponse
	if json.Unmarshal(body, &envelope) == nil && envelope.Error.Code != "" {
		apiErr.Code = envelope.Error.Code
		apiErr.Message = envelope.Error.Message
		apiErr.RequestID = envelope.Error.RequestID
	}
	return apiErr
}

// codeForStatus maps an HTTP status to the closest stable error code,
// used when a non-2xx response carries no parseable envelope.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return v1.CodeBadRequest
	case http.StatusUnauthorized:
		return v1.CodeUnauthorized
	case http.StatusForbidden:
		return v1.CodeForbidden
	case http.StatusNotFound:
		return v1.CodeNotFound
	case http.StatusMethodNotAllowed:
		return v1.CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return v1.CodePayloadTooLarge
	case http.StatusTooManyRequests:
		return v1.CodeRateLimited
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return v1.CodeUnavailable
	default:
		return v1.CodeInternal
	}
}

// retryable reports whether a failed request may be replayed. A 429
// means the server refused before doing any work, so any method is
// safe; 502/503 can arrive after the origin already acted (e.g. via a
// proxy), so only idempotent GETs are replayed.
func retryable(method string, status int) bool {
	if status == http.StatusTooManyRequests {
		return true
	}
	if method != http.MethodGet {
		return false
	}
	return status == http.StatusBadGateway || status == http.StatusServiceUnavailable
}

// RetryDelay returns how long to wait before retry number attempt
// (0-based). A server-suggested Retry-After wins (capped at 5s so a
// misconfigured header can't stall the client); otherwise the one
// jittered exponential schedule (resilience.BackoffDelay) applies. It is
// shared by every retry loop that talks to the studio API: request
// retries here, the NDJSON feed resume loop, and the daemon's spool
// re-upload.
func RetryDelay(attempt int, apiErr *APIError) time.Duration {
	if apiErr != nil && apiErr.RetryAfter > 0 {
		if apiErr.RetryAfter > 5*time.Second {
			return 5 * time.Second
		}
		return apiErr.RetryAfter
	}
	return resilience.BackoffDelay(attempt)
}

func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	return c.do(ctx, http.MethodGet, path, q, nil, "", out)
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.postBody(ctx, path, body, out)
}

// postBody posts an encoded JSON body. The transport may still be
// reading body after a failed attempt returns, and a retry replays it,
// so body must be the call's own slice, never a recycled buffer.
func (c *Client) postBody(ctx context.Context, path string, body []byte, out any) error {
	return c.do(ctx, http.MethodPost, path, nil, body, "application/json", out)
}

// --- Users & discovery ---

// CreateUser bootstraps an account and returns its API key.
func (c *Client) CreateUser(ctx context.Context, name string) (*v1.CreateUserResponse, error) {
	var out v1.CreateUserResponse
	if err := c.postJSON(ctx, "/users", v1.CreateUserRequest{Name: name}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Devices lists the supported deployment targets.
func (c *Client) Devices(ctx context.Context) (*v1.DevicesResponse, error) {
	var out v1.DevicesResponse
	if err := c.get(ctx, "/devices", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Blocks fetches the impulse design catalog: every registered DSP and
// learn block type with its parameter schema.
func (c *Client) Blocks(ctx context.Context) (*v1.BlocksResponse, error) {
	var out v1.BlocksResponse
	if err := c.get(ctx, "/blocks", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics returns the server's operational counters.
func (c *Client) Metrics(ctx context.Context) (*v1.MetricsResponse, error) {
	var out v1.MetricsResponse
	if err := c.get(ctx, "/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready queries the readiness probe at GET /readyz. Unlike the other
// calls it decodes the body for both the ready (200) and degraded
// (503) cases — the probe returns its envelope either way — so a load
// harness can poll a booting or draining target without treating a
// not-yet-ready answer as a hard failure.
func (c *Client) Ready(ctx context.Context) (*v1.ReadyResponse, error) {
	var out v1.ReadyResponse
	err := c.get(ctx, "/readyz", nil, &out)
	if err == nil {
		return &out, nil
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
		if json.Unmarshal([]byte(apiErr.Message), &out) == nil {
			return &out, nil
		}
	}
	return nil, err
}

// ClusterStatus queries a gateway for the shard map with per-node
// health and replication lag. GET /api/v1/cluster/status.
func (c *Client) ClusterStatus(ctx context.Context) (*v1.ClusterStatusResponse, error) {
	var out v1.ClusterStatusResponse
	if err := c.get(ctx, "/cluster/status", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// --- Projects ---

// CreateProject creates a project owned by the authenticated user.
func (c *Client) CreateProject(ctx context.Context, name string) (*v1.CreateProjectResponse, error) {
	var out v1.CreateProjectResponse
	if err := c.postJSON(ctx, "/projects", v1.CreateProjectRequest{Name: name}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Projects lists projects the authenticated user can access.
func (c *Client) Projects(ctx context.Context, page Page) (*v1.ProjectsResponse, error) {
	var out v1.ProjectsResponse
	if err := c.get(ctx, "/projects", page.query(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PublicProjects lists published projects; no authentication required.
func (c *Client) PublicProjects(ctx context.Context, page Page) (*v1.ProjectsResponse, error) {
	var out v1.ProjectsResponse
	if err := c.get(ctx, "/projects/public", page.query(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Project fetches one project.
func (c *Client) Project(ctx context.Context, id int) (*v1.ProjectResponse, error) {
	var out v1.ProjectResponse
	if err := c.get(ctx, fmt.Sprintf("/projects/%d", id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SetPublic toggles a project's public visibility.
func (c *Client) SetPublic(ctx context.Context, id int, public bool) (*v1.SetPublicResponse, error) {
	var out v1.SetPublicResponse
	if err := c.postJSON(ctx, fmt.Sprintf("/projects/%d/public", id), v1.SetPublicRequest{Public: public}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AddCollaborator grants a user access to the project.
func (c *Client) AddCollaborator(ctx context.Context, id int, userID string) error {
	return c.postJSON(ctx, fmt.Sprintf("/projects/%d/collaborators", id), v1.AddCollaboratorRequest{UserID: userID}, nil)
}

// --- Data ---

// UploadParams describes one sample upload.
type UploadParams struct {
	// Label is required.
	Label string
	// Name defaults to "upload" server-side.
	Name string
	// Format is one of "wav", "csv", "image", "acquisition" (default).
	Format string
}

// UploadSample ingests one raw sample body (signed acquisition JSON,
// WAV, CSV or image bytes depending on Format).
func (c *Client) UploadSample(ctx context.Context, projectID int, p UploadParams, body []byte) (*v1.UploadResponse, error) {
	q := url.Values{}
	q.Set("label", p.Label)
	if p.Name != "" {
		q.Set("name", p.Name)
	}
	if p.Format != "" {
		q.Set("format", p.Format)
	}
	contentType := "application/octet-stream"
	if p.Format == "" || p.Format == "acquisition" {
		contentType = "application/json"
	}
	var out v1.UploadResponse
	if err := c.do(ctx, http.MethodPost, fmt.Sprintf("/projects/%d/data", projectID), q, body, contentType, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Samples lists the project's dataset. category filters by
// "training"/"testing" ("" = all).
func (c *Client) Samples(ctx context.Context, projectID int, category string, page Page) (*v1.ListDataResponse, error) {
	q := page.query()
	if category != "" {
		q.Set("category", category)
	}
	var out v1.ListDataResponse
	if err := c.get(ctx, fmt.Sprintf("/projects/%d/data", projectID), q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteSample removes one sample.
func (c *Client) DeleteSample(ctx context.Context, projectID int, sampleID string) error {
	return c.do(ctx, http.MethodDelete, fmt.Sprintf("/projects/%d/data/%s", projectID, url.PathEscape(sampleID)), nil, nil, "", nil)
}

// Rebalance re-splits the dataset into train/test.
func (c *Client) Rebalance(ctx context.Context, projectID int, testFraction float64) (*v1.RebalanceResponse, error) {
	var out v1.RebalanceResponse
	if err := c.postJSON(ctx, fmt.Sprintf("/projects/%d/rebalance", projectID), v1.RebalanceRequest{TestFraction: testFraction}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// --- Impulse ---

// SetImpulse uploads an impulse design. cfg is any value marshaling to
// the core impulse config JSON (e.g. core.Config or json.RawMessage).
func (c *Client) SetImpulse(ctx context.Context, projectID int, cfg any) (*v1.SetImpulseResponse, error) {
	var out v1.SetImpulseResponse
	if err := c.postJSON(ctx, fmt.Sprintf("/projects/%d/impulse", projectID), cfg, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Impulse fetches the current impulse design and training state.
func (c *Client) Impulse(ctx context.Context, projectID int) (*v1.GetImpulseResponse, error) {
	var out v1.GetImpulseResponse
	if err := c.get(ctx, fmt.Sprintf("/projects/%d/impulse", projectID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// --- Jobs ---

// Train submits an async training job.
func (c *Client) Train(ctx context.Context, projectID int, req v1.TrainRequest) (*v1.JobAccepted, error) {
	var out v1.JobAccepted
	if err := c.postJSON(ctx, fmt.Sprintf("/projects/%d/train", projectID), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Tuner submits an async EON-Tuner search job.
func (c *Client) Tuner(ctx context.Context, projectID int, req v1.TunerRequest) (*v1.JobAccepted, error) {
	var out v1.JobAccepted
	if err := c.postJSON(ctx, fmt.Sprintf("/projects/%d/tuner", projectID), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches a job's status and logs.
func (c *Client) Job(ctx context.Context, jobID string) (*v1.JobResponse, error) {
	var out v1.JobResponse
	if err := c.get(ctx, "/jobs/"+url.PathEscape(jobID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobResult fetches a finished job's structured output.
func (c *Client) JobResult(ctx context.Context, jobID string) (*v1.JobResultResponse, error) {
	var out v1.JobResultResponse
	if err := c.get(ctx, "/jobs/"+url.PathEscape(jobID)+"/result", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob blocks until the job reaches a terminal state, long-polling
// the server's wait endpoint instead of busy-looping on status. It
// returns the terminal job view; cancel ctx to stop waiting.
func (c *Client) WaitJob(ctx context.Context, jobID string) (*v1.JobWaitResponse, error) {
	q := url.Values{}
	q.Set("timeout_ms", "30000")
	for {
		var out v1.JobWaitResponse
		if err := c.get(ctx, "/jobs/"+url.PathEscape(jobID)+"/wait", q, &out); err != nil {
			return nil, err
		}
		if out.Done {
			return &out, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// --- Inference, profiling, deployment ---

// Classify runs inference on one raw feature window.
func (c *Client) Classify(ctx context.Context, projectID int, features []float32, quantized bool) (*v1.ClassifyResponse, error) {
	var out v1.ClassifyResponse
	body, err := v1.ClassifyRequest{Features: features, Quantized: quantized}.MarshalJSON()
	if err != nil {
		return nil, err
	}
	if err := c.postBody(ctx, fmt.Sprintf("/projects/%d/classify", projectID), body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClassifyBatch runs inference on several raw feature windows in one
// request (at most v1.MaxClassifyBatch), amortizing transport and
// server-side warm-up. Results are ordered like the windows.
func (c *Client) ClassifyBatch(ctx context.Context, projectID int, windows [][]float32, quantized bool) (*v1.ClassifyBatchResponse, error) {
	var out v1.ClassifyBatchResponse
	body, err := v1.ClassifyBatchRequest{Windows: windows, Quantized: quantized}.MarshalJSON()
	if err != nil {
		return nil, err
	}
	if err := c.postBody(ctx, fmt.Sprintf("/projects/%d/classify/batch", projectID), body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Profile estimates latency and memory on a target device ("" = server
// default target).
func (c *Client) Profile(ctx context.Context, projectID int, target string) (*v1.ProfileResponse, error) {
	q := url.Values{}
	if target != "" {
		q.Set("target", target)
	}
	var out v1.ProfileResponse
	if err := c.get(ctx, fmt.Sprintf("/projects/%d/profile", projectID), q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Deployment builds a source-library deployment ("cpp", "arduino",
// "wasm"). Use DeploymentEIM for the binary model format.
func (c *Client) Deployment(ctx context.Context, projectID int, kind string, quantized bool) (*v1.DeploymentResponse, error) {
	q := url.Values{}
	if kind != "" {
		q.Set("type", kind)
	}
	if quantized {
		q.Set("quantized", "true")
	}
	var out v1.DeploymentResponse
	if err := c.get(ctx, fmt.Sprintf("/projects/%d/deployment", projectID), q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeploymentEIM downloads the binary EIM model artifact.
func (c *Client) DeploymentEIM(ctx context.Context, projectID int) ([]byte, error) {
	q := url.Values{}
	q.Set("type", "eim")
	return c.doBytes(ctx, http.MethodGet, fmt.Sprintf("/projects/%d/deployment", projectID), q, nil, "")
}

// --- Versioning ---

// Snapshot captures a project version.
func (c *Client) Snapshot(ctx context.Context, projectID int, note string) (*v1.SnapshotResponse, error) {
	var out v1.SnapshotResponse
	if err := c.postJSON(ctx, fmt.Sprintf("/projects/%d/versions", projectID), v1.SnapshotRequest{Note: note}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Versions lists a project's snapshots.
func (c *Client) Versions(ctx context.Context, projectID int, page Page) (*v1.VersionsResponse, error) {
	var out v1.VersionsResponse
	if err := c.get(ctx, fmt.Sprintf("/projects/%d/versions", projectID), page.query(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

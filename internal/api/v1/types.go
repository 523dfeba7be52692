// Package v1 declares the typed request/response contract of the
// versioned REST API (paper Sec. 4.9: "all functionality is exposed via
// publicly accessible REST APIs"). Every DTO is declared exactly once
// here and shared by the server (internal/api) and the Go client
// (internal/client), so the two cannot drift apart. The package is
// stdlib-only and carries no server dependencies: third parties can
// import it to talk to a studio instance.
package v1

import (
	"encoding/json"
	"fmt"
)

// Prefix is the path prefix of the versioned API surface.
const Prefix = "/api/v1"

// Stable machine-readable error codes carried in the error envelope.
// Clients should branch on these, never on message text.
const (
	CodeBadRequest       = "bad_request"
	CodeUnauthorized     = "unauthorized"
	CodeForbidden        = "forbidden"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeConflict         = "conflict"
	CodePayloadTooLarge  = "payload_too_large"
	CodeRateLimited      = "rate_limited"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal_error"
	// CodeBackpressure means a streaming session's inbound queue is
	// full; the client should slow down and retry the batch.
	CodeBackpressure = "backpressure"
	// CodeOverloaded means the admission gate shed the request under
	// load (429); retry after the Retry-After delay. Interactive-class
	// endpoints never return it.
	CodeOverloaded = "overloaded"
	// CodeDeadline means the request exceeded its route's processing
	// deadline before the handler produced a response (504).
	CodeDeadline = "deadline"
	// CodeNoShard means the gateway has no live node for the project's
	// shard (503); retry after the Retry-After delay.
	CodeNoShard = "no_shard"
)

// ErrorDetail is the machine-readable failure description.
type ErrorDetail struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable and unstable; do not parse it.
	Message string `json:"message"`
	// RequestID correlates the failure with server logs.
	RequestID string `json:"request_id,omitempty"`
}

// ErrorResponse is the envelope returned for every non-2xx status:
// {"success":false,"error":{"code":...,"message":...}}.
type ErrorResponse struct {
	Success bool        `json:"success"`
	Error   ErrorDetail `json:"error"`
}

// OK is the minimal success envelope.
type OK struct {
	Success bool `json:"success"`
}

// Page echoes the pagination window applied to a list response.
type Page struct {
	// Limit is the applied page size.
	Limit int `json:"limit"`
	// Offset is the index of the first returned element.
	Offset int `json:"offset"`
	// Total counts all elements before pagination.
	Total int `json:"total"`
}

// --- Users & devices ---

// CreateUserRequest bootstraps an account. POST /api/v1/users.
type CreateUserRequest struct {
	Name string `json:"name"`
}

// CreateUserResponse returns the account and its API key.
type CreateUserResponse struct {
	Success bool   `json:"success"`
	ID      string `json:"id"`
	Name    string `json:"name"`
	APIKey  string `json:"api_key"`
}

// Device describes one supported deployment target.
type Device struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	CPU     string `json:"cpu"`
	ClockHz int64  `json:"clock_hz"`
	FlashKB int64  `json:"flash_kb"`
	RAMKB   int64  `json:"ram_kb"`
}

// DevicesResponse lists deployment targets. GET /api/v1/devices.
type DevicesResponse struct {
	Success bool     `json:"success"`
	Devices []Device `json:"devices"`
}

// --- Projects ---

// ProjectSummary is the project listing row.
type ProjectSummary struct {
	ID            int      `json:"id"`
	Name          string   `json:"name"`
	Owner         string   `json:"owner"`
	Public        bool     `json:"public"`
	Samples       int      `json:"samples"`
	Collaborators []string `json:"collaborators"`
	// ImpulseError is why the project's stored impulse did not load
	// (the project then has none); empty when it loaded.
	ImpulseError string `json:"impulse_error,omitempty"`
}

// CreateProjectRequest creates a project. POST /api/v1/projects.
type CreateProjectRequest struct {
	Name string `json:"name"`
}

// CreateProjectResponse returns the project and its ingestion HMAC key.
type CreateProjectResponse struct {
	Success bool   `json:"success"`
	ID      int    `json:"id"`
	Name    string `json:"name"`
	HMACKey string `json:"hmac_key"`
}

// ProjectsResponse is a paginated project listing.
type ProjectsResponse struct {
	Success  bool             `json:"success"`
	Projects []ProjectSummary `json:"projects"`
	Page
}

// ProjectResponse returns one project. GET /api/v1/projects/{id}.
type ProjectResponse struct {
	Success bool           `json:"success"`
	Project ProjectSummary `json:"project"`
}

// SetPublicRequest toggles public visibility.
type SetPublicRequest struct {
	Public bool `json:"public"`
}

// SetPublicResponse echoes the new visibility.
type SetPublicResponse struct {
	Success bool `json:"success"`
	Public  bool `json:"public"`
}

// AddCollaboratorRequest grants a user access to the project.
type AddCollaboratorRequest struct {
	UserID string `json:"user_id"`
}

// --- Data ---

// Sample is one dataset entry in a listing.
type Sample struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Label    string `json:"label"`
	Category string `json:"category"`
	Frames   int    `json:"frames"`
}

// LabelStat summarizes one class of the dataset.
type LabelStat struct {
	Label    string  `json:"label"`
	Training int     `json:"training"`
	Testing  int     `json:"testing"`
	Seconds  float64 `json:"seconds"`
}

// UploadResponse acknowledges one ingested sample.
type UploadResponse struct {
	Success  bool   `json:"success"`
	SampleID string `json:"sample_id"`
}

// ListDataResponse is a paginated sample listing with dataset stats.
type ListDataResponse struct {
	Success bool        `json:"success"`
	Samples []Sample    `json:"samples"`
	Stats   []LabelStat `json:"stats"`
	// Version is the dataset content hash; it changes on any
	// addition, removal or relabeling.
	Version string `json:"version"`
	Page
}

// RebalanceRequest re-splits the dataset into train/test.
type RebalanceRequest struct {
	TestFraction float64 `json:"test_fraction"`
}

// RebalanceResponse returns the post-split stats.
type RebalanceResponse struct {
	Success bool        `json:"success"`
	Stats   []LabelStat `json:"stats"`
}

// --- Blocks & impulse ---

// BlockParam is one accepted hyperparameter of a block type, with its
// default value.
type BlockParam struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
}

// BlockInfo describes one catalog entry of the design block registry.
type BlockInfo struct {
	// Type is the identifier used in design specs ("mfe",
	// "classification", ...).
	Type string `json:"type"`
	// Description is a one-line summary (learn blocks only for now).
	Description string `json:"description,omitempty"`
	// Trainable reports whether the platform can fit the block (learn
	// blocks only; DSP blocks are stateless extractors).
	Trainable bool `json:"trainable,omitempty"`
	// Params is the block's parameter schema, sorted by name.
	Params []BlockParam `json:"params"`
}

// BlocksResponse is the design catalog at GET /api/v1/blocks: every
// registered DSP and learn block type with its param schema, in sorted
// order so responses are deterministic across processes.
type BlocksResponse struct {
	Success bool        `json:"success"`
	DSP     []BlockInfo `json:"dsp"`
	Learn   []BlockInfo `json:"learn"`
}

// FeatureBlock locates one DSP block's output inside the composite
// feature vector — a row of the impulse's per-block offset table.
type FeatureBlock struct {
	// Name is the DSP block's instance name.
	Name string `json:"name"`
	// Type is the block's registered type.
	Type string `json:"type"`
	// Shape is the block's own output shape.
	Shape []int `json:"shape"`
	// Offset and Size locate the flattened output in the composite
	// feature vector.
	Offset int `json:"offset"`
	Size   int `json:"size"`
}

// SetImpulseResponse acknowledges an impulse design. FeatureShape is
// the composite feature shape; Blocks is the per-block offset table.
type SetImpulseResponse struct {
	Success      bool           `json:"success"`
	FeatureShape []int          `json:"feature_shape"`
	Dataflow     string         `json:"dataflow"`
	Blocks       []FeatureBlock `json:"blocks,omitempty"`
}

// GetImpulseResponse returns the current impulse design and its
// training state. Impulse is the serialized core config, always in the
// v2 block-graph schema (v1 uploads are migrated on ingest).
type GetImpulseResponse struct {
	Success bool            `json:"success"`
	Impulse json.RawMessage `json:"impulse"`
	// Version is the schema version of Impulse (currently always 2).
	Version   int            `json:"version"`
	Trained   bool           `json:"trained"`
	Quantized bool           `json:"quantized"`
	Dataflow  string         `json:"dataflow"`
	Blocks    []FeatureBlock `json:"blocks,omitempty"`
}

// --- Training & tuner ---

// ModelSpec selects a model-zoo architecture: the "visual editor"
// presets of paper Sec. 4.3, addressed by name.
type ModelSpec struct {
	// Type is one of "conv1d", "dscnn", "mlp", "cnn2d", "mobilenetv1".
	Type string `json:"type"`
	// Conv1d parameters.
	Depth        int `json:"depth,omitempty"`
	StartFilters int `json:"start_filters,omitempty"`
	EndFilters   int `json:"end_filters,omitempty"`
	// MLP parameters.
	Hidden int `json:"hidden,omitempty"`
	// MobileNet width multiplier (×100, e.g. 25 for 0.25).
	AlphaPercent int `json:"alpha_percent,omitempty"`
}

// TrainRequest configures a training job. POST /api/v1/projects/{id}/train.
type TrainRequest struct {
	Model        ModelSpec `json:"model"`
	Epochs       int       `json:"epochs"`
	LearningRate float64   `json:"learning_rate"`
	Quantize     bool      `json:"quantize"`
	Seed         int64     `json:"seed"`
}

// TrainResult is the structured output of a training job, fetched via
// GET /api/v1/jobs/{job}/result.
type TrainResult struct {
	Accuracy     float64   `json:"accuracy"`
	Confusion    [][]int   `json:"confusion"`
	F1           []float64 `json:"f1"`
	Classes      []string  `json:"classes"`
	LearningRate float64   `json:"learning_rate"`
	TrainLoss    []float64 `json:"train_loss"`
	Quantized    bool      `json:"quantized"`
	// AnomalyTrained reports that the design's anomaly learn block was
	// fitted alongside the classifier.
	AnomalyTrained bool `json:"anomaly_trained,omitempty"`
}

// TunerRequest configures an EON-Tuner search job.
type TunerRequest struct {
	MaxTrials int    `json:"max_trials"`
	Epochs    int    `json:"epochs"`
	Target    string `json:"target"`
	Strategy  string `json:"strategy"`
	Seed      int64  `json:"seed"`
}

// TunerTrial is one evaluated (DSP, model) combination — a row of the
// paper's Table 3.
type TunerTrial struct {
	DSPDesc        string  `json:"dsp"`
	ModelDesc      string  `json:"model"`
	Accuracy       float64 `json:"accuracy"`
	DSPLatencyMS   float64 `json:"dsp_latency_ms"`
	NNLatencyMS    float64 `json:"nn_latency_ms"`
	TotalLatencyMS float64 `json:"total_latency_ms"`
	DSPRAM         int64   `json:"dsp_ram"`
	NNRAM          int64   `json:"nn_ram"`
	TotalRAM       int64   `json:"total_ram"`
	NNFlash        int64   `json:"nn_flash"`
	Fits           bool    `json:"fits"`
}

// JobAccepted acknowledges an async job submission (HTTP 202).
type JobAccepted struct {
	Success bool   `json:"success"`
	JobID   string `json:"job_id"`
}

// --- Jobs ---

// Job lifecycle states, mirroring internal/jobs. The lifecycle is
// queued → running → {finished | failed | cancelled}; a transient
// failure under the retry budget loops running → queued.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobFinished  = "finished"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Job priority classes, mirroring internal/jobs.
const (
	JobPriorityInteractive = "interactive"
	JobPriorityDefault     = "default"
	JobPriorityBatch       = "batch"
)

// Job is the public view of one scheduled unit of work.
type Job struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Status string `json:"status"`
	// Priority is the scheduling class ("interactive" runs before
	// "default", which runs before "batch").
	Priority string `json:"priority"`
	// Error is set when Status is "failed" or "cancelled" (the reason).
	Error string `json:"error"`
	// Logs is the job's log stream so far.
	Logs []string `json:"logs"`
	// Stage and Progress are the job's structured progress report:
	// the current stage name and its percent complete in [0,100].
	Stage    string  `json:"stage,omitempty"`
	Progress float64 `json:"progress"`
	// Attempt is the retry attempt the job is on (0 = first run).
	Attempt int `json:"attempt,omitempty"`
	// DurationMS is the runtime so far (or final runtime when done).
	DurationMS float64 `json:"duration_ms"`
}

// Terminal reports whether the job has stopped for good.
func (j Job) Terminal() bool {
	return j.Status == JobFinished || j.Status == JobFailed || j.Status == JobCancelled
}

// CancelJobResponse acknowledges DELETE /api/v1/jobs/{job}. Cancelled
// is false when the job was already terminal (the Job view carries the
// state it ended in).
type CancelJobResponse struct {
	Success   bool `json:"success"`
	Cancelled bool `json:"cancelled"`
	Job
}

// Job event types, mirroring internal/jobs events.
const (
	JobEventState    = "state"
	JobEventProgress = "progress"
	JobEventLog      = "log"
)

// JobEvent is one entry of a job's ordered event log, delivered by
// GET /api/v1/jobs/{job}/events. Seq is strictly increasing and
// contiguous per job; resume a stream by passing the last Seq seen via
// the Last-Event-Id header (or the from query parameter).
type JobEvent struct {
	Seq int64 `json:"seq"`
	// Type is one of the JobEvent* constants.
	Type string `json:"type"`
	// TimestampMS is the event time in Unix milliseconds.
	TimestampMS int64 `json:"timestamp_ms"`
	// Status is set for "state" events.
	Status string `json:"status,omitempty"`
	// Stage and Progress are set for "progress" events.
	Stage    string  `json:"stage,omitempty"`
	Progress float64 `json:"progress,omitempty"`
	// Message is set for "log" events and for retry/cancel state
	// events, where it carries the reason.
	Message string `json:"message,omitempty"`
	// Attempt is the retry attempt the event belongs to.
	Attempt int `json:"attempt,omitempty"`
}

// Terminal reports whether the event is a terminal state transition —
// the last event a job ever emits.
func (e JobEvent) Terminal() bool {
	return e.Type == JobEventState &&
		(e.Status == JobFinished || e.Status == JobFailed || e.Status == JobCancelled)
}

// JobEventsResponse is the long-poll (mode=poll) result of
// GET /api/v1/jobs/{job}/events: every retained event after the
// requested seq (empty when the poll timed out first). NextSeq is the
// cursor for the next poll; Done reports that the job is terminal and
// no further events will ever arrive past NextSeq.
type JobEventsResponse struct {
	Success bool       `json:"success"`
	Events  []JobEvent `json:"events"`
	NextSeq int64      `json:"next_seq"`
	Done    bool       `json:"done"`
}

// JobResponse returns one job. GET /api/v1/jobs/{job}.
type JobResponse struct {
	Success bool `json:"success"`
	Job
}

// JobWaitResponse is the long-poll result of GET /api/v1/jobs/{job}/wait:
// Done is false when the poll timed out with the job still running.
type JobWaitResponse struct {
	Success bool `json:"success"`
	Done    bool `json:"done"`
	Job
}

// JobResultResponse carries a finished job's structured output. Result
// is kind-dependent; decode it with TrainResult or TunerTrials.
type JobResultResponse struct {
	Success bool            `json:"success"`
	Kind    string          `json:"kind"`
	Result  json.RawMessage `json:"result"`
}

// TrainResult decodes the result of a "training" job.
func (r *JobResultResponse) TrainResult() (*TrainResult, error) {
	var out TrainResult
	if err := json.Unmarshal(r.Result, &out); err != nil {
		return nil, fmt.Errorf("v1: decoding training result: %w", err)
	}
	return &out, nil
}

// TunerTrials decodes the result of a "tuner" job.
func (r *JobResultResponse) TunerTrials() ([]TunerTrial, error) {
	var out []TunerTrial
	if err := json.Unmarshal(r.Result, &out); err != nil {
		return nil, fmt.Errorf("v1: decoding tuner result: %w", err)
	}
	return out, nil
}

// --- Classification, profiling, deployment ---

// ClassifyRequest runs inference on one feature window. Quantized asks
// for the int8 model; an impulse without one answers 400, never the
// float scores.
type ClassifyRequest struct {
	Features  []float32 `json:"features"`
	Quantized bool      `json:"quantized"`
}

// ClassifyResponse is the inference result.
type ClassifyResponse struct {
	Success bool   `json:"success"`
	Label   string `json:"label"`
	// Classification maps every class to its probability.
	Classification map[string]float32 `json:"classification"`
	// Anomaly is set when the impulse has an anomaly block.
	Anomaly float64 `json:"anomaly"`
}

// MaxClassifyBatch caps the window count of one batched classify call;
// larger workloads should page their windows across requests.
const MaxClassifyBatch = 256

// ClassifyBatchRequest runs inference on several feature windows in one
// request, amortizing transport, auth and scratch-arena warm-up across
// the batch. Every window must be a full feature window (same length the
// single-window classify accepts). Quantized is as in ClassifyRequest.
type ClassifyBatchRequest struct {
	Windows   [][]float32 `json:"windows"`
	Quantized bool        `json:"quantized"`
}

// ClassifyWindowResult is one window's outcome within a batch.
type ClassifyWindowResult struct {
	Label string `json:"label"`
	// Classification maps every class to its probability.
	Classification map[string]float32 `json:"classification"`
	// Anomaly is set when the impulse has an anomaly block.
	Anomaly float64 `json:"anomaly"`
}

// ClassifyBatchResponse carries one result per request window, in order.
type ClassifyBatchResponse struct {
	Success bool                   `json:"success"`
	Results []ClassifyWindowResult `json:"results"`
}

// ProfileEstimate is the on-device estimate for one numeric type.
type ProfileEstimate struct {
	DSPMS       float64 `json:"dsp_ms"`
	InferenceMS float64 `json:"inference_ms"`
	TotalMS     float64 `json:"total_ms"`
	RAMKB       float64 `json:"ram_kb"`
	FlashKB     float64 `json:"flash_kb"`
	// Fits reports whether the model fits the target's memory.
	Fits bool `json:"fits"`
}

// ProfileResponse estimates latency and memory on a target device.
type ProfileResponse struct {
	Success bool             `json:"success"`
	Target  string           `json:"target"`
	Float32 *ProfileEstimate `json:"float32"`
	// Int8 is present only when the impulse has a quantized model.
	Int8 *ProfileEstimate `json:"int8,omitempty"`
}

// DeploymentResponse packages a source-library deployment. Files maps
// path → base64 content. (type=eim streams raw bytes instead.)
type DeploymentResponse struct {
	Success bool              `json:"success"`
	Kind    string            `json:"kind"`
	Files   map[string]string `json:"files"`
}

// --- Versioning ---

// SnapshotRequest captures a project version.
type SnapshotRequest struct {
	Note string `json:"note"`
}

// ProjectVersion is one snapshot: data, preprocessing and model design
// captured together (the paper's reproducibility answer).
type ProjectVersion struct {
	ID             int             `json:"id"`
	Note           string          `json:"note"`
	DatasetVersion string          `json:"dataset_version"`
	ImpulseConfig  json.RawMessage `json:"impulse_config,omitempty"`
	CreatedAt      string          `json:"created_at"`
}

// SnapshotResponse returns the created version.
type SnapshotResponse struct {
	Success bool           `json:"success"`
	Version ProjectVersion `json:"version"`
}

// VersionsResponse is a paginated version listing.
type VersionsResponse struct {
	Success  bool             `json:"success"`
	Versions []ProjectVersion `json:"versions"`
	Page
}

// --- Operational metrics ---

// RouteMetrics aggregates one route's traffic.
type RouteMetrics struct {
	// Route is the v1 pattern ("GET /api/v1/projects").
	Route string `json:"route"`
	Count int64  `json:"count"`
	// Err4xx/Err5xx count client and server failures.
	Err4xx int64 `json:"err_4xx"`
	Err5xx int64 `json:"err_5xx"`
	// AvgMS is the mean handler latency.
	AvgMS float64 `json:"avg_ms"`
}

// JobKindMetrics aggregates terminal runs of one job kind.
type JobKindMetrics struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
	// AvgWaitMS is the mean queue wait; AvgRunMS the mean execution
	// time (final attempt each).
	AvgWaitMS float64 `json:"avg_wait_ms"`
	AvgRunMS  float64 `json:"avg_run_ms"`
}

// SchedulerMetrics snapshots the training worker pool.
type SchedulerMetrics struct {
	Workers     int   `json:"workers"`
	PeakWorkers int   `json:"peak_workers"`
	Queued      int   `json:"queued"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Cancelled   int64 `json:"cancelled"`
	Retries     int64 `json:"retries"`
	ScaleUps    int64 `json:"scale_ups"`
	// QueuedByPriority breaks the pending depth down per class.
	QueuedByPriority map[string]int `json:"queued_by_priority"`
	// Kinds reports per-kind queue-wait and run latency, sorted.
	Kinds []JobKindMetrics `json:"kinds,omitempty"`
}

// MetricsResponse is the operational snapshot at GET /api/v1/metrics.
type MetricsResponse struct {
	Success       bool             `json:"success"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      int64            `json:"requests"`
	RateLimited   int64            `json:"rate_limited"`
	Panics        int64            `json:"panics"`
	Routes        []RouteMetrics   `json:"routes"`
	Scheduler     SchedulerMetrics `json:"scheduler"`
	// Streams reports long-lived NDJSON connections per route. Their
	// durations are tracked here, separately from Routes, so that a
	// connection held open for minutes does not skew request latency.
	Streams []StreamRouteMetrics `json:"streams,omitempty"`
	// StreamPlane snapshots the live-inference session manager, when
	// streaming is enabled.
	StreamPlane *StreamPlaneMetrics `json:"stream_plane,omitempty"`
	// Resilience snapshots the admission gate, deadline enforcement and
	// watchdog counters.
	Resilience *ResilienceMetrics `json:"resilience,omitempty"`
	// Runtime snapshots the Go runtime so load harnesses can measure
	// target-side goroutine and heap deltas across a storm.
	Runtime *RuntimeMetrics `json:"runtime,omitempty"`
}

// RuntimeMetrics reports process-level Go runtime gauges.
type RuntimeMetrics struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

// ResilienceMetrics reports the overload-protection plane's state.
type ResilienceMetrics struct {
	// Level is the admission gate's shedding posture: "normal",
	// "shed-batch" (batch-class refused) or "shed-default" (only
	// interactive admitted).
	Level string `json:"level"`
	// Score is the last computed load score (1.0 = a resource fully
	// saturated).
	Score float64 `json:"score"`
	// Inflight counts currently admitted requests.
	Inflight int `json:"inflight"`
	// Shed counts requests refused by the gate (429 overloaded).
	Shed int64 `json:"shed"`
	// ShedByClass breaks Shed down per admission class.
	ShedByClass map[string]int64 `json:"shed_by_class,omitempty"`
	// DeadlineTimeouts counts requests that exceeded their route budget
	// (504 deadline).
	DeadlineTimeouts int64 `json:"deadline_timeouts"`
	// StalledJobs counts watchdog stalled flags; WatchdogCancelled
	// counts jobs the watchdog cancelled (both 0 when no watchdog runs).
	StalledJobs       int64 `json:"stalled_jobs"`
	WatchdogCancelled int64 `json:"watchdog_cancelled"`
}

// HealthResponse is the liveness probe at GET /api/v1/healthz: 200 as
// long as the process can serve HTTP at all, regardless of load.
type HealthResponse struct {
	Success       bool    `json:"success"`
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ReadyResponse is the readiness probe at GET /api/v1/readyz: HTTP 200
// when the instance should receive traffic, 503 while degraded (a
// dependency probe failing, load shedding active, or draining for
// shutdown). The body is returned for both statuses.
type ReadyResponse struct {
	Success  bool `json:"success"`
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// Probes maps each registered readiness probe to "ok" or its error.
	Probes map[string]string `json:"probes,omitempty"`
}

// StreamRouteMetrics aggregates long-lived streaming connections for one
// route pattern.
type StreamRouteMetrics struct {
	Route string `json:"route"`
	// Active is the number of connections currently open.
	Active int64 `json:"active"`
	// Count is the number of connections that have completed.
	Count int64 `json:"count"`
	// AvgSeconds is the mean duration of completed connections.
	AvgSeconds float64 `json:"avg_seconds"`
}

// StreamPlaneMetrics snapshots the streaming-inference session manager.
type StreamPlaneMetrics struct {
	ActiveSessions int `json:"active_sessions"`
	PeakSessions   int `json:"peak_sessions"`
	// Opened counts sessions ever admitted; Shed counts opens rejected
	// at the global capacity cap.
	Opened int64 `json:"opened"`
	Shed   int64 `json:"shed"`
	// Cumulative work across live and closed sessions.
	FramesIn   int64 `json:"frames_in"`
	Windows    int64 `json:"windows"`
	Detections int64 `json:"detections"`
	// DroppedFrames counts frames lost to ring-buffer overruns.
	DroppedFrames int64 `json:"dropped_frames"`
}

// StreamOpenRequest opens a live inference session against the trained
// impulse at POST /api/v1/projects/{id}/stream.
type StreamOpenRequest struct {
	// StrideMS sets the hop between overlapping classification windows.
	// 0 means non-overlapping (stride = window).
	StrideMS int `json:"stride_ms,omitempty"`
	// Quantized selects the int8 model; an impulse without one is
	// refused at open.
	Quantized bool `json:"quantized,omitempty"`
	// Threshold is the smoothed score needed to fire a detection
	// (default 0.6); Smooth is the moving-average depth in windows
	// (default 3); Suppress is a refractory period in windows after a
	// detection (default 0).
	Threshold float32 `json:"threshold,omitempty"`
	Smooth    int     `json:"smooth,omitempty"`
	Suppress  int     `json:"suppress,omitempty"`
	// Release is the hysteresis re-arm level: after a class fires it
	// must fall below Release before it can fire again (default
	// 0.75 * Threshold). Raise it toward Threshold when class scores
	// are tightly clustered and the default never re-arms.
	Release float32 `json:"release,omitempty"`
	// IgnoreLabels lists classes that never fire detection events —
	// typically background classes such as "noise".
	IgnoreLabels []string `json:"ignore_labels,omitempty"`
	// IdleTimeoutMS closes the session after this long without frames
	// (default 60000).
	IdleTimeoutMS int `json:"idle_timeout_ms,omitempty"`
}

// StreamOpenResponse describes the admitted session. Clients must push
// frames as Axes-interleaved float32 samples at Rate Hz.
type StreamOpenResponse struct {
	Success       bool     `json:"success"`
	SessionID     string   `json:"session_id"`
	WindowSamples int      `json:"window_samples"`
	StrideSamples int      `json:"stride_samples"`
	Rate          int      `json:"rate"`
	Axes          int      `json:"axes"`
	Classes       []string `json:"classes"`
}

// StreamPushRequest appends a batch of samples to a session at
// POST /api/v1/projects/{id}/stream/{sid}/frames. Len(Samples) must be a
// multiple of the session's axis count.
type StreamPushRequest struct {
	Samples []float32 `json:"samples"`
}

// StreamPushResponse acknowledges an accepted batch.
type StreamPushResponse struct {
	Success bool `json:"success"`
	// FramesIn is the total frames accepted by the session so far.
	FramesIn int64 `json:"frames_in"`
}

// StreamEvent is one NDJSON line on a session's event feed. Seq starts
// at 1 and is contiguous; clients resume with ?after=<seq> or the
// Last-Event-Id header.
type StreamEvent struct {
	Seq int64 `json:"seq"`
	// Type is "state", "result", or "detection".
	Type        string `json:"type"`
	TimestampMS int64  `json:"timestamp_ms"`
	// Status/Reason are set on state events ("open", "closed").
	Status string `json:"status,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Label/Score carry the top class for result and detection events.
	Label string  `json:"label,omitempty"`
	Score float32 `json:"score,omitempty"`
	// Scores carries the full smoothed distribution on detections only.
	Scores map[string]float32 `json:"scores,omitempty"`
	// WindowStart is the absolute frame index of the classified window.
	WindowStart int64 `json:"window_start,omitempty"`
	// Dropped is the cumulative frames lost to ring overruns.
	Dropped int64 `json:"dropped,omitempty"`
}

// Terminal reports whether the event ends the feed.
func (e StreamEvent) Terminal() bool {
	return e.Type == "state" && e.Status == "closed"
}

// --- Cluster plane ---

// ClusterNodeResponse identifies one cluster node. GET
// /api/v1/cluster/node (workers and followers; cluster-token guarded).
type ClusterNodeResponse struct {
	Success bool `json:"success"`
	// Name is the node's operator-assigned identifier.
	Name string `json:"name"`
	// Role is "worker" (a shard's writable primary) or "follower" (its
	// read-only replica).
	Role string `json:"role"`
	// Shard is the node's shard index in [0, Shards).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Projects maps project ID → committed dataset store version; the
	// gateway diffs a follower's map against its primary's to compute
	// replication lag.
	Projects map[int]uint64 `json:"projects,omitempty"`
}

// ReplicationSegment is one segment's committed size in a replication
// state snapshot.
type ReplicationSegment struct {
	Index int   `json:"index"`
	Size  int64 `json:"size"`
}

// ReplicationStateResponse is a project store's replication snapshot.
// GET /api/v1/cluster/replication/projects/{id}/state.
type ReplicationStateResponse struct {
	Success bool `json:"success"`
	// Version is the committed operation counter; SnapVersion the last
	// manifest snapshot's version (the journal retention horizon — a
	// cursor below it requires a snapshot bootstrap).
	Version     uint64               `json:"version"`
	SnapVersion uint64               `json:"snap_version"`
	Segments    []ReplicationSegment `json:"segments"`
}

// ReplicationJournalResponse carries raw journal frames (CRC framing
// intact, base64 in JSON) for versions in (since, upto]. GET
// /api/v1/cluster/replication/projects/{id}/journal?since=&upto=.
// A 409 conflict response means the cursor predates the retained
// journal and the follower must bootstrap from the manifest.
type ReplicationJournalResponse struct {
	Success bool   `json:"success"`
	Frames  []byte `json:"frames,omitempty"`
	// Last is the version of the final frame returned (== since when no
	// frames were pending).
	Last uint64 `json:"last"`
}

// ReplicationManifestResponse is the snapshot-bootstrap payload: the
// manifest blob rendered at Version. GET
// /api/v1/cluster/replication/projects/{id}/manifest.
type ReplicationManifestResponse struct {
	Success  bool   `json:"success"`
	Manifest []byte `json:"manifest"`
	Version  uint64 `json:"version"`
}

// ProjectMetaBlob carries one project's impulse in a cluster meta
// bundle: the bytes of its impulse.eim artefact, base64 in JSON
// (absent: no impulse configured).
type ProjectMetaBlob struct {
	ID      int    `json:"id"`
	Impulse []byte `json:"impulse,omitempty"`
}

// ClusterMetaResponse is a worker's control-plane state for follower
// sync: the registry snapshot plus per-project impulse artefacts. GET
// /api/v1/cluster/replication/meta.
type ClusterMetaResponse struct {
	Success  bool              `json:"success"`
	Registry []byte            `json:"registry"`
	Projects []ProjectMetaBlob `json:"projects,omitempty"`
}

// AdmitUserRequest inserts a pre-minted account on a worker. POST
// /api/v1/cluster/users — the gateway creates each user on one worker,
// then broadcasts the minted identity so every shard authenticates the
// same API key.
type AdmitUserRequest struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	APIKey string `json:"api_key"`
}

// ClusterNodeStatus is the gateway's view of one node.
type ClusterNodeStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Role string `json:"role"`
	// Ready/Draining/Probes mirror the node's last readyz answer.
	Ready    bool              `json:"ready"`
	Draining bool              `json:"draining,omitempty"`
	Probes   map[string]string `json:"probes,omitempty"`
	// LagOps is the follower's maximum per-project version deficit
	// against its primary (0 for primaries and caught-up followers).
	LagOps uint64 `json:"lag_ops,omitempty"`
	// Error is the last poll failure ("" when the node answers).
	Error string `json:"error,omitempty"`
}

// ClusterShardStatus groups one shard's nodes.
type ClusterShardStatus struct {
	Shard     int                 `json:"shard"`
	Primary   ClusterNodeStatus   `json:"primary"`
	Followers []ClusterNodeStatus `json:"followers,omitempty"`
}

// ClusterStatusResponse is the gateway's shard map with per-node health
// and replication lag. GET /api/v1/cluster/status (gateway only).
type ClusterStatusResponse struct {
	Success bool                 `json:"success"`
	Shards  []ClusterShardStatus `json:"shards"`
}

// StreamSessionStats summarizes a session's lifetime counters.
type StreamSessionStats struct {
	FramesIn   int64 `json:"frames_in"`
	Windows    int64 `json:"windows"`
	Detections int64 `json:"detections"`
	Dropped    int64 `json:"dropped"`
}

// StreamCloseResponse acknowledges DELETE .../stream/{sid}.
type StreamCloseResponse struct {
	Success bool               `json:"success"`
	Stats   StreamSessionStats `json:"stats"`
}

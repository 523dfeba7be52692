package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// OpStats aggregates one operation type's outcomes across every device
// in a run. Latencies cover all attempts that reached the target —
// successes and sheds alike — because a shed answer is still an answer
// the device had to wait for.
type OpStats struct {
	// Op is the operation name (OpClassify, OpStreamPush, ...).
	Op string `json:"op"`
	// Count is the total attempts issued.
	Count int64 `json:"count"`
	// Shed counts retryable refusals (429/503 with a stable code:
	// overloaded, backpressure, no_shard, rate_limited, unavailable).
	Shed int64 `json:"shed"`
	// ShedNoRetryAfter counts shed responses missing the Retry-After
	// hint — an SLO violation, always expected to be 0.
	ShedNoRetryAfter int64 `json:"shed_no_retry_after"`
	// HardErrors counts everything else that failed: 4xx/5xx with
	// non-retryable codes, transport failures, job runs that ended
	// failed.
	HardErrors int64 `json:"hard_errors"`
	// ByCode breaks refusals and failures down by stable error code
	// ("transport" for non-HTTP failures).
	ByCode map[string]int64 `json:"by_code,omitempty"`
	// Latency percentiles over all attempts, milliseconds.
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
	// OpsPerSec is Count divided by the storm's wall time.
	OpsPerSec float64 `json:"ops_per_sec"`
}

// HardErrorRate is HardErrors / Count (0 for an unused op).
func (o *OpStats) HardErrorRate() float64 {
	if o.Count == 0 {
		return 0
	}
	return float64(o.HardErrors) / float64(o.Count)
}

// RecallStats compares streamed detections against the ground truth
// events the synthesizer embedded in every streaming device's feed.
type RecallStats struct {
	// Sessions is the number of completed streaming sessions.
	Sessions int `json:"sessions"`
	// Events is the total embedded ground-truth utterances.
	Events int `json:"events"`
	// Detected counts utterances calibration.Score credited.
	Detected int `json:"detected"`
	// Missed counts utterances no detection was credited to.
	Missed int `json:"missed"`
	// False counts detections credited to no utterance: non-overlapping
	// ones and surplus hits on credited utterances.
	False int `json:"false"`
	// Recall is Detected / Events (1 when Events is 0).
	Recall float64 `json:"recall"`
}

// TargetDelta is the change in the target's runtime gauges across the
// storm, read from /metrics before and after. Available is false when
// the target predates the runtime block.
type TargetDelta struct {
	Available      bool  `json:"available"`
	Goroutines     int   `json:"goroutines"`
	HeapAllocBytes int64 `json:"heap_alloc_bytes"`
}

// Result is one complete fleet run: what was asked for, what the
// target did, and how long everything took.
type Result struct {
	// Target is the base URL the storm was aimed at.
	Target string `json:"target"`
	// Config echoes the scenario configuration, defaults applied.
	Config Config `json:"config"`
	// SetupSeconds covers environment setup: users, projects, dataset
	// upload and the serving model's training run.
	SetupSeconds float64 `json:"setup_seconds"`
	// WallSeconds is the storm itself, first op to last.
	WallSeconds float64 `json:"wall_seconds"`
	// Ops is the per-operation breakdown, sorted by op name.
	Ops []OpStats `json:"ops"`
	// Recall aggregates streaming detection quality.
	Recall RecallStats `json:"recall"`
	// TargetDelta is the target-side goroutine/heap movement.
	TargetDelta TargetDelta `json:"target_delta"`
}

// Op returns the named op's stats, or nil when the run never issued it.
func (r *Result) Op(name string) *OpStats {
	for i := range r.Ops {
		if r.Ops[i].Op == name {
			return &r.Ops[i]
		}
	}
	return nil
}

// InteractiveOps are the operations the admission gate classifies as
// interactive: per the resilience contract they are never shed with
// "overloaded", no matter the load.
var InteractiveOps = []string{OpClassify, OpClassifyBatch, OpStreamOpen, OpStreamPush, OpStreamClose}

// SLO is the assertion set a fleet result is gated on. The zero value
// checks nothing; DefaultSLO is the platform contract.
type SLO struct {
	// InteractiveNoShed requires zero "overloaded" refusals on the
	// interactive ops (InteractiveOps).
	InteractiveNoShed bool `json:"interactive_no_shed"`
	// RequireRetryAfter requires every shed response to carry a
	// Retry-After hint.
	RequireRetryAfter bool `json:"require_retry_after"`
	// FullRecall requires every embedded utterance detected exactly
	// once: no misses, no false fires.
	FullRecall bool `json:"full_recall"`
	// MaxHardErrorRate caps each op's HardErrors/Count fraction.
	// Negative disables the check; 0 demands zero hard errors.
	MaxHardErrorRate float64 `json:"max_hard_error_rate"`
}

// DefaultSLO is the platform's steady-state contract: interactive
// traffic always admitted, sheds always retryable, detections exact,
// no hard errors at all.
func DefaultSLO() SLO {
	return SLO{InteractiveNoShed: true, RequireRetryAfter: true, FullRecall: true}
}

// Violations evaluates the result against an SLO and returns one
// human-readable line per violated clause (empty = compliant).
func (r *Result) Violations(s SLO) []string {
	var v []string
	interactive := make(map[string]bool, len(InteractiveOps))
	for _, op := range InteractiveOps {
		interactive[op] = true
	}
	for _, o := range r.Ops {
		if s.InteractiveNoShed && interactive[o.Op] {
			if n := o.ByCode["overloaded"]; n > 0 {
				v = append(v, fmt.Sprintf("%s: %d interactive requests shed overloaded (must be 0)", o.Op, n))
			}
		}
		if s.RequireRetryAfter && o.ShedNoRetryAfter > 0 {
			v = append(v, fmt.Sprintf("%s: %d shed responses without Retry-After", o.Op, o.ShedNoRetryAfter))
		}
		if s.MaxHardErrorRate >= 0 && o.HardErrorRate() > s.MaxHardErrorRate {
			v = append(v, fmt.Sprintf("%s: hard error rate %.4f above %.4f (%d/%d)",
				o.Op, o.HardErrorRate(), s.MaxHardErrorRate, o.HardErrors, o.Count))
		}
	}
	if s.FullRecall {
		if r.Recall.Missed > 0 || r.Recall.False > 0 {
			v = append(v, fmt.Sprintf("recall: %d/%d utterances detected, %d missed, %d false fires",
				r.Recall.Detected, r.Recall.Events, r.Recall.Missed, r.Recall.False))
		}
	}
	return v
}

// Record is the schema WriteRecord writes: a Result plus the stamp and
// platform it was measured on.
type Record struct {
	// Stamp is UTC YYYYMMDD-HHMMSS.
	Stamp  string `json:"stamp"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	Result
}

// WriteRecord stamps the result and writes it as indented JSON. A
// literal "STAMP" in path is replaced with the UTC timestamp. It
// returns the final path.
func WriteRecord(path string, res *Result) (string, error) {
	stamp := time.Now().UTC().Format("20060102-150405")
	path = strings.ReplaceAll(path, "STAMP", stamp)
	rec := Record{Stamp: stamp, GoOS: runtime.GOOS, GoArch: runtime.GOARCH, Result: *res}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

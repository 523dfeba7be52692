package resilience

import (
	"fmt"
	"sync"
	"time"
)

// Class is a request's admission class. The gate sheds Batch first, then
// Default; Interactive is never shed — a user waiting on a classify
// result always gets an answer, even if every batch sweep is refused.
type Class int

// Admission classes. Default is deliberately the zero value so an
// unclassified request never lands in the never-shed Interactive class
// by omission.
const (
	ClassDefault Class = iota
	ClassInteractive
	ClassBatch
	numClasses
)

// String returns the wire name of the class.
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassDefault:
		return "default"
	case ClassBatch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Load is one sample of the pressure signals the gate watches. Each
// dimension is a used/capacity pair; a capacity of 0 removes that
// dimension from the score.
type Load struct {
	// Inflight / InflightCap count admitted HTTP requests (filled by the
	// gate itself).
	Inflight    int
	InflightCap int
	// QueueDepth / QueueCap is the job scheduler's pending backlog.
	QueueDepth int
	QueueCap   int
	// Sessions / SessionCap is the streaming plane's live session count.
	Sessions   int
	SessionCap int
	// HeapBytes / HeapLimit is runtime memory pressure (opt-in).
	HeapBytes uint64
	HeapLimit uint64
}

// Score reduces the sample to a single utilization in [0,∞): the maximum
// across dimensions, so the most saturated resource drives shedding.
func (l Load) Score() float64 {
	score := frac(float64(l.Inflight), float64(l.InflightCap))
	if s := frac(float64(l.QueueDepth), float64(l.QueueCap)); s > score {
		score = s
	}
	if s := frac(float64(l.Sessions), float64(l.SessionCap)); s > score {
		score = s
	}
	if s := frac(float64(l.HeapBytes), float64(l.HeapLimit)); s > score {
		score = s
	}
	return score
}

func frac(used, cap float64) float64 {
	if cap <= 0 {
		return 0
	}
	return used / cap
}

// Level is the gate's current shedding posture.
type Level int

// Shedding levels, escalating.
const (
	// LevelNormal admits every class.
	LevelNormal Level = iota
	// LevelShedBatch refuses Batch-class work.
	LevelShedBatch
	// LevelShedDefault refuses Batch and Default; only Interactive is
	// admitted.
	LevelShedDefault
)

// String renders the level for metrics and logs.
func (l Level) String() string {
	switch l {
	case LevelShedBatch:
		return "shed-batch"
	case LevelShedDefault:
		return "shed-default"
	default:
		return "normal"
	}
}

// DefaultMaxInflight bounds admitted concurrent requests when
// GateConfig.MaxInflight is unset.
const DefaultMaxInflight = 256

// GateConfig tunes a Gate.
type GateConfig struct {
	// MaxInflight is the admitted-request concurrency bound (default
	// DefaultMaxInflight). At the bound, non-interactive work is shed
	// regardless of score.
	MaxInflight int
	// ShedBatch is the load score at which Batch is refused (default
	// 0.75).
	ShedBatch float64
	// ShedDefault is the score at which Default is also refused
	// (default 0.90).
	ShedDefault float64
	// Release is the hysteresis margin: a level is only left once the
	// score drops below its threshold minus Release, so shedding does
	// not flap around a threshold (default 0.10).
	Release float64
	// SamplePeriod bounds how often the external Sample func runs; in
	// between, the cached sample is reused (default 100ms).
	SamplePeriod time.Duration
	// Sample supplies the queue/session/memory dimensions; the gate
	// fills the in-flight dimension itself. nil watches in-flight only.
	Sample func() Load
	// Clock substitutes the time source (tests).
	Clock func() time.Time
}

func (c GateConfig) withDefaults() GateConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.ShedBatch <= 0 {
		c.ShedBatch = 0.75
	}
	if c.ShedDefault <= 0 {
		c.ShedDefault = 0.90
	}
	if c.ShedDefault < c.ShedBatch {
		c.ShedDefault = c.ShedBatch
	}
	if c.Release <= 0 {
		c.Release = 0.10
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = 100 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// ShedError reports an admission refusal with a suggested retry delay;
// the API layer maps it to 429 + Retry-After.
type ShedError struct {
	Class      Class
	Level      Level
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("resilience: %s load shedding, %s-class request refused (retry in %s)",
		e.Level, e.Class, e.RetryAfter)
}

// Gate is the central admission controller: every (non-exempt) request
// is admitted before its handler runs and released after it. The gate samples system load
// (in-flight requests, scheduler queue depth, stream sessions, memory),
// escalates its shedding level instantly when the score crosses a
// threshold, and de-escalates with hysteresis once the score falls
// clearly below it.
type Gate struct {
	cfg GateConfig

	mu         sync.Mutex
	inflight   int
	level      Level
	lastScore  float64
	lastSample time.Time
	sampled    Load
	shed       [numClasses]int64
}

// NewGate builds a gate from cfg (zero fields take defaults).
func NewGate(cfg GateConfig) *Gate {
	return &Gate{cfg: cfg.withDefaults()}
}

// refreshLocked resamples load (rate-limited to SamplePeriod) and moves
// the shedding level. Caller holds g.mu.
func (g *Gate) refreshLocked() {
	now := g.cfg.Clock()
	if g.lastSample.IsZero() || now.Sub(g.lastSample) >= g.cfg.SamplePeriod {
		if g.cfg.Sample != nil {
			g.sampled = g.cfg.Sample()
		}
		g.lastSample = now
	}
	load := g.sampled
	load.Inflight = g.inflight
	load.InflightCap = g.cfg.MaxInflight
	score := load.Score()
	g.lastScore = score

	lvl := g.level
	// Escalate immediately.
	for lvl < LevelShedDefault && score >= g.riseThreshold(lvl+1) {
		lvl++
	}
	// De-escalate only once clearly below the level's own threshold.
	for lvl > LevelNormal && score < g.riseThreshold(lvl)-g.cfg.Release {
		lvl--
	}
	g.level = lvl
}

// riseThreshold is the score at which the given level engages.
func (g *Gate) riseThreshold(l Level) float64 {
	if l >= LevelShedDefault {
		return g.cfg.ShedDefault
	}
	return g.cfg.ShedBatch
}

// shedsLocked reports whether class is refused at the current posture.
func (g *Gate) shedsLocked(class Class) bool {
	if class == ClassInteractive {
		return false
	}
	// Hard concurrency bound, independent of the sampled score.
	if g.inflight >= g.cfg.MaxInflight {
		return true
	}
	switch g.level {
	case LevelShedDefault:
		return true
	case LevelShedBatch:
		return class == ClassBatch
	default:
		return false
	}
}

// retryAfter suggests how long a shed caller should wait: batch work
// backs off longer than default work, since it is re-admitted last.
func retryAfter(class Class) time.Duration {
	if class == ClassBatch {
		return 5 * time.Second
	}
	return 2 * time.Second
}

// Admit admits a request of the given class, or returns a *ShedError
// when the class is being shed. Interactive requests are always
// admitted. Each admission must be paired with exactly one Release.
func (g *Gate) Admit(class Class) error {
	if class < 0 || class >= numClasses {
		class = ClassDefault
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.refreshLocked()
	if g.shedsLocked(class) {
		g.shed[class]++
		return &ShedError{Class: class, Level: g.level, RetryAfter: retryAfter(class)}
	}
	g.inflight++
	return nil
}

// Release ends one admitted request.
func (g *Gate) Release() {
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
}

// Acquire is Admit with a release func that may be called any number of
// times, releasing once.
func (g *Gate) Acquire(class Class) (release func(), err error) {
	if err := g.Admit(class); err != nil {
		return nil, err
	}
	var once sync.Once
	return func() { once.Do(g.Release) }, nil
}

// Level re-evaluates and returns the current shedding posture. Readiness
// probes call this, so the level decays back to normal even when no
// requests are arriving.
func (g *Gate) Level() Level {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.refreshLocked()
	return g.level
}

// GateMetrics is a point-in-time admission snapshot.
type GateMetrics struct {
	// Level is the current shedding posture ("normal", "shed-batch",
	// "shed-default").
	Level string
	// Score is the last computed load score.
	Score float64
	// Inflight counts currently admitted requests.
	Inflight int
	// Shed counts refusals per class name.
	Shed map[string]int64
}

// Metrics snapshots the gate's counters (refreshing the level first).
func (g *Gate) Metrics() GateMetrics {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.refreshLocked()
	m := GateMetrics{
		Level:    g.level.String(),
		Score:    g.lastScore,
		Inflight: g.inflight,
		Shed:     map[string]int64{},
	}
	for c := Class(0); c < numClasses; c++ {
		if g.shed[c] > 0 {
			m.Shed[c.String()] = g.shed[c]
		}
	}
	return m
}

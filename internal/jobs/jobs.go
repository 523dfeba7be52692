// Package jobs implements the compute-orchestration layer of the
// platform (paper Sec. 4.10): containerised-style jobs (training, tuner
// runs, deployments) executed by an autoscaling worker pool — a single-
// process stand-in for the AWS EKS / Kubernetes deployment the paper
// describes. Beyond the work queue and dynamic scale-up the paper calls
// out, the scheduler provides priority classes (interactive work ahead
// of batch sweeps), per-project round-robin fairness with queue quotas
// so one tenant cannot starve the cluster, cooperative cancellation, a
// structured progress model, bounded retries for transient failures and
// a per-job ordered event log that backs live streaming APIs.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgepulse/internal/eventlog"
	"edgepulse/internal/faults"
)

// FaultExec is the registered fault point fired before each job body
// runs; chaos tests arm it (with faults.Arm, optionally wrapping the
// error in Transient) to force execution failures and retries.
const FaultExec = "jobs.exec"

// Status is a job lifecycle state.
type Status string

// Job states. The lifecycle is
// queued → running → {finished | failed | cancelled}, with a transient
// failure under a retry budget looping running → queued.
const (
	Queued    Status = "queued"
	Running   Status = "running"
	Finished  Status = "finished"
	Failed    Status = "failed"
	Cancelled Status = "cancelled"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == Finished || s == Failed || s == Cancelled
}

// Priority orders jobs across classes: all pending interactive jobs run
// before any default job, which run before any batch job. Within a
// class, projects take strict round-robin turns.
type Priority int

// Priority classes. The zero value is deliberately PriorityDefault, so
// a SubmitOptions built without setting Priority cannot accidentally
// jump the whole queue.
const (
	// PriorityDefault is the ordinary class (and the zero value).
	PriorityDefault Priority = iota
	// PriorityInteractive is for jobs a user is actively waiting on
	// (training runs behind the Studio UI); it runs before everything
	// else.
	PriorityInteractive
	// PriorityBatch is for long sweeps (tuner searches) that should
	// yield to all other work.
	PriorityBatch
	numPriorities
)

// classOrder is the dispatch order of the priority classes, highest
// first (independent of the constants' numeric values).
var classOrder = [...]Priority{PriorityInteractive, PriorityDefault, PriorityBatch}

// String returns the wire name of the priority class.
func (p Priority) String() string {
	switch p {
	case PriorityInteractive:
		return "interactive"
	case PriorityDefault:
		return "default"
	case PriorityBatch:
		return "batch"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// ParsePriority maps a wire name back to its class.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "interactive":
		return PriorityInteractive, nil
	case "default", "":
		return PriorityDefault, nil
	case "batch":
		return PriorityBatch, nil
	default:
		return 0, fmt.Errorf("jobs: unknown priority %q", s)
	}
}

// Sentinel submission failures, matched with errors.Is.
var (
	// ErrQueueFull means the scheduler-wide pending bound was hit.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrQuotaExceeded means the submitting tag (project) already has
	// its full per-tenant share of the queue pending.
	ErrQuotaExceeded = errors.New("jobs: per-project queue quota exceeded")
	// ErrShutdown means the scheduler no longer accepts jobs.
	ErrShutdown = errors.New("jobs: scheduler is shut down")
)

// transientError marks a failure as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps an error to mark the failure as transient: a job body
// returning it is re-queued (at the back of its project's FIFO) until
// its MaxRetries budget is spent. nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether the error carries the Transient marker.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// JobFunc is the work body. It receives its own *Job — the ID is minted
// by Submit before the body can run, so the body can key results by
// job.ID and stream progress through job.SetProgress / job.Logf without
// any out-of-band channel handshake. ctx is cancelled when the job is
// cancelled or the scheduler shuts down; bodies must observe it.
type JobFunc func(ctx context.Context, job *Job) error

// Job is one unit of scheduled work.
type Job struct {
	// ID is unique within the scheduler.
	ID string
	// Kind labels the workload ("training", "tuner", ...).
	Kind string
	// Tag is an opaque owner reference supplied at submission (e.g. a
	// project ID for access control and fairness). It is set before the
	// job becomes visible through Get, so authorization checks can
	// never observe a job without its tag.
	Tag any
	// Priority is the job's scheduling class.
	Priority Priority
	// Events is the job's ordered log of state transitions, progress
	// updates and log lines, closed with the terminal state event. Only
	// the job appends to it.
	Events *eventlog.Log[Event]

	// tagKey is Tag rendered to the fairness/quota key.
	tagKey string
	// now is the scheduler's clock, captured at submission.
	now func() time.Time

	mu              sync.Mutex
	status          Status
	err             string
	stage           string
	progress        float64
	attempt         int
	maxRetries      int
	claimed         bool
	cancelRequested bool
	cancelFn        context.CancelFunc
	createdAt       time.Time
	enqueuedAt      time.Time
	startedAt       time.Time
	finishedAt      time.Time
	done            chan struct{}
	fn              JobFunc

	// Watchdog state: lastActivity is the time of the newest non-stalled
	// event; stalled is set by MarkStalled and cleared by fresh activity.
	lastActivity time.Time
	stalled      bool
}

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the failure/cancellation message, if any.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Logs returns the log lines the job's event log still retains, oldest
// first: the Message of each EventLog event, in seq order. Older lines
// have been trimmed with the rest of the log (eventlog.Retain events).
func (j *Job) Logs() []string {
	events, _ := j.Events.Since(0)
	var lines []string
	for _, e := range events {
		if e.Type == EventLog {
			lines = append(lines, e.Message)
		}
	}
	return lines
}

// Attempt returns the retry attempt the job is on (0 = first run).
func (j *Job) Attempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// Progress returns the latest structured progress report.
func (j *Job) Progress() (stage string, pct float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stage, j.progress
}

// Duration returns the job runtime (so far, for running jobs).
func (j *Job) Duration() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.startedAt.IsZero() {
		return 0
	}
	if j.finishedAt.IsZero() {
		return j.now().Sub(j.startedAt)
	}
	return j.finishedAt.Sub(j.startedAt)
}

// Logf appends a line to the job's event log.
func (j *Job) Logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.Events.Append(j.stampLocked(Event{Type: EventLog, Message: line}))
}

// SetProgress records structured progress — the current stage and its
// percent complete (clamped to [0,100]) — replacing ad-hoc log parsing.
// Each call appends an EventProgress entry to the job's event log.
func (j *Job) SetProgress(stage string, pct float64) {
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stage = stage
	j.progress = pct
	j.Events.Append(j.stampLocked(Event{Type: EventProgress, Stage: stage, Pct: pct}))
}

// LastActivity returns the time of the job's most recent event —
// progress, log line or state transition. The watchdog compares it
// against its no-progress window to detect stuck jobs.
func (j *Job) LastActivity() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lastActivity.IsZero() {
		return j.createdAt
	}
	return j.lastActivity
}

// Stalled reports whether the watchdog has flagged the job and no
// activity has cleared the flag since.
func (j *Job) Stalled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stalled
}

// MarkStalled flags a running job as stalled, emitting an EventStalled
// entry (with msg as the reason) to its event log and live subscribers.
// It reports false when the job is not running or already flagged, so a
// sweeping watchdog raises at most one flag per silence.
func (j *Job) MarkStalled(msg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != Running || j.stalled {
		return false
	}
	j.Events.Append(j.stampLocked(Event{Type: EventStalled, Message: msg}))
	j.stalled = true
	return true
}

// Done returns a channel closed when the job reaches a terminal state
// (Finished, Failed or Cancelled). It lets callers select on job
// completion — the primitive behind the API's long-poll endpoint.
// A transient-failure retry does not close it.
func (j *Job) Done() <-chan struct{} { return j.done }

// terminal reports whether the job has stopped for good.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal()
}

// finalizeLocked moves the job to a terminal state: stamps times,
// closes the event log with the terminal state event and closes done.
// Caller holds j.mu; the body closure is released so captured state
// (model weights, request payloads) does not stay pinned while the
// terminal job is retained.
func (j *Job) finalizeLocked(status Status, msg string, at time.Time) {
	j.status = status
	j.err = msg
	j.finishedAt = at
	j.fn = nil
	j.cancelFn = nil
	j.Events.Close(j.stampLocked(Event{Type: EventState, Status: status, Message: msg}))
	close(j.done)
}

// KindMetrics aggregates completed runs of one job kind.
type KindMetrics struct {
	Kind string
	// Count is the number of terminal runs (finished, failed or
	// cancelled-while-running; retries count once, at the final run).
	Count int64
	// AvgWaitMS is the mean queue wait of the final attempt.
	AvgWaitMS float64
	// AvgRunMS is the mean execution time of the final attempt.
	AvgRunMS float64
}

// Metrics is a point-in-time scheduler snapshot.
type Metrics struct {
	Workers   int
	Queued    int
	Completed int64
	FailedN   int64
	// CancelledN counts jobs that reached the cancelled state.
	CancelledN int64
	// Retries counts transient-failure re-queues.
	Retries  int64
	ScaleUps int64
	// PeakWorkers is the high-water worker count.
	PeakWorkers int
	// QueuedByPriority breaks the pending depth down per class,
	// indexed by Priority.
	QueuedByPriority [int(numPriorities)]int
	// Kinds reports per-kind wait/run latency, sorted by kind.
	Kinds []KindMetrics
}

// Config tunes the scheduler.
type Config struct {
	// MinWorkers are always running (default 1).
	MinWorkers int
	// MaxWorkers bounds scale-up (default 4).
	MaxWorkers int
	// QueueSize bounds pending jobs across all tenants (default 64).
	QueueSize int
	// MaxQueuedPerTag bounds pending jobs per submission tag, so one
	// tenant cannot fill the whole queue (default: QueueSize, i.e. no
	// extra bound until configured lower).
	MaxQueuedPerTag int
	// ScaleInterval is the fallback autoscaler period; scale-up is
	// also triggered inline by submissions (default 50ms).
	ScaleInterval time.Duration
	// MaxRetainedJobs bounds how many jobs (with their log streams)
	// stay resident; the oldest terminal jobs evict first, mirroring
	// the JobStore result cap (default 1024).
	MaxRetainedJobs int
	// Clock substitutes the time source (default time.Now). Tests
	// inject a fake clock to make durations and event timestamps
	// deterministic.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers < c.MinWorkers {
		c.MaxWorkers = c.MinWorkers + 3
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.MaxQueuedPerTag <= 0 || c.MaxQueuedPerTag > c.QueueSize {
		c.MaxQueuedPerTag = c.QueueSize
	}
	if c.ScaleInterval <= 0 {
		c.ScaleInterval = 50 * time.Millisecond
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 1024
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// kindStats accumulates terminal-run latency per kind (guarded by s.mu).
type kindStats struct {
	count  int64
	waitNS int64
	runNS  int64
}

// Scheduler runs jobs on an autoscaling worker pool with priority and
// per-tag fairness.
type Scheduler struct {
	cfg Config
	now func() time.Time

	mu   sync.Mutex
	cond *sync.Cond
	q    fairQueue
	// pending counts queued (not yet claimed, not cancelled) jobs.
	pending       int
	pendingByPrio [int(numPriorities)]int
	pendingByTag  map[string]int
	jobs          map[string]*Job
	order         []string
	workers       int
	peak          int
	nextID        int64
	closed        bool
	kinds         map[string]*kindStats

	// evictHook, when set, is invoked (outside the scheduler lock)
	// with each job ID dropped by retention eviction, so co-located
	// state (e.g. a JobStore result) can be released with the job.
	evictHook func(jobID string)

	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	retries   atomic.Int64
	scaleUps  atomic.Int64
	busy      atomic.Int64

	ctx       context.Context
	ctxCancel context.CancelFunc
	wg        sync.WaitGroup
}

// NewScheduler starts the pool with MinWorkers workers and the autoscaler.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:          cfg,
		now:          cfg.Clock,
		pendingByTag: map[string]int{},
		jobs:         map[string]*Job{},
		kinds:        map[string]*kindStats{},
		ctx:          ctx,
		ctxCancel:    cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	s.mu.Lock()
	for i := 0; i < cfg.MinWorkers; i++ {
		s.addWorkerLocked()
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.autoscale()
	return s
}

// addWorkerLocked grows the pool by one worker; caller holds s.mu.
func (s *Scheduler) addWorkerLocked() bool {
	if s.workers >= s.cfg.MaxWorkers || s.closed {
		return false
	}
	s.workers++
	if s.workers > s.peak {
		s.peak = s.workers
	}
	s.wg.Add(1)
	go s.worker()
	return true
}

// scaleLocked adds a worker when jobs are pending beyond the idle
// capacity — the "dynamically scale compute resources based on
// workload" behaviour, triggered inline at submission so scale-up is
// deterministic rather than timer-dependent.
func (s *Scheduler) scaleLocked() {
	idle := s.workers - int(s.busy.Load())
	if s.pending > idle && s.addWorkerLocked() {
		s.scaleUps.Add(1)
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		job := s.pop()
		if job == nil {
			return
		}
		s.busy.Add(1)
		s.run(job)
		s.busy.Add(-1)
	}
}

// pop blocks until a runnable job is available or the scheduler shuts
// down (nil). Jobs cancelled while queued were finalized eagerly and
// are skipped here.
func (s *Scheduler) pop() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for {
			j := s.q.pop()
			if j == nil {
				break
			}
			j.mu.Lock()
			if j.status != Queued {
				// Cancelled while queued; its pending counts were
				// already released by Cancel.
				j.mu.Unlock()
				continue
			}
			j.claimed = true
			j.mu.Unlock()
			s.releasePendingLocked(j)
			return j
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// releasePendingLocked drops the job from the pending accounting;
// caller holds s.mu.
func (s *Scheduler) releasePendingLocked(j *Job) {
	s.pending--
	s.pendingByPrio[j.Priority]--
	if n := s.pendingByTag[j.tagKey] - 1; n > 0 {
		s.pendingByTag[j.tagKey] = n
	} else {
		delete(s.pendingByTag, j.tagKey)
	}
}

// enqueueLocked admits a (new or retried) job to the fair queue;
// caller holds s.mu.
func (s *Scheduler) enqueueLocked(j *Job) {
	j.enqueuedAt = s.now()
	s.q.push(j)
	s.pending++
	s.pendingByPrio[j.Priority]++
	s.pendingByTag[j.tagKey]++
	s.scaleLocked()
	s.cond.Signal()
}

func (s *Scheduler) run(job *Job) {
	job.mu.Lock()
	if job.status != Queued {
		job.mu.Unlock()
		return
	}
	if job.cancelRequested {
		// Cancelled in the pop→run window.
		job.finalizeLocked(Cancelled, "cancelled before start", s.now())
		s.cancelled.Add(1)
		job.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	job.status = Running
	job.startedAt = s.now()
	job.cancelFn = cancel
	job.Events.Append(job.stampLocked(Event{Type: EventState, Status: Running}))
	fn := job.fn
	job.mu.Unlock()

	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		// Chaos hook: an armed FaultExec preempts the body, exercising
		// the failure/retry paths without a cooperating job function.
		if ferr := faults.Inject(FaultExec); ferr != nil {
			return ferr
		}
		return fn(ctx, job)
	}()
	cancel()

	s.mu.Lock()
	job.mu.Lock()
	at := s.now()
	switch {
	case err == nil:
		// A body that returns success is Finished even when a cancel
		// raced in after its side effects committed — reporting such a
		// run as cancelled would misdescribe state that already exists
		// (a stored result, an updated project model).
		s.recordKindLocked(job, at)
		job.finalizeLocked(Finished, "", at)
		s.completed.Add(1)
	case job.cancelRequested:
		s.recordKindLocked(job, at)
		job.finalizeLocked(Cancelled, err.Error(), at)
		s.cancelled.Add(1)
	case IsTransient(err) && job.attempt < job.maxRetries && !s.closed:
		job.attempt++
		job.status = Queued
		job.claimed = false
		job.cancelFn = nil
		job.Events.Append(job.stampLocked(Event{
			Type: EventState, Status: Queued,
			Message: "retrying after transient failure: " + err.Error(),
		}))
		s.retries.Add(1)
		s.enqueueLocked(job)
	default:
		s.recordKindLocked(job, at)
		job.finalizeLocked(Failed, err.Error(), at)
		s.failed.Add(1)
	}
	job.mu.Unlock()
	// Retention eviction also runs on terminal transitions (not just
	// submissions), so an idle scheduler does not pin a whole backlog
	// of finished jobs until the next submit.
	evicted := s.evictLocked()
	hook := s.evictHook
	s.mu.Unlock()
	if hook != nil {
		for _, id := range evicted {
			hook(id)
		}
	}
}

// recordKindLocked accumulates the final attempt's wait/run latency.
// Caller holds s.mu and job.mu.
func (s *Scheduler) recordKindLocked(job *Job, finished time.Time) {
	st := s.kinds[job.Kind]
	if st == nil {
		st = &kindStats{}
		s.kinds[job.Kind] = st
	}
	st.count++
	st.waitNS += job.startedAt.Sub(job.enqueuedAt).Nanoseconds()
	st.runNS += finished.Sub(job.startedAt).Nanoseconds()
}

// autoscale is the fallback scale-up path for jobs that outlive a
// submission burst (inline scaling at Submit covers the common case).
func (s *Scheduler) autoscale() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.ScaleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			s.mu.Lock()
			if s.pending > 0 {
				s.scaleLocked()
			}
			s.mu.Unlock()
		}
	}
}

// SubmitOptions configures a job submission.
type SubmitOptions struct {
	// Kind labels the workload ("training", "tuner", ...).
	Kind string
	// Tag is the opaque owner reference (project ID); it is also the
	// fairness/quota key.
	Tag any
	// Priority selects the scheduling class; the zero value is
	// PriorityDefault.
	Priority Priority
	// MaxRetries bounds transient-failure re-queues (0 = no retry).
	MaxRetries int
}

// maxRetryBudget caps MaxRetries so a buggy transient classifier
// cannot loop a job forever.
const maxRetryBudget = 8

// tagKey renders a submission tag to the fairness/quota key.
func tagKey(tag any) string {
	if tag == nil {
		return ""
	}
	return fmt.Sprintf("%v", tag)
}

// Submit enqueues an untagged default-priority job. It fails when the
// queue is full or the scheduler is shut down.
func (s *Scheduler) Submit(kind string, fn JobFunc) (*Job, error) {
	return s.SubmitJob(SubmitOptions{Kind: kind, Priority: PriorityDefault}, fn)
}

// SubmitTagged enqueues a default-priority job carrying an opaque owner
// tag. The tag is attached under the scheduler lock before the job is
// registered, so a concurrent Get can never return the job untagged.
func (s *Scheduler) SubmitTagged(kind string, tag any, fn JobFunc) (*Job, error) {
	return s.SubmitJob(SubmitOptions{Kind: kind, Tag: tag, Priority: PriorityDefault}, fn)
}

// SubmitJob enqueues a job with explicit scheduling options. Admission
// is bounded twice: ErrQueueFull when the scheduler-wide pending bound
// is hit, ErrQuotaExceeded when the tag already has its per-tenant
// share pending (match with errors.Is).
func (s *Scheduler) SubmitJob(opts SubmitOptions, fn JobFunc) (*Job, error) {
	if fn == nil {
		return nil, fmt.Errorf("jobs: nil job body")
	}
	if opts.Priority < 0 || opts.Priority >= numPriorities {
		return nil, fmt.Errorf("jobs: invalid priority %d", int(opts.Priority))
	}
	retries := opts.MaxRetries
	if retries < 0 {
		retries = 0
	}
	if retries > maxRetryBudget {
		retries = maxRetryBudget
	}
	key := tagKey(opts.Tag)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	if s.pending >= s.cfg.QueueSize {
		pending := s.pending
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (%d pending)", ErrQueueFull, pending)
	}
	if s.pendingByTag[key] >= s.cfg.MaxQueuedPerTag {
		n := s.pendingByTag[key]
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (%d pending for %q)", ErrQuotaExceeded, n, key)
	}
	s.nextID++
	job := &Job{
		ID:         fmt.Sprintf("job-%d", s.nextID),
		Kind:       opts.Kind,
		Tag:        opts.Tag,
		Priority:   opts.Priority,
		tagKey:     key,
		now:        s.now,
		status:     Queued,
		maxRetries: retries,
		createdAt:  s.now(),
		done:       make(chan struct{}),
		fn:         fn,
		Events:     eventlog.New(func(e *Event) *int64 { return &e.Seq }),
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	job.mu.Lock()
	job.Events.Append(job.stampLocked(Event{Type: EventState, Status: Queued}))
	job.mu.Unlock()
	s.enqueueLocked(job)
	evicted := s.evictLocked()
	hook := s.evictHook
	s.mu.Unlock()

	if hook != nil {
		for _, id := range evicted {
			hook(id)
		}
	}
	return job, nil
}

// Cancel requests cancellation of a job. A still-queued job reaches the
// cancelled terminal state immediately; a running job has its context
// cancelled and reaches cancelled as soon as its body observes the
// context and returns an error (a transient-retry budget never
// resurrects a cancelled job). A body that completes successfully
// despite the request finalizes as finished — its side effects already
// committed. cancelled reports whether this call initiated a
// cancellation — false when the job was already terminal.
func (s *Scheduler) Cancel(id string) (job *Job, cancelled bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false, fmt.Errorf("jobs: no job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.status == Queued && !j.claimed:
		j.cancelRequested = true
		s.releasePendingLocked(j)
		j.finalizeLocked(Cancelled, "cancelled while queued", s.now())
		s.cancelled.Add(1)
		return j, true, nil
	case !j.status.Terminal():
		// Running, or claimed and about to run: cancel cooperatively.
		j.cancelRequested = true
		if j.cancelFn != nil {
			j.cancelFn()
		}
		return j, true, nil
	default:
		return j, false, nil
	}
}

// SetEvictHook registers a callback receiving the ID of every job
// dropped by retention eviction (called outside the scheduler lock).
// The API server uses it to release the job's stored result in step.
func (s *Scheduler) SetEvictHook(fn func(jobID string)) {
	s.mu.Lock()
	s.evictHook = fn
	s.mu.Unlock()
}

// evictLocked drops the oldest terminal jobs beyond MaxRetainedJobs so
// a long-running scheduler's memory stays bounded, returning the
// evicted IDs. Queued and running jobs are never evicted. Caller holds
// s.mu (s.mu → job.mu ordering is safe: no path locks them in reverse).
func (s *Scheduler) evictLocked() []string {
	excess := len(s.order) - s.cfg.MaxRetainedJobs
	if excess <= 0 {
		return nil
	}
	var evicted []string
	kept := make([]string, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.terminal() {
			delete(s.jobs, id)
			evicted = append(evicted, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	return evicted
}

// Get returns a job by ID.
func (s *Scheduler) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("jobs: no job %s", id)
	}
	return j, nil
}

// List returns all jobs in submission order.
func (s *Scheduler) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Wait blocks until the job completes or the timeout elapses.
func (s *Scheduler) Wait(id string, timeout time.Duration) (*Job, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("jobs: %s did not finish within %v", id, timeout)
	}
}

// Accepting reports whether the scheduler still admits submissions —
// the readiness-probe view of Shutdown's closed flag.
func (s *Scheduler) Accepting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// QueueDepth returns the pending job count and the configured queue
// bound — the cheap accessor the admission gate samples, avoiding the
// full Metrics snapshot on the request path.
func (s *Scheduler) QueueDepth() (pending, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending, s.cfg.QueueSize
}

// Metrics returns a snapshot of pool state.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		Workers:          s.workers,
		PeakWorkers:      s.peak,
		Queued:           s.pending,
		QueuedByPriority: s.pendingByPrio,
	}
	kinds := make([]KindMetrics, 0, len(s.kinds))
	for kind, st := range s.kinds {
		kinds = append(kinds, KindMetrics{
			Kind:      kind,
			Count:     st.count,
			AvgWaitMS: float64(st.waitNS) / float64(st.count) / 1e6,
			AvgRunMS:  float64(st.runNS) / float64(st.count) / 1e6,
		})
	}
	s.mu.Unlock()
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].Kind < kinds[j].Kind })
	m.Kinds = kinds
	m.Completed = s.completed.Load()
	m.FailedN = s.failed.Load()
	m.CancelledN = s.cancelled.Load()
	m.Retries = s.retries.Load()
	m.ScaleUps = s.scaleUps.Load()
	return m
}

// Shutdown stops accepting jobs, finalizes still-queued jobs as
// cancelled (so no job is left in a non-terminal state), cancels the
// running jobs' contexts and waits for workers to drain.
func (s *Scheduler) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for {
		j := s.q.pop()
		if j == nil {
			break
		}
		j.mu.Lock()
		if j.status == Queued && !j.claimed {
			j.cancelRequested = true
			s.releasePendingLocked(j)
			j.finalizeLocked(Cancelled, "scheduler shut down", s.now())
			s.cancelled.Add(1)
		}
		j.mu.Unlock()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.ctxCancel()
	s.wg.Wait()
}

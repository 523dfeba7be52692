package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgepulse/internal/eventlog"
)

// blockingJob returns a job body that blocks until release is closed
// (or the job context is cancelled) and a channel closed once the body
// is running — the done-channel synchronization that replaces the old
// sleep-based waits.
func blockingJob(release <-chan struct{}) (JobFunc, <-chan struct{}) {
	started := make(chan struct{})
	var once sync.Once
	return func(ctx context.Context, j *Job) error {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}, started
}

func TestSubmitAndWait(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	var ran atomic.Bool
	j, err := s.Submit("training", func(ctx context.Context, j *Job) error {
		j.Logf("epoch %d done", 1)
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Wait(j.ID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ran.Load() || done.Status() != Finished {
		t.Fatalf("status %s", done.Status())
	}
	logs := done.Logs()
	if len(logs) != 1 || logs[0] != "epoch 1 done" {
		t.Fatalf("logs: %v", logs)
	}
	// The event log recorded the full lifecycle in order.
	events, terminal := done.Events.Since(0)
	if !terminal {
		t.Fatal("terminal job not reported done")
	}
	var states []Status
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want contiguous", i, e.Seq)
		}
		if e.Type == EventState {
			states = append(states, e.Status)
		}
	}
	if len(states) != 3 || states[0] != Queued || states[1] != Running || states[2] != Finished {
		t.Fatalf("state events: %v", states)
	}
}

// TestLogsAreTheRetainedLogEvents logs more lines than the event log
// keeps: Logs returns exactly the log lines among the retained events,
// newest last, not every line the job ever wrote.
func TestLogsAreTheRetainedLogEvents(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	const lines = 600
	j, err := s.Submit("training", func(ctx context.Context, j *Job) error {
		for i := 0; i < lines; i++ {
			j.Logf("line %d", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Wait(j.ID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// queued, running, the lines, finished: the log keeps the newest
	// eventlog.Retain events, the last of them the terminal state.
	events, _ := done.Events.Since(0)
	if len(events) != eventlog.Retain {
		t.Fatalf("%d events retained, want %d", len(events), eventlog.Retain)
	}
	if newest := events[len(events)-1].Seq; newest != lines+3 {
		t.Fatalf("newest seq %d, want %d", newest, lines+3)
	}
	kept := eventlog.Retain - 1
	logs := done.Logs()
	if len(logs) != kept {
		t.Fatalf("%d log lines, want the %d retained", len(logs), kept)
	}
	for i, line := range logs {
		if want := fmt.Sprintf("line %d", lines-kept+i); line != want {
			t.Fatalf("log %d is %q, want %q", i, line, want)
		}
	}
}

func TestFailedJob(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	j, _ := s.Submit("training", func(ctx context.Context, j *Job) error {
		return fmt.Errorf("out of memory")
	})
	done, err := s.Wait(j.ID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status() != Failed || done.Err() != "out of memory" {
		t.Fatalf("status %s err %q", done.Status(), done.Err())
	}
	m := s.Metrics()
	if m.FailedN != 1 {
		t.Errorf("failed count %d", m.FailedN)
	}
}

func TestPanicIsolatedToJob(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	j, _ := s.Submit("training", func(ctx context.Context, j *Job) error {
		panic("kaboom")
	})
	done, err := s.Wait(j.ID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status() != Failed {
		t.Fatal("panic not recorded as failure")
	}
	// Scheduler still works afterwards.
	j2, _ := s.Submit("training", func(ctx context.Context, j *Job) error { return nil })
	if _, err := s.Wait(j2.ID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestScaleUpUnderLoad(t *testing.T) {
	// Scale-up triggers inline at submission, so after a burst that
	// outstrips the pool the worker count is deterministic — no
	// sleep-and-poll on the autoscaler timer.
	s := NewScheduler(Config{MinWorkers: 1, MaxWorkers: 4, ScaleInterval: time.Hour})
	defer s.Shutdown()
	release := make(chan struct{})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		fn, _ := blockingJob(release)
		j, err := s.Submit("slow", fn)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	m := s.Metrics()
	if m.Workers != 4 {
		t.Fatalf("workers = %d after 8-job burst, want 4", m.Workers)
	}
	if m.ScaleUps == 0 {
		t.Error("no scale-ups recorded")
	}
	close(release)
	for _, j := range jobs {
		if _, err := s.Wait(j.ID, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().Completed; got != 8 {
		t.Errorf("completed %d", got)
	}
	if s.Metrics().PeakWorkers != 4 {
		t.Errorf("peak %d", s.Metrics().PeakWorkers)
	}
}

func TestQueueFull(t *testing.T) {
	s := NewScheduler(Config{MinWorkers: 1, MaxWorkers: 1, QueueSize: 2, ScaleInterval: time.Hour})
	defer s.Shutdown()
	release := make(chan struct{})
	defer close(release)
	fn, started := blockingJob(release)
	if _, err := s.Submit("slow", fn); err != nil {
		t.Fatal(err)
	}
	// Once the only worker is occupied, the queue admits exactly
	// QueueSize more jobs, deterministically.
	<-started
	for i := 0; i < 2; i++ {
		fn, _ := blockingJob(release)
		if _, err := s.Submit("slow", fn); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit("overflow", func(ctx context.Context, j *Job) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := NewScheduler(Config{})
	if _, err := s.Submit("x", nil); err == nil {
		t.Error("accepted nil body")
	}
	if _, err := s.SubmitJob(SubmitOptions{Kind: "x", Priority: Priority(99)},
		func(ctx context.Context, j *Job) error { return nil }); err == nil {
		t.Error("accepted invalid priority")
	}
	s.Shutdown()
	if _, err := s.Submit("x", func(ctx context.Context, j *Job) error { return nil }); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after shutdown: %v", err)
	}
	// Idempotent shutdown.
	s.Shutdown()
}

func TestGetAndList(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	if _, err := s.Get("nope"); err == nil {
		t.Error("Get accepted unknown id")
	}
	j1, _ := s.Submit("a", func(ctx context.Context, j *Job) error { return nil })
	j2, _ := s.Submit("b", func(ctx context.Context, j *Job) error { return nil })
	s.Wait(j1.ID, time.Second)
	s.Wait(j2.ID, time.Second)
	list := s.List()
	if len(list) != 2 || list[0].ID != j1.ID || list[1].ID != j2.ID {
		t.Fatalf("list: %v", list)
	}
}

func TestWaitTimeout(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	release := make(chan struct{})
	defer close(release)
	fn, _ := blockingJob(release)
	j, _ := s.Submit("slow", fn)
	if _, err := s.Wait(j.ID, 20*time.Millisecond); err == nil {
		t.Fatal("wait did not time out")
	}
	if _, err := s.Wait("missing", time.Millisecond); err == nil {
		t.Fatal("wait accepted unknown job")
	}
}

func TestShutdownCancelsRunningAndQueued(t *testing.T) {
	s := NewScheduler(Config{MinWorkers: 1, MaxWorkers: 1, ScaleInterval: time.Hour})
	release := make(chan struct{})
	defer close(release)
	fn, started := blockingJob(release)
	running, _ := s.Submit("slow", fn)
	<-started
	queued, _ := s.Submit("pending", func(ctx context.Context, j *Job) error { return nil })
	s.Shutdown()
	// The running body returned its context error → failed.
	if running.Status() != Failed {
		t.Fatalf("running job after shutdown: %s", running.Status())
	}
	// The queued job never ran; it reaches a terminal state instead of
	// leaking in "queued" forever.
	if queued.Status() != Cancelled {
		t.Fatalf("queued job after shutdown: %s", queued.Status())
	}
	select {
	case <-queued.Done():
	default:
		t.Fatal("queued job's done channel not closed at shutdown")
	}
}

func TestJobIDAvailableInBody(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	store := NewJobStore()
	j, err := s.Submit("training", func(ctx context.Context, j *Job) error {
		// The ID is minted before the body runs; results key off it
		// directly — no channel handshake.
		store.Put(j.ID, j.Kind, map[string]int{"epochs": 3})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(j.ID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	res, ok := store.Get(j.ID)
	if !ok || res.Kind != "training" || res.JobID != j.ID {
		t.Fatalf("stored result: %+v ok=%v", res, ok)
	}
	if store.Len() != 1 {
		t.Fatalf("store len %d", store.Len())
	}
	store.Delete(j.ID)
	if _, ok := store.Get(j.ID); ok {
		t.Fatal("result survived delete")
	}
}

func TestDoneChannel(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	release := make(chan struct{})
	fn, started := blockingJob(release)
	j, _ := s.Submit("slow", fn)
	// The body is provably still blocked, so done cannot be closed —
	// no timing involved.
	<-started
	select {
	case <-j.Done():
		t.Fatal("done before job finished")
	default:
	}
	close(release)
	select {
	case <-j.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("done never closed")
	}
	if j.Status() != Finished {
		t.Fatalf("status %s", j.Status())
	}
}

// fakeClock is an injectable deterministic time source: every reading
// advances it by one millisecond, so timestamps are strictly increasing
// and durations are exact without any real sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func TestInjectedClockDurations(t *testing.T) {
	clk := newFakeClock()
	s := NewScheduler(Config{MinWorkers: 1, MaxWorkers: 1, ScaleInterval: time.Hour, Clock: clk.Now})
	defer s.Shutdown()
	j, _ := s.Submit("training", func(ctx context.Context, j *Job) error { return nil })
	if _, err := s.Wait(j.ID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Every timestamp came from the fake clock, so the duration is a
	// positive whole number of fake milliseconds — deterministically.
	if d := j.Duration(); d <= 0 || d%time.Millisecond != 0 {
		t.Fatalf("duration %v not from the injected clock", d)
	}
	m := s.Metrics()
	if len(m.Kinds) != 1 || m.Kinds[0].Kind != "training" || m.Kinds[0].Count != 1 {
		t.Fatalf("kind metrics: %+v", m.Kinds)
	}
	if m.Kinds[0].AvgRunMS <= 0 || m.Kinds[0].AvgWaitMS < 0 {
		t.Fatalf("kind latency: %+v", m.Kinds[0])
	}
}

func TestJobStoreEviction(t *testing.T) {
	store := NewJobStore()
	for i := 0; i < maxResults+10; i++ {
		store.Put(fmt.Sprintf("job-%d", i), "training", i)
	}
	if store.Len() != maxResults {
		t.Fatalf("store len %d, want cap %d", store.Len(), maxResults)
	}
	// The oldest results were evicted FIFO; the newest survive.
	if _, ok := store.Get("job-0"); ok {
		t.Fatal("oldest result survived eviction")
	}
	if _, ok := store.Get(fmt.Sprintf("job-%d", maxResults+9)); !ok {
		t.Fatal("newest result evicted")
	}
	// Re-putting an existing ID replaces in place without growing order.
	store.Put(fmt.Sprintf("job-%d", maxResults+9), "training", "updated")
	if store.Len() != maxResults {
		t.Fatalf("replace grew store to %d", store.Len())
	}
}

func TestJobStoreDeleteThenReput(t *testing.T) {
	store := NewJobStore()
	store.Put("job-1", "training", "v1")
	store.Delete("job-1")
	store.Put("job-1", "training", "v2")
	// The re-inserted ID must occupy a fresh (newest) eviction slot:
	// filling the cap with other IDs must not evict it prematurely.
	for i := 0; i < maxResults-1; i++ {
		store.Put(fmt.Sprintf("other-%d", i), "training", i)
	}
	if res, ok := store.Get("job-1"); !ok || res.Value != "v2" {
		t.Fatalf("re-put result lost: %+v ok=%v", res, ok)
	}
	if store.Len() != maxResults {
		t.Fatalf("len %d, want %d", store.Len(), maxResults)
	}
}

func TestSchedulerEvictsTerminalJobs(t *testing.T) {
	s := NewScheduler(Config{MaxRetainedJobs: 5})
	defer s.Shutdown()
	var first string
	for i := 0; i < 8; i++ {
		j, err := s.Submit("quick", func(ctx context.Context, j *Job) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = j.ID
		}
		if _, err := s.Wait(j.ID, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The oldest terminal jobs were evicted at submission time.
	if _, err := s.Get(first); err == nil {
		t.Fatal("oldest terminal job survived past the retention cap")
	}
	if n := len(s.List()); n > 6 {
		t.Fatalf("retained %d jobs, cap 5 (+1 in flight)", n)
	}
	// Running jobs are never evicted even when they are oldest.
	release := make(chan struct{})
	defer close(release)
	fn, started := blockingJob(release)
	running, _ := s.Submit("slow", fn)
	<-started
	for i := 0; i < 10; i++ {
		j, err := s.Submit("quick", func(ctx context.Context, j *Job) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		s.Wait(j.ID, 2*time.Second)
	}
	if _, err := s.Get(running.ID); err != nil {
		t.Fatal("running job was evicted")
	}
}

package resilience

import (
	"context"
	"runtime"
	"testing"
	"time"

	"edgepulse/internal/jobs"
)

// startBlockedJob submits a job that parks until release is closed (or
// its context is cancelled) and waits for it to be running: the job
// closes started once its body runs.
func startBlockedJob(t *testing.T, sched *jobs.Scheduler) (*jobs.Job, chan struct{}) {
	t.Helper()
	release, started := make(chan struct{}), make(chan struct{})
	j, err := sched.Submit("train", func(ctx context.Context, job *jobs.Job) error {
		close(started)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatalf("job never started running (status %s)", j.Status())
	}
	return j, release
}

func TestWatchdogFlagsStalledJob(t *testing.T) {
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	defer sched.Shutdown()
	j, release := startBlockedJob(t, sched)
	defer close(release)

	// A clock an hour ahead makes any real activity look ancient.
	w := NewWatchdog(sched, WatchdogConfig{
		Window: 2 * time.Minute,
		Clock:  func() time.Time { return time.Now().Add(time.Hour) },
	})
	var observed *jobs.Job
	w.cfg.OnStall = func(j *jobs.Job) { observed = j }

	if got := w.Sweep(); got != 1 {
		t.Fatalf("first sweep flagged %d, want 1", got)
	}
	if !j.Stalled() {
		t.Fatal("job not marked stalled")
	}
	if observed != j {
		t.Fatal("OnStall saw a different job")
	}
	if w.Stalled() != 1 || w.Cancelled() != 0 {
		t.Fatalf("counters: stalled %d cancelled %d", w.Stalled(), w.Cancelled())
	}
	// The stalled event reached the job's feed.
	events, _ := j.Events.Since(0)
	found := false
	for _, e := range events {
		if e.Type == jobs.EventStalled {
			found = true
		}
	}
	if !found {
		t.Fatal("no stalled event on the job feed")
	}
	// Already flagged: a second sweep is a no-op.
	if got := w.Sweep(); got != 0 {
		t.Fatalf("second sweep flagged %d, want 0", got)
	}

	// Fresh progress clears the flag; the job can be flagged again.
	j.SetProgress("epoch", 0.5)
	if j.Stalled() {
		t.Fatal("progress did not clear the stalled flag")
	}
	if got := w.Sweep(); got != 1 {
		t.Fatalf("sweep after progress flagged %d, want 1", got)
	}
}

func TestWatchdogSkipsActiveAndFinishedJobs(t *testing.T) {
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	defer sched.Shutdown()
	j, release := startBlockedJob(t, sched)

	// Within the window: nothing flagged.
	w := NewWatchdog(sched, WatchdogConfig{Window: time.Hour})
	if got := w.Sweep(); got != 0 {
		t.Fatalf("active job flagged: %d", got)
	}

	close(release)
	<-j.Done()
	// Terminal jobs are never flagged, no matter how old.
	w2 := NewWatchdog(sched, WatchdogConfig{
		Window: time.Nanosecond,
		Clock:  func() time.Time { return time.Now().Add(time.Hour) },
	})
	if got := w2.Sweep(); got != 0 {
		t.Fatalf("finished job flagged: %d", got)
	}
}

func TestWatchdogCancelOptIn(t *testing.T) {
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	defer sched.Shutdown()
	j, release := startBlockedJob(t, sched)
	defer close(release)

	w := NewWatchdog(sched, WatchdogConfig{
		Window: time.Minute,
		Cancel: true,
		Clock:  func() time.Time { return time.Now().Add(time.Hour) },
	})
	if got := w.Sweep(); got != 1 {
		t.Fatalf("sweep flagged %d", got)
	}
	if w.Cancelled() != 1 {
		t.Fatalf("cancelled counter %d, want 1", w.Cancelled())
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job never reached a terminal state")
	}
	if j.Status() != jobs.Cancelled {
		t.Fatalf("status %s, want cancelled", j.Status())
	}
}

func TestWatchdogStartStopIdempotent(t *testing.T) {
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 1})
	defer sched.Shutdown()

	// Stop without Start must not hang.
	w := NewWatchdog(sched, WatchdogConfig{})
	w.Stop()
	w.Stop()

	w2 := NewWatchdog(sched, WatchdogConfig{Window: time.Hour, Poll: time.Millisecond})
	w2.Start()
	w2.Start()
	// The loop must really run: wait for its ticker's first two sweeps.
	deadline := time.Now().Add(5 * time.Second)
	for w2.sweeps.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sweeps 5s after Start", w2.sweeps.Load())
		}
		runtime.Gosched()
	}
	w2.Stop()
	w2.Stop()
}

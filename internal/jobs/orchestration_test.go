package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"edgepulse/internal/eventlog"
)

// gatedScheduler starts a 1-worker scheduler whose worker is pinned on
// a blocker job, so subsequent submissions queue up deterministically.
// Returns the scheduler and the release for the blocker.
func gatedScheduler(t *testing.T) (*Scheduler, chan struct{}) {
	t.Helper()
	s := NewScheduler(Config{MinWorkers: 1, MaxWorkers: 1, ScaleInterval: time.Hour})
	t.Cleanup(s.Shutdown)
	release := make(chan struct{})
	fn, started := blockingJob(release)
	if _, err := s.Submit("blocker", fn); err != nil {
		t.Fatal(err)
	}
	<-started
	return s, release
}

// runOrder submits jobs per spec behind a gate and returns the order in
// which their bodies executed.
func runOrder(t *testing.T, specs []SubmitOptions) []string {
	t.Helper()
	s, release := gatedScheduler(t)
	var mu sync.Mutex
	var order []string
	var jobs []*Job
	for i, opts := range specs {
		name := fmt.Sprintf("%s/%v/%d", opts.Kind, opts.Tag, i)
		j, err := s.SubmitJob(opts, func(ctx context.Context, j *Job) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	for _, j := range jobs {
		if _, err := s.Wait(j.ID, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return order
}

func TestPriorityClassesOrdering(t *testing.T) {
	// Submitted batch-first, but the single worker must drain the
	// classes strictly: interactive, then default, then batch.
	order := runOrder(t, []SubmitOptions{
		{Kind: "batch", Priority: PriorityBatch},
		{Kind: "batch", Priority: PriorityBatch},
		{Kind: "default", Priority: PriorityDefault},
		{Kind: "interactive", Priority: PriorityInteractive},
		{Kind: "interactive", Priority: PriorityInteractive},
	})
	want := []string{"interactive/<nil>/3", "interactive/<nil>/4", "default/<nil>/2", "batch/<nil>/0", "batch/<nil>/1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestFairnessRoundRobinAcrossTags(t *testing.T) {
	// Project A floods the queue before project B submits anything;
	// round-robin still alternates their jobs rather than draining A.
	var specs []SubmitOptions
	for i := 0; i < 4; i++ {
		specs = append(specs, SubmitOptions{Kind: "train", Tag: "A", Priority: PriorityDefault})
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, SubmitOptions{Kind: "train", Tag: "B", Priority: PriorityDefault})
	}
	order := runOrder(t, specs)
	for i, name := range order {
		wantTag := "A" // names are "train/<tag>/<i>"
		if i%2 == 1 {
			wantTag = "B"
		}
		if got := name[len("train/") : len("train/")+1]; got != wantTag {
			t.Fatalf("position %d ran %q, want tag %s (full order %v)", i, name, wantTag, order)
		}
	}
}

func TestPriorityString(t *testing.T) {
	for _, p := range []Priority{PriorityInteractive, PriorityDefault, PriorityBatch} {
		got, err := ParsePriority(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v %v", p, got, err)
		}
	}
	if p, err := ParsePriority(""); err != nil || p != PriorityDefault {
		t.Fatalf("empty priority: %v %v", p, err)
	}
	if _, err := ParsePriority("bogus"); err == nil {
		t.Fatal("accepted bogus priority")
	}
	if s := Priority(42).String(); s != "priority(42)" {
		t.Fatalf("out-of-range string %q", s)
	}
}

func TestCancelQueuedJobIsImmediate(t *testing.T) {
	s, release := gatedScheduler(t)
	j, err := s.Submit("doomed", func(ctx context.Context, j *Job) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	got, cancelled, err := s.Cancel(j.ID)
	if err != nil || !cancelled {
		t.Fatalf("cancel: %v cancelled=%v", err, cancelled)
	}
	// Terminal right away — no scheduler tick needed for queued jobs.
	if got.Status() != Cancelled {
		t.Fatalf("status %s", got.Status())
	}
	select {
	case <-got.Done():
	default:
		t.Fatal("done not closed after queued-cancel")
	}
	// Idempotent: a second cancel is a no-op.
	if _, again, _ := s.Cancel(j.ID); again {
		t.Fatal("second cancel reported initiation")
	}
	if _, _, err := s.Cancel("job-999"); err == nil {
		t.Fatal("cancel accepted unknown job")
	}
	if s.Metrics().CancelledN != 1 {
		t.Fatalf("cancelled count %d", s.Metrics().CancelledN)
	}
	// The cancelled job never runs even after the queue drains.
	close(release)
	events, _ := got.Events.Since(0)
	for _, e := range events {
		if e.Type == EventState && e.Status == Running {
			t.Fatal("cancelled-queued job ran")
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := NewScheduler(Config{MinWorkers: 1, MaxWorkers: 1, ScaleInterval: time.Hour})
	defer s.Shutdown()
	fn, started := blockingJob(nil) // releases only via ctx
	j, err := s.Submit("slow", fn)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	_, cancelled, err := s.Cancel(j.ID)
	if err != nil || !cancelled {
		t.Fatalf("cancel: %v %v", err, cancelled)
	}
	done, err := s.Wait(j.ID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status() != Cancelled {
		t.Fatalf("status %s", done.Status())
	}
	if done.Err() == "" {
		t.Fatal("no cancellation reason recorded")
	}
	// The event log ends with the cancelled state event.
	events, terminal := done.Events.Since(0)
	last := events[len(events)-1]
	if !terminal || last.Type != EventState || last.Status != Cancelled {
		t.Fatalf("last event %+v", last)
	}
}

func TestCancelRacingSuccessfulCompletionIsFinished(t *testing.T) {
	// A cancel that lands after the body's side effects committed (the
	// body returns nil) must not relabel the run as cancelled: the
	// result exists, so the job finalizes as finished.
	s := NewScheduler(Config{MinWorkers: 1, MaxWorkers: 1, ScaleInterval: time.Hour})
	defer s.Shutdown()
	started := make(chan struct{})
	proceed := make(chan struct{})
	j, err := s.Submit("train", func(ctx context.Context, j *Job) error {
		close(started)
		<-proceed // hold until the cancel has been requested
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, initiated, err := s.Cancel(j.ID); err != nil || !initiated {
		t.Fatalf("cancel: %v %v", err, initiated)
	}
	close(proceed)
	done, err := s.Wait(j.ID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status() != Finished || done.Err() != "" {
		t.Fatalf("status %s err %q, want finished", done.Status(), done.Err())
	}
	m := s.Metrics()
	if m.Completed != 1 || m.CancelledN != 0 {
		t.Fatalf("completed %d cancelled %d", m.Completed, m.CancelledN)
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	s := NewScheduler(Config{MinWorkers: 1, MaxWorkers: 1, ScaleInterval: time.Hour})
	defer s.Shutdown()
	attempts := 0
	j, err := s.SubmitJob(SubmitOptions{Kind: "flaky", Priority: PriorityDefault, MaxRetries: 3},
		func(ctx context.Context, j *Job) error {
			attempts++
			if attempts <= 2 {
				return Transient(fmt.Errorf("connection reset"))
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status() != Finished || attempts != 3 || done.Attempt() != 2 {
		t.Fatalf("status %s attempts %d attempt %d", done.Status(), attempts, done.Attempt())
	}
	if got := s.Metrics().Retries; got != 2 {
		t.Fatalf("retries %d", got)
	}
	// Done was closed exactly once, at the true end: the retry loop is
	// visible in the event log as running→queued transitions.
	var transitions []Status
	events, _ := done.Events.Since(0)
	for _, e := range events {
		if e.Type == EventState {
			transitions = append(transitions, e.Status)
		}
	}
	want := []Status{Queued, Running, Queued, Running, Queued, Running, Finished}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v", transitions)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	j, _ := s.SubmitJob(SubmitOptions{Kind: "flaky", Priority: PriorityDefault, MaxRetries: 1},
		func(ctx context.Context, j *Job) error {
			return Transient(errors.New("still broken"))
		})
	done, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status() != Failed || done.Attempt() != 1 {
		t.Fatalf("status %s attempt %d", done.Status(), done.Attempt())
	}
}

func TestNonTransientFailureNotRetried(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	attempts := 0
	j, _ := s.SubmitJob(SubmitOptions{Kind: "broken", Priority: PriorityDefault, MaxRetries: 5},
		func(ctx context.Context, j *Job) error {
			attempts++
			return errors.New("deterministic bug")
		})
	done, _ := s.Wait(j.ID, 5*time.Second)
	if done.Status() != Failed || attempts != 1 {
		t.Fatalf("status %s attempts %d", done.Status(), attempts)
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
	if IsTransient(errors.New("x")) {
		t.Fatal("plain error classified transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", Transient(errors.New("x")))) {
		t.Fatal("wrapped transient not detected")
	}
}

func TestPerTagQuota(t *testing.T) {
	s := NewScheduler(Config{MinWorkers: 1, MaxWorkers: 1, QueueSize: 16, MaxQueuedPerTag: 2, ScaleInterval: time.Hour})
	defer s.Shutdown()
	release := make(chan struct{})
	defer close(release)
	fn, started := blockingJob(release)
	if _, err := s.Submit("blocker", fn); err != nil {
		t.Fatal(err)
	}
	<-started
	body := func(ctx context.Context, j *Job) error { return nil }
	for i := 0; i < 2; i++ {
		if _, err := s.SubmitJob(SubmitOptions{Kind: "t", Tag: "greedy", Priority: PriorityDefault}, body); err != nil {
			t.Fatal(err)
		}
	}
	// The greedy tenant hit its quota; other tenants are unaffected.
	if _, err := s.SubmitJob(SubmitOptions{Kind: "t", Tag: "greedy", Priority: PriorityDefault}, body); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota breach: %v", err)
	}
	if _, err := s.SubmitJob(SubmitOptions{Kind: "t", Tag: "modest", Priority: PriorityDefault}, body); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	m := s.Metrics()
	if m.Queued != 3 || m.QueuedByPriority[PriorityDefault] != 3 {
		t.Fatalf("queue depth %d by-priority %v", m.Queued, m.QueuedByPriority)
	}
}

func TestProgressModel(t *testing.T) {
	s, release := gatedScheduler(t)
	progressed := make(chan struct{})
	j, err := s.Submit("train", func(ctx context.Context, j *Job) error {
		j.SetProgress("train", -5) // clamps to 0
		j.SetProgress("train", 50)
		j.SetProgress("train", 175) // clamps to 100
		close(progressed)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Queued jobs report empty progress.
	if stage, pct := j.Progress(); stage != "" || pct != 0 {
		t.Fatalf("initial progress %q %f", stage, pct)
	}
	close(release)
	<-progressed
	if _, err := s.Wait(j.ID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if stage, pct := j.Progress(); stage != "train" || pct != 100 {
		t.Fatalf("final progress %q %f", stage, pct)
	}
	events, _ := j.Events.Since(0)
	var pcts []float64
	for _, e := range events {
		if e.Type == EventProgress {
			pcts = append(pcts, e.Pct)
		}
	}
	if len(pcts) != 3 || pcts[0] != 0 || pcts[1] != 50 || pcts[2] != 100 {
		t.Fatalf("progress events %v", pcts)
	}
}

func TestSubscribeReplayAndLive(t *testing.T) {
	s, release := gatedScheduler(t)
	step := make(chan struct{})
	logged := make(chan struct{})
	j, err := s.Submit("train", func(ctx context.Context, j *Job) error {
		j.Logf("early line")
		close(logged)
		<-step
		j.SetProgress("late", 75)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	// Subscribe mid-run, once the first log line is provably emitted
	// (Logf returns before the body signals).
	<-logged
	events, _ := j.Events.Since(0)
	after := events[len(events)-1].Seq
	if events[len(events)-1].Type != EventLog {
		t.Fatalf("last event after Logf: %+v", events[len(events)-1])
	}
	replay, ch, cancel := j.Events.Subscribe(0)
	defer cancel()
	if len(replay) == 0 || replay[len(replay)-1].Seq != after {
		t.Fatalf("replay up to %d: %v", after, replay)
	}
	close(step)
	// Live events continue from the replay point, in order, and the
	// channel closes after the terminal event.
	var live []Event
	for e := range ch {
		live = append(live, e)
	}
	if len(live) < 2 {
		t.Fatalf("live events %v", live)
	}
	if live[0].Seq != after+1 {
		t.Fatalf("first live seq %d, want %d", live[0].Seq, after+1)
	}
	lastEvent := live[len(live)-1]
	if lastEvent.Type != EventState || lastEvent.Status != Finished {
		t.Fatalf("stream did not end with terminal event: %+v", lastEvent)
	}
	// Subscribing to a terminal job yields a full replay and a closed
	// channel.
	replay2, ch2, cancel2 := j.Events.Subscribe(after)
	defer cancel2()
	if _, open := <-ch2; open {
		t.Fatal("terminal subscription channel not closed")
	}
	if len(replay2) != len(live) {
		t.Fatalf("terminal replay %d events, want %d", len(replay2), len(live))
	}
	for i := range live {
		if replay2[i].Seq != live[i].Seq {
			t.Fatalf("resume mismatch at %d: %+v vs %+v", i, replay2[i], live[i])
		}
	}
}

func TestSubscribeCancelStopsDelivery(t *testing.T) {
	s, release := gatedScheduler(t)
	j, _ := s.Submit("train", func(ctx context.Context, j *Job) error { return nil })
	_, ch, cancel := j.Events.Subscribe(0)
	cancel()
	if _, open := <-ch; open {
		t.Fatal("cancelled subscription channel not closed")
	}
	close(release)
	if _, err := s.Wait(j.ID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSlowSubscriberDroppedNotBlocking(t *testing.T) {
	s, release := gatedScheduler(t)
	emitted := make(chan struct{})
	j, _ := s.Submit("chatty", func(ctx context.Context, j *Job) error {
		for i := 0; i < eventlog.Buffer+16; i++ {
			j.Logf("line %d", i)
		}
		close(emitted)
		return nil
	})
	_, ch, cancel := j.Events.Subscribe(0)
	defer cancel()
	close(release)
	<-emitted // the emitter never blocked on the un-drained subscriber
	if _, err := s.Wait(j.ID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// The overwhelmed channel was closed mid-stream; the consumer can
	// resume losslessly from the last seq it received.
	var last int64
	n := 0
	for e := range ch {
		last = e.Seq
		n++
	}
	if n == 0 || n >= eventlog.Buffer+16 {
		t.Fatalf("delivered %d events before drop", n)
	}
	resumed, terminal := j.Events.Since(last)
	if !terminal || len(resumed) == 0 {
		t.Fatalf("resume after drop: %d events terminal=%v", len(resumed), terminal)
	}
	if resumed[0].Seq != last+1 {
		t.Fatalf("resume gap: got %d after %d", resumed[0].Seq, last)
	}
}

func TestEventLogBounded(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Shutdown()
	j, _ := s.Submit("floody", func(ctx context.Context, j *Job) error {
		for i := 0; i < eventlog.Retain+100; i++ {
			j.Logf("line %d", i)
		}
		return nil
	})
	if _, err := s.Wait(j.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	events, _ := j.Events.Since(0)
	if len(events) > eventlog.Retain {
		t.Fatalf("retained %d events, cap %d", len(events), eventlog.Retain)
	}
	// Seq stays contiguous across the trimmed window, and the terminal
	// event is always retained.
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("seq gap inside retained window at %d", i)
		}
	}
	lastEvent := events[len(events)-1]
	if lastEvent.Type != EventState || lastEvent.Status != Finished {
		t.Fatalf("terminal event trimmed: %+v", lastEvent)
	}
}

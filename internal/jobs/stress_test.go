package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressMixedPrioritiesWithCancellationStorm runs N projects × M
// mixed-priority jobs through a small pool while a concurrent storm
// cancels a third of them mid-flight. It asserts the invariants the
// orchestration layer promises: every job (cancelled or not) reaches a
// terminal state, cancelled jobs never complete afterwards, the
// scheduler retains no more than its job cap, and no evicted job's
// result stays reachable. Run under -race in CI.
func TestStressMixedPrioritiesWithCancellationStorm(t *testing.T) {
	const (
		projects   = 4
		perProject = 25
		retained   = 32
	)
	s := NewScheduler(Config{
		MinWorkers: 2, MaxWorkers: 4,
		QueueSize:       projects * perProject,
		MaxRetainedJobs: retained,
	})
	defer s.Shutdown()

	// A third of the jobs (chosen up front) are storm targets: their
	// bodies block until their context is cancelled, so the storm
	// provably lands mid-flight regardless of machine load; the rest
	// do a sliver of work with occasional transient failures to keep
	// the retry path exercised under the same churn.
	rng := rand.New(rand.NewSource(7))
	prios := []Priority{PriorityInteractive, PriorityDefault, PriorityBatch}
	var jobs, cancelTargets []*Job
	var bodiesCompleted atomic.Int64
	for p := 0; p < projects; p++ {
		for i := 0; i < perProject; i++ {
			opts := SubmitOptions{
				Kind:       "stress",
				Tag:        fmt.Sprintf("project-%d", p),
				Priority:   prios[(p+i)%len(prios)],
				MaxRetries: 1,
			}
			target := rng.Intn(3) == 0
			var body JobFunc
			if target {
				body = func(ctx context.Context, j *Job) error {
					j.SetProgress("work", 10)
					<-ctx.Done() // only cancellation releases this job
					return ctx.Err()
				}
			} else {
				body = func(ctx context.Context, j *Job) error {
					j.SetProgress("work", 10)
					if j.Attempt() == 0 && len(j.ID)%7 == 0 {
						return Transient(errors.New("flaky backend"))
					}
					j.SetProgress("work", 100)
					j.SetResult(j.ID)
					bodiesCompleted.Add(1)
					return nil
				}
			}
			j, err := s.SubmitJob(opts, body)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
			if target {
				cancelTargets = append(cancelTargets, j)
			}
		}
	}

	// Cancellation storm from multiple goroutines, mid-flight.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cancelTargets); i += 4 {
				s.Cancel(cancelTargets[i].ID)
			}
		}(w)
	}
	wg.Wait()

	// Every job — cancelled, retried or plain — reaches a terminal
	// state; a cancelled-while-queued job must get there within one
	// scheduler pass, which the bounded wait below enforces globally.
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s never terminal (status %s)", j.ID, j.Status())
		}
		if st := j.Status(); !st.Terminal() {
			t.Fatalf("job %s done with non-terminal state %s", j.ID, st)
		}
	}
	// Every storm target reached cancelled — whether it was hit while
	// queued (instant) or running (context observed).
	for _, j := range cancelTargets {
		if st := j.Status(); st != Cancelled {
			t.Fatalf("cancel target %s ended as %s", j.ID, st)
		}
	}
	m := s.Metrics()
	if m.Queued != 0 {
		t.Fatalf("queue not drained: %d", m.Queued)
	}
	if m.CancelledN != int64(len(cancelTargets)) {
		t.Fatalf("cancelled %d, want %d targets", m.CancelledN, len(cancelTargets))
	}
	if total := m.Completed + m.FailedN + m.CancelledN; total != projects*perProject {
		t.Fatalf("terminal accounting %d, want %d (completed=%d failed=%d cancelled=%d)",
			total, projects*perProject, m.Completed, m.FailedN, m.CancelledN)
	}
	// No leaks: the retention cap holds, and a result is reachable
	// only through a retained job, the one that set it.
	if n := len(s.List()); n > retained {
		t.Fatalf("scheduler retains %d jobs, cap %d", n, retained)
	}
	reachable := 0
	for _, j := range jobs {
		got, err := s.Get(j.ID)
		if err != nil {
			continue // evicted, and its result with it
		}
		if res := got.Result(); res != nil {
			reachable++
			if res != j.ID {
				t.Fatalf("job %s holds result %v", j.ID, res)
			}
		} else if got.Status() == Finished {
			t.Fatalf("retained job %s finished without its result", j.ID)
		}
	}
	if reachable > retained {
		t.Fatalf("%d results reachable for %d retained jobs", reachable, retained)
	}
}

// TestFairnessBoundTwoProjects is the acceptance bound: two projects
// submit 50 equal-priority jobs each, and at no point may one project's
// completion count trail the other's by more than the worker-pool size.
func TestFairnessBoundTwoProjects(t *testing.T) {
	const (
		perProject = 50
		workers    = 4
	)
	s := NewScheduler(Config{
		MinWorkers: workers, MaxWorkers: workers,
		QueueSize: 2*perProject + workers,
	})
	defer s.Shutdown()

	// Pin every worker on a gate so the full 100-job backlog is queued
	// before any fairness-relevant pop happens.
	gate := make(chan struct{})
	var gateStarted sync.WaitGroup
	gateStarted.Add(workers)
	for i := 0; i < workers; i++ {
		var once sync.Once
		if _, err := s.Submit("gate", func(ctx context.Context, j *Job) error {
			once.Do(gateStarted.Done)
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	gateStarted.Wait()

	var mu sync.Mutex
	counts := map[string]int{}
	var maxSkew int
	var jobs []*Job
	for i := 0; i < perProject; i++ {
		for _, project := range []string{"A", "B"} {
			project := project
			j, err := s.SubmitJob(SubmitOptions{Kind: "fair", Tag: project, Priority: PriorityDefault},
				func(ctx context.Context, j *Job) error {
					mu.Lock()
					counts[project]++
					skew := counts["A"] - counts["B"]
					if skew < 0 {
						skew = -skew
					}
					if skew > maxSkew {
						maxSkew = skew
					}
					mu.Unlock()
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	close(gate)
	for _, j := range jobs {
		if _, err := s.Wait(j.ID, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["A"] != perProject || counts["B"] != perProject {
		t.Fatalf("completions A=%d B=%d", counts["A"], counts["B"])
	}
	if maxSkew > workers {
		t.Fatalf("fairness violated: completion skew reached %d with a %d-worker pool", maxSkew, workers)
	}
}

package resilience

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"edgepulse/internal/jobs"
)

// WatchdogConfig tunes the stuck-job monitor.
type WatchdogConfig struct {
	// Window is how long a running job may go without emitting any
	// event (progress, log, state) before it is flagged as stalled
	// (default 2m).
	Window time.Duration
	// Poll is the sweep period (default Window/4).
	Poll time.Duration
	// Cancel opts into cancelling stalled jobs through the scheduler's
	// cooperative-cancel path; by default the watchdog only flags them.
	Cancel bool
	// Clock substitutes the time source (tests).
	Clock func() time.Time
	// OnStall, when set, observes each newly flagged job (logging).
	OnStall func(j *jobs.Job)
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Window <= 0 {
		c.Window = 2 * time.Minute
	}
	if c.Poll <= 0 {
		c.Poll = c.Window / 4
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Watchdog periodically sweeps the scheduler for running jobs whose
// event stream has gone silent past the window, emits a stalled event on
// each (visible to every live event-feed subscriber), and — when opted
// in — cancels them cooperatively. A job that resumes emitting progress
// clears its stalled flag and can be flagged again later.
type Watchdog struct {
	sched *jobs.Scheduler
	cfg   WatchdogConfig

	stalled   atomic.Int64
	cancelled atomic.Int64
	sweeps    atomic.Int64 // completed Sweep calls, so tests can wait on one

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewWatchdog builds a watchdog over the scheduler (not yet running).
func NewWatchdog(sched *jobs.Scheduler, cfg WatchdogConfig) *Watchdog {
	return &Watchdog{
		sched: sched,
		cfg:   cfg.withDefaults(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the sweep loop (idempotent).
func (w *Watchdog) Start() {
	w.startOnce.Do(func() {
		go func() {
			defer close(w.done)
			ticker := time.NewTicker(w.cfg.Poll)
			defer ticker.Stop()
			for {
				select {
				case <-w.stop:
					return
				case <-ticker.C:
					w.Sweep()
				}
			}
		}()
	})
}

// Stop ends the sweep loop and waits for it to exit (idempotent; safe
// even if Start was never called).
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.startOnce.Do(func() { close(w.done) }) // never started: unblock Stop
	<-w.done
}

// Sweep runs one pass over the scheduler's jobs, returning how many were
// newly flagged as stalled. Exported so tests (and callers without the
// background loop) can drive it deterministically.
func (w *Watchdog) Sweep() int {
	now := w.cfg.Clock()
	flagged := 0
	for _, j := range w.sched.List() {
		if j == nil || j.Status() != jobs.Running {
			continue
		}
		idle := now.Sub(j.LastActivity())
		if idle < w.cfg.Window {
			continue
		}
		if !j.MarkStalled(fmt.Sprintf("no progress for %s (window %s)",
			idle.Round(time.Second), w.cfg.Window)) {
			continue // already flagged, or finished while sweeping
		}
		flagged++
		w.stalled.Add(1)
		if w.cfg.OnStall != nil {
			w.cfg.OnStall(j)
		}
		if w.cfg.Cancel {
			if _, ok, err := w.sched.Cancel(j.ID); err == nil && ok {
				w.cancelled.Add(1)
			}
		}
	}
	w.sweeps.Add(1)
	return flagged
}

// Stalled counts stalled flags raised over the watchdog's lifetime.
func (w *Watchdog) Stalled() int64 { return w.stalled.Load() }

// Cancelled counts jobs the watchdog cancelled (Cancel opt-in only).
func (w *Watchdog) Cancelled() int64 { return w.cancelled.Load() }

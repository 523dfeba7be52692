// Package faults is a build-tag-free fault-injection registry: packages
// on critical paths (store writes, job execution, stream ingest) declare
// named fault points with Inject, and chaos tests arm them with Arm to
// force errors or latency exactly where production code would fail. A
// disarmed registry costs one atomic load per Inject call, so the hooks
// stay compiled into release binaries without measurable overhead.
package faults

import (
	"sync"
	"sync/atomic"
	"time"
)

// armedCount tracks how many points are currently armed. Inject reads it
// lock-free; the slow path is taken only while a chaos test is running.
var armedCount atomic.Int64

var (
	mu     sync.Mutex
	points = map[string]*point{}
)

type point struct {
	err error
	// remaining is how many more injections fire (-1 = until disarmed).
	remaining int64
	delay     time.Duration
	hits      int64
}

// Option tunes an armed fault point.
type Option func(*point)

// Times limits the fault to fire on the next n Inject calls; afterwards
// the point behaves as disarmed until re-armed. Default: unlimited.
func Times(n int64) Option {
	return func(p *point) { p.remaining = n }
}

// Delay makes each injection sleep before returning its error — the
// slow-disk / network-stall flavor of fault.
func Delay(d time.Duration) Option {
	return func(p *point) { p.delay = d }
}

// Arm activates the named fault point: subsequent Inject(name) calls
// return err (after an optional delay). It returns a disarm func that is
// safe to call multiple times; tests should defer it.
func Arm(name string, err error, opts ...Option) (disarm func()) {
	p := &point{err: err, remaining: -1}
	for _, opt := range opts {
		opt(p)
	}
	mu.Lock()
	if _, exists := points[name]; !exists {
		armedCount.Add(1)
	}
	points[name] = p
	mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			if points[name] == p {
				delete(points, name)
				armedCount.Add(-1)
			}
			mu.Unlock()
		})
	}
}

// Inject fires the named fault point: it returns nil when the point is
// disarmed (the fast path, one atomic load) and the armed error
// otherwise, sleeping first when a Delay was configured.
func Inject(name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if !ok || p.remaining == 0 {
		mu.Unlock()
		return nil
	}
	if p.remaining > 0 {
		p.remaining--
	}
	p.hits++
	err, delay := p.err, p.delay
	mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// hits reports how many times the named point has fired since it was
// last armed (0 when never armed).
func hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}

// Reset disarms every fault point — a test-teardown safety net.
func Reset() {
	mu.Lock()
	armedCount.Add(-int64(len(points)))
	points = map[string]*point{}
	mu.Unlock()
}

// Package resilience is the daemon-wide robustness layer: priority-aware
// admission control (Gate), readiness probing (Health), a stuck-job
// watchdog (Watchdog), and the client-side retry delay (Backoff, a
// jittered exponential backoff) so overload is shed server-side without
// clients retrying in lockstep.
package resilience

import (
	"math/rand"
	"time"
)

// Backoff is a jittered exponential retry-delay policy: attempt 0 waits
// about Base, each later attempt doubles, capped at Max. Jitter spreads
// each delay uniformly over [1-Jitter/2, 1+Jitter/2]× so a fleet of
// clients rejected together does not retry in lockstep.
type Backoff struct {
	// Base is the attempt-0 delay (default 100ms).
	Base time.Duration
	// Max caps the delay (default 2s).
	Max time.Duration
	// Jitter is the randomized fraction of each delay. 0 selects
	// DefaultJitter; negative disables jitter (deterministic delays).
	Jitter float64

	// Rand substitutes the uniform [0,1) source (tests); nil uses the
	// shared math/rand source.
	Rand func() float64
}

// DefaultJitter is the randomized delay fraction when Jitter is unset.
const DefaultJitter = 0.2

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	if attempt < 0 {
		attempt = 0
	}
	// Cap the exponent so the shift cannot overflow into a negative
	// duration (zero-delay hammering).
	if attempt > 30 {
		attempt = 30
	}
	d := base << attempt
	if d <= 0 || d > max {
		d = max
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = DefaultJitter
	}
	if jitter > 0 {
		if jitter > 1 {
			jitter = 1
		}
		r := rand.Float64
		if b.Rand != nil {
			r = b.Rand
		}
		d = time.Duration(float64(d) * (1 - jitter/2 + jitter*r()))
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

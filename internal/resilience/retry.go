// Package resilience is the daemon-wide robustness layer: priority-aware
// admission control (Gate), readiness probing (Health), a stuck-job
// watchdog (Watchdog), and the client-side retry delay (BackoffDelay, a
// jittered exponential backoff) so overload is shed server-side without
// clients retrying in lockstep.
package resilience

import (
	"math/rand"
	"time"
)

// The client-side retry schedule: attempt 0 waits about backoffBase,
// each later attempt doubles, capped at backoffMax, and every delay is
// spread uniformly over [1-backoffJitter/2, 1+backoffJitter/2]× so a
// fleet of clients rejected together does not retry in lockstep.
const (
	backoffBase   = 100 * time.Millisecond
	backoffMax    = 2 * time.Second
	backoffJitter = 0.2
)

// BackoffDelay returns the wait before retry number attempt (0-based).
func BackoffDelay(attempt int) time.Duration { return backoffDelay(attempt, rand.Float64) }

// backoffDelay is BackoffDelay drawing its jitter from r, a uniform
// [0,1) source.
func backoffDelay(attempt int, r func() float64) time.Duration {
	// Clamp the exponent so the shift cannot overflow into a negative
	// duration (zero-delay hammering).
	d := min(backoffBase<<min(max(attempt, 0), 30), backoffMax)
	return time.Duration(float64(d) * (1 - backoffJitter/2 + backoffJitter*r()))
}

package resilience

import (
	"testing"
	"time"
)

func TestBackoffDeterministic(t *testing.T) {
	// r = 0.5 lands each delay on the middle of its jitter band.
	mid := func() float64 { return 0.5 }
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	}
	for attempt, w := range want {
		if got := backoffDelay(attempt, mid); got != w {
			t.Fatalf("attempt %d: %s, want %s", attempt, got, w)
		}
	}
	// Negative attempts clamp to 0; absurd attempts clamp to the max
	// instead of overflowing into a negative (zero-delay) duration.
	if got := backoffDelay(-3, mid); got != backoffBase {
		t.Fatalf("attempt -3: %s", got)
	}
	for _, attempt := range []int{31, 63, 64, 1 << 20} {
		if got := backoffDelay(attempt, mid); got != backoffMax {
			t.Fatalf("attempt %d: %s", attempt, got)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// With r=0 the delay is (1-backoffJitter/2)×; with r→1 it approaches
	// (1+backoffJitter/2)×.
	low := func() float64 { return 0 }
	high := func() float64 { return 1 }
	if got := backoffDelay(0, low); got != 90*time.Millisecond {
		t.Fatalf("low jitter bound: %s", got)
	}
	if got := backoffDelay(0, high); got != 110*time.Millisecond {
		t.Fatalf("high jitter bound: %s", got)
	}
	if got := backoffDelay(100, high); got != 2200*time.Millisecond {
		t.Fatalf("high jitter bound at the cap: %s", got)
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	// The default schedule on the shared random source stays inside the
	// jittered band at attempt 0 and at the cap.
	for i := 0; i < 100; i++ {
		if d := BackoffDelay(0); d < 90*time.Millisecond || d > 110*time.Millisecond {
			t.Fatalf("delay %s outside jittered 100ms band", d)
		}
		if d := BackoffDelay(100); d < 1800*time.Millisecond || d > 2200*time.Millisecond {
			t.Fatalf("max delay %s outside jittered 2s band", d)
		}
	}
}

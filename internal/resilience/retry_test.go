package resilience

import (
	"testing"
	"time"
)

func TestBackoffDeterministic(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: -1}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	}
	for attempt, w := range want {
		if got := b.Delay(attempt); got != w {
			t.Fatalf("attempt %d: %s, want %s", attempt, got, w)
		}
	}
	// Negative attempts clamp to 0; absurd attempts clamp to the max
	// instead of overflowing into a negative (zero-delay) duration.
	if got := b.Delay(-3); got != 100*time.Millisecond {
		t.Fatalf("attempt -3: %s", got)
	}
	if got := b.Delay(1 << 20); got != 2*time.Second {
		t.Fatalf("huge attempt: %s", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// With r=0 the delay is (1-Jitter/2)×; with r→1 it approaches
	// (1+Jitter/2)×.
	b := Backoff{Base: time.Second, Max: time.Minute, Jitter: 0.5, Rand: func() float64 { return 0 }}
	if got := b.Delay(0); got != 750*time.Millisecond {
		t.Fatalf("low jitter bound: %s", got)
	}
	b.Rand = func() float64 { return 1 }
	if got := b.Delay(0); got != 1250*time.Millisecond {
		t.Fatalf("high jitter bound: %s", got)
	}
	// Jitter 0 selects the default fraction, not determinism.
	b = Backoff{Base: time.Second, Max: time.Minute, Rand: func() float64 { return 0 }}
	if got := b.Delay(0); got != 900*time.Millisecond {
		t.Fatalf("default jitter low bound: %s, want 900ms", got)
	}
	// Jitter > 1 clamps to 1.
	b = Backoff{Base: time.Second, Max: time.Minute, Jitter: 5, Rand: func() float64 { return 0 }}
	if got := b.Delay(0); got != 500*time.Millisecond {
		t.Fatalf("clamped jitter low bound: %s", got)
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	d := b.Delay(0)
	if d < 90*time.Millisecond || d > 110*time.Millisecond {
		t.Fatalf("zero-value delay %s outside jittered 100ms band", d)
	}
	if d := b.Delay(100); d > 2200*time.Millisecond {
		t.Fatalf("zero-value max delay %s", d)
	}
}

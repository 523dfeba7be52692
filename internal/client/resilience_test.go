package client

import (
	"testing"
	"time"
)

func TestRetryDelayHonorsRetryAfter(t *testing.T) {
	if d := RetryDelay(0, &APIError{RetryAfter: 3 * time.Second}); d != 3*time.Second {
		t.Fatalf("Retry-After 3s: got %s", d)
	}
	// A misconfigured header is capped so the client cannot be stalled.
	if d := RetryDelay(0, &APIError{RetryAfter: time.Hour}); d != 5*time.Second {
		t.Fatalf("capped Retry-After: got %s", d)
	}
	// Without a server hint the shared jittered schedule applies.
	d := RetryDelay(0, nil)
	if d < 80*time.Millisecond || d > 120*time.Millisecond {
		t.Fatalf("attempt 0 delay %s outside jittered 100ms band", d)
	}
	if d := RetryDelay(10, &APIError{}); d > 2200*time.Millisecond {
		t.Fatalf("delay %s above jittered cap", d)
	}
}

package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedInjectIsNil(t *testing.T) {
	if err := Inject("nope"); err != nil {
		t.Fatalf("disarmed point injected: %v", err)
	}
}

func TestArmAndDisarm(t *testing.T) {
	boom := errors.New("boom")
	disarm := Arm("t.point", boom)
	if err := Inject("t.point"); !errors.Is(err, boom) {
		t.Fatalf("armed point returned %v", err)
	}
	if got := hits("t.point"); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	disarm()
	disarm() // idempotent
	if err := Inject("t.point"); err != nil {
		t.Fatalf("disarmed point injected: %v", err)
	}
	if armedCount.Load() != 0 {
		t.Fatalf("armedCount = %d after disarm", armedCount.Load())
	}
}

func TestTimesBoundsInjections(t *testing.T) {
	boom := errors.New("boom")
	defer Arm("t.times", boom, Times(2))()
	for i := 0; i < 2; i++ {
		if err := Inject("t.times"); !errors.Is(err, boom) {
			t.Fatalf("injection %d: %v", i, err)
		}
	}
	if err := Inject("t.times"); err != nil {
		t.Fatalf("exhausted point injected: %v", err)
	}
	if got := hits("t.times"); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
}

func TestDelaySleepsBeforeError(t *testing.T) {
	boom := errors.New("slow boom")
	defer Arm("t.delay", boom, Delay(20*time.Millisecond), Times(1))()
	start := time.Now()
	if err := Inject("t.delay"); !errors.Is(err, boom) {
		t.Fatalf("injection: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delay not applied: %v", d)
	}
}

func TestRearmReplacesPoint(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	d1 := Arm("t.rearm", first)
	d2 := Arm("t.rearm", second)
	if err := Inject("t.rearm"); !errors.Is(err, second) {
		t.Fatalf("re-armed point returned %v", err)
	}
	d1() // stale disarm must not remove the newer registration
	if err := Inject("t.rearm"); !errors.Is(err, second) {
		t.Fatalf("stale disarm removed the point: %v", err)
	}
	d2()
	if armedCount.Load() != 0 {
		t.Fatalf("armedCount = %d, want 0", armedCount.Load())
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	Arm("t.r1", errors.New("a"))
	Arm("t.r2", errors.New("b"))
	Reset()
	if err := Inject("t.r1"); err != nil {
		t.Fatalf("reset point injected: %v", err)
	}
	if armedCount.Load() != 0 {
		t.Fatalf("armedCount = %d after reset", armedCount.Load())
	}
}

func TestConcurrentInject(t *testing.T) {
	boom := errors.New("boom")
	defer Arm("t.conc", boom, Times(100))()
	var wg sync.WaitGroup
	var fired sync.Map
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			n := 0
			for j := 0; j < 50; j++ {
				if Inject("t.conc") != nil {
					n++
				}
			}
			fired.Store(id, n)
		}(i)
	}
	wg.Wait()
	total := 0
	fired.Range(func(_, v any) bool { total += v.(int); return true })
	if total != 100 {
		t.Fatalf("fired %d times, want exactly 100", total)
	}
}

package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestLoadScoreTakesMaxDimension(t *testing.T) {
	l := Load{
		Inflight: 10, InflightCap: 100, // 0.10
		QueueDepth: 9, QueueCap: 10, // 0.90
		Sessions: 1, SessionCap: 4, // 0.25
		HeapBytes: 50, HeapLimit: 100, // 0.50
	}
	if got := l.Score(); got != 0.90 {
		t.Fatalf("score %v, want 0.90", got)
	}
	// A zero capacity removes the dimension entirely.
	l.QueueCap = 0
	if got := l.Score(); got != 0.50 {
		t.Fatalf("score with queue dimension removed: %v, want 0.50", got)
	}
}

func TestClassAndLevelStrings(t *testing.T) {
	for in, want := range map[string]string{
		ClassInteractive.String(): "interactive",
		ClassDefault.String():     "default",
		ClassBatch.String():       "batch",
		Class(9).String():         "class(9)",
		LevelNormal.String():      "normal",
		LevelShedBatch.String():   "shed-batch",
		LevelShedDefault.String(): "shed-default",
	} {
		if in != want {
			t.Fatalf("got %q, want %q", in, want)
		}
	}
}

// gateWithScore builds a gate whose external load score is driven by a
// settable variable, sampled on every refresh.
func gateWithScore(clk *fakeClock, score *float64, mu *sync.Mutex) *Gate {
	return NewGate(GateConfig{
		MaxInflight:  100,
		SamplePeriod: time.Nanosecond,
		Clock:        clk.Now,
		Sample: func() Load {
			mu.Lock()
			defer mu.Unlock()
			return Load{QueueDepth: int(*score * 1000), QueueCap: 1000}
		},
	})
}

func TestGateShedsBatchThenDefaultNeverInteractive(t *testing.T) {
	clk := newFakeClock()
	var mu sync.Mutex
	score := 0.0
	set := func(v float64) {
		mu.Lock()
		score = v
		mu.Unlock()
		clk.Advance(time.Second) // expire the sample cache
	}
	g := gateWithScore(clk, &score, &mu)

	// Normal: everything admitted.
	for _, cls := range []Class{ClassInteractive, ClassDefault, ClassBatch} {
		release, err := g.Acquire(cls)
		if err != nil {
			t.Fatalf("normal load, class %s: %v", cls, err)
		}
		release()
	}

	// Past the batch threshold: batch shed, default and interactive pass.
	set(0.80)
	if _, err := g.Acquire(ClassBatch); err == nil {
		t.Fatal("batch admitted at score 0.80")
	}
	release, err := g.Acquire(ClassDefault)
	if err != nil {
		t.Fatalf("default at score 0.80: %v", err)
	}
	release()

	// Past the default threshold: only interactive passes.
	set(0.95)
	if _, err := g.Acquire(ClassDefault); err == nil {
		t.Fatal("default admitted at score 0.95")
	}
	var shed *ShedError
	_, err = g.Acquire(ClassBatch)
	if !errors.As(err, &shed) {
		t.Fatalf("want *ShedError, got %v", err)
	}
	if shed.Class != ClassBatch || shed.Level != LevelShedDefault || shed.RetryAfter != 5*time.Second {
		t.Fatalf("shed error: %+v", shed)
	}
	if shed.Error() == "" {
		t.Fatal("empty shed error text")
	}
	release, err = g.Acquire(ClassInteractive)
	if err != nil {
		t.Fatalf("interactive at score 0.95: %v", err)
	}
	release()
}

func TestGateHysteresis(t *testing.T) {
	clk := newFakeClock()
	var mu sync.Mutex
	score := 0.0
	set := func(v float64) {
		mu.Lock()
		score = v
		mu.Unlock()
		clk.Advance(time.Second)
	}
	g := gateWithScore(clk, &score, &mu)

	set(0.80)
	if lvl := g.Level(); lvl != LevelShedBatch {
		t.Fatalf("level at 0.80: %s", lvl)
	}
	// Dropping just below the threshold is not enough to de-escalate...
	set(0.70)
	if lvl := g.Level(); lvl != LevelShedBatch {
		t.Fatalf("level at 0.70 (within hysteresis band): %s", lvl)
	}
	// ...but dropping below threshold-Release is.
	set(0.60)
	if lvl := g.Level(); lvl != LevelNormal {
		t.Fatalf("level at 0.60: %s", lvl)
	}

	// Escalation to shed-default is immediate, recovery steps down.
	set(0.95)
	if lvl := g.Level(); lvl != LevelShedDefault {
		t.Fatalf("level at 0.95: %s", lvl)
	}
	// 0.85 sits inside shed-default's hysteresis band (0.90-0.10).
	set(0.85)
	if lvl := g.Level(); lvl != LevelShedDefault {
		t.Fatalf("level at 0.85 (within hysteresis band): %s", lvl)
	}
	set(0.78)
	if lvl := g.Level(); lvl != LevelShedBatch {
		t.Fatalf("level at 0.78: %s", lvl)
	}
	set(0.0)
	if lvl := g.Level(); lvl != LevelNormal {
		t.Fatalf("level at 0.0: %s", lvl)
	}
}

func TestGateHardInflightBound(t *testing.T) {
	g := NewGate(GateConfig{MaxInflight: 2, SamplePeriod: time.Nanosecond})
	r1, err := g.Acquire(ClassDefault)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Acquire(ClassDefault)
	if err != nil {
		t.Fatal(err)
	}
	// At the bound: non-interactive sheds regardless of score...
	if _, err := g.Acquire(ClassDefault); err == nil {
		t.Fatal("default admitted beyond MaxInflight")
	}
	// ...while interactive still passes.
	r3, err := g.Acquire(ClassInteractive)
	if err != nil {
		t.Fatalf("interactive at the inflight bound: %v", err)
	}
	r3()
	r1()
	// Release is idempotent: double-invoking must not free a second slot.
	r1()
	r4, err := g.Acquire(ClassDefault)
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	if _, err := g.Acquire(ClassDefault); err == nil {
		t.Fatal("double release freed two slots")
	}
	r4()
	r2()
}

func TestGateSamplePeriodCachesLoad(t *testing.T) {
	clk := newFakeClock()
	calls := 0
	g := NewGate(GateConfig{
		MaxInflight:  100,
		SamplePeriod: 100 * time.Millisecond,
		Clock:        clk.Now,
		Sample:       func() Load { calls++; return Load{} },
	})
	for i := 0; i < 5; i++ {
		release, err := g.Acquire(ClassDefault)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if calls != 1 {
		t.Fatalf("sampler ran %d times within one period, want 1", calls)
	}
	clk.Advance(time.Second)
	g.Level()
	if calls != 2 {
		t.Fatalf("sampler ran %d times after period elapsed, want 2", calls)
	}
}

func TestGateUnknownClassTreatedAsDefault(t *testing.T) {
	g := NewGate(GateConfig{MaxInflight: 1, SamplePeriod: time.Nanosecond})
	release, err := g.Acquire(Class(42))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := g.Acquire(Class(-1)); err == nil {
		t.Fatal("out-of-range class admitted past the inflight bound")
	}
}

func TestGateMetrics(t *testing.T) {
	clk := newFakeClock()
	var mu sync.Mutex
	score := 0.0
	g := gateWithScore(clk, &score, &mu)
	release, _ := g.Acquire(ClassInteractive)
	defer release()
	mu.Lock()
	score = 0.80
	mu.Unlock()
	clk.Advance(time.Second)
	if _, err := g.Acquire(ClassBatch); err == nil {
		t.Fatal("batch admitted at 0.80")
	}
	m := g.Metrics()
	if m.Level != "shed-batch" {
		t.Fatalf("level %q", m.Level)
	}
	if m.Inflight != 1 {
		t.Fatalf("inflight %d", m.Inflight)
	}
	if m.Shed["batch"] != 1 {
		t.Fatalf("counters: %+v", m)
	}
	if m.Score < 0.75 {
		t.Fatalf("score %v", m.Score)
	}
}

// TestGateAdmitReleaseDoNotAllocate: the server's path through the gate,
// an admission and its release, allocates nothing.
func TestGateAdmitReleaseDoNotAllocate(t *testing.T) {
	g := NewGate(GateConfig{})
	allocs := testing.AllocsPerRun(100, func() {
		if err := g.Admit(ClassDefault); err != nil {
			t.Fatal(err)
		}
		g.Release()
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per admission", allocs)
	}
	if m := g.Metrics(); m.Inflight != 0 {
		t.Fatalf("inflight %d after balanced admissions", m.Inflight)
	}
}

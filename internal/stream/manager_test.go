package stream

import (
	"context"
	"errors"
	"testing"
	"time"
)

func managerConfig() Config {
	cfg := testConfig()
	cfg.Tag = "project-1"
	return cfg
}

func TestManagerCapacityAndSlots(t *testing.T) {
	m := NewManager(2, nil)
	s1, err := m.Open(managerConfig(), meanClassifier())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Open(managerConfig(), meanClassifier())
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID == s2.ID {
		t.Fatalf("duplicate session id %q", s1.ID)
	}
	if s1.Tag != "project-1" {
		t.Fatalf("tag = %q", s1.Tag)
	}
	if _, err := m.Open(managerConfig(), meanClassifier()); !errors.Is(err, ErrCapacity) {
		t.Fatalf("third open = %v, want ErrCapacity", err)
	}
	if got, ok := m.Get(s1.ID); !ok || got != s1 {
		t.Fatal("Get lost the session")
	}
	if m.Active() != 2 {
		t.Fatalf("active = %d", m.Active())
	}
	// Closing one frees a slot once its run loop exits.
	if !m.Close(s1.ID, "test") {
		t.Fatal("Close missed a live session")
	}
	<-s1.Done()
	waitActive(t, m, 1)
	if _, err := m.Open(managerConfig(), meanClassifier()); err != nil {
		t.Fatalf("open after slot freed: %v", err)
	}
	if m.Close("no-such-id", "x") {
		t.Fatal("Close invented a session")
	}
	snap := m.Snapshot()
	if snap.Opened != 3 || snap.Shed != 1 || snap.PeakSessions != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func waitActive(t *testing.T, m *Manager, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Active() != want {
		if time.Now().After(deadline) {
			t.Fatalf("active = %d, want %d", m.Active(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestManagerRejectsBadConfig(t *testing.T) {
	m := NewManager(0, nil)
	bad := []Config{
		{WindowFrames: 0, Axes: 1},
		{WindowFrames: 8, Axes: 0},
		{WindowFrames: 8, StrideFrames: 9, Axes: 1},
	}
	for i, cfg := range bad {
		if _, err := m.Open(cfg, meanClassifier()); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := m.Open(testConfig(), &fakeClassifier{}); err == nil {
		t.Error("accepted classifier with no classes")
	}
}

func TestManagerDrain(t *testing.T) {
	m := NewManager(8, nil)
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := m.Open(managerConfig(), meanClassifier())
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		events, done := s.Events.Since(0)
		if !done {
			t.Fatal("session alive after drain")
		}
		last := events[len(events)-1]
		if !last.Terminal() || last.Reason != "server draining" {
			t.Fatalf("terminal event %+v", last)
		}
	}
	if _, err := m.Open(managerConfig(), meanClassifier()); !errors.Is(err, ErrDraining) {
		t.Fatalf("open while draining = %v, want ErrDraining", err)
	}
	if m.Active() != 0 {
		t.Fatalf("active after drain = %d", m.Active())
	}
}

// TestManagerSnapshotAggregates: counters from closed sessions fold into
// the totals alongside live ones.
func TestManagerSnapshotAggregates(t *testing.T) {
	m := NewManager(4, nil)
	s1, err := m.Open(managerConfig(), meanClassifier())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.PushWait(context.Background(), make([]float32, 16)); err != nil {
		t.Fatal(err)
	}
	s1.Close("done")
	<-s1.Done()
	waitActive(t, m, 0)
	s2, err := m.Open(managerConfig(), meanClassifier())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.PushWait(context.Background(), make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := m.Snapshot()
		// 16 frames closed + 8 live; 3 + 1 windows.
		if snap.Stats.FramesIn == 24 && snap.Stats.Windows == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never converged: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	s2.Close("done")
}

// TestManagerRetainsClosedSessions: a terminated session stays
// addressable for event replay (bounded by retainClosed) without
// holding a capacity slot.
func TestManagerRetainsClosedSessions(t *testing.T) {
	m := NewManager(1, nil)
	s, err := m.Open(managerConfig(), meanClassifier())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PushWait(context.Background(), make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	s.Close("done")
	<-s.Done()
	waitActive(t, m, 0)
	got, ok := m.Get(s.ID)
	if !ok || got != s {
		t.Fatal("closed session not retained for replay")
	}
	events, done := got.Events.Since(0)
	if !done || len(events) < 2 || !events[len(events)-1].Terminal() {
		t.Fatalf("replay after close: done=%v events=%+v", done, events)
	}
	// The slot is free despite retention.
	s2, err := m.Open(managerConfig(), meanClassifier())
	if err != nil {
		t.Fatalf("open after retention: %v", err)
	}
	s2.Close("done")
	<-s2.Done()
	waitActive(t, m, 0)
	// Retention is bounded: churn enough sessions to evict the first.
	for i := 0; i < retainClosed+1; i++ {
		si, err := m.Open(managerConfig(), meanClassifier())
		if err != nil {
			t.Fatal(err)
		}
		si.Close("churn")
		<-si.Done()
	}
	waitActive(t, m, 0)
	if _, ok := m.Get(s.ID); ok {
		t.Fatal("evicted session still addressable")
	}
}

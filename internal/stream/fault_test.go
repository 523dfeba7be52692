package stream

import (
	"errors"
	"strings"
	"testing"

	"edgepulse/internal/faults"
)

// TestIngestFaultTerminatesSessionCleanly arms the stream.ingest fault
// point and checks an injected I/O error tears the session down through
// the normal terminal-event path instead of wedging the run loop.
func TestIngestFaultTerminatesSessionCleanly(t *testing.T) {
	t.Cleanup(faults.Reset)
	m := NewManager(1, nil)
	s, err := m.Open(testConfig(), meanClassifier())
	if err != nil {
		t.Fatal(err)
	}

	disarm := faults.Arm(FaultIngest, errors.New("injected ingest failure"))
	defer disarm()
	if err := s.Push(make([]float32, 8)); err != nil {
		t.Fatal(err)
	}

	events := collect(t, s)
	last := events[len(events)-1]
	if !last.Terminal() || !strings.Contains(last.Reason, "injected ingest failure") {
		t.Fatalf("terminal event %+v, want injected failure reason", last)
	}
	// The dead session left the manager, freeing its slot.
	if m.Active() != 0 {
		t.Fatalf("faulted session still registered: %d active", m.Active())
	}
}

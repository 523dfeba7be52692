package stream

import (
	"testing"

	"edgepulse/internal/eventlog"
)

// BenchmarkStreamWindow measures one steady-state rolling-window step of
// a live session — ring copy + DSP + forward + debounce + event emission
// — on the real impulse hot path. The paired allocation gate is
// TestStreamWindowAllocBudget.
func BenchmarkStreamWindow(b *testing.B) {
	imp := toneImpulse(b)
	cls, err := NewImpulseClassifier(imp, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		WindowFrames: imp.Input.WindowSamples(),
		StrideFrames: imp.Input.StrideSamples(),
		Axes:         imp.Input.Axes,
		Rate:         imp.Input.FrequencyHz,
	}
	if err := cfg.normalize(); err != nil {
		b.Fatal(err)
	}
	s := newSession("bench", cfg, cls, nil, nil)
	batch := toneSignal(0.5, cfg.Rate).Data[:cfg.StrideFrames]
	// Warm past the event-log cap so steady state is measured.
	for i := 0; i < eventlog.Retain+8; i++ {
		if err := s.ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
}

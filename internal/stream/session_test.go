package stream

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/eventlog"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
)

// fakeClassifier scores windows with a pure function — the unit-test
// stand-in for the impulse hot path.
type fakeClassifier struct {
	classes []string
	fn      func(win dsp.Signal, scores []float32) error
}

func (f *fakeClassifier) Classes() []string { return f.classes }
func (f *fakeClassifier) Classify(win dsp.Signal, scores []float32) error {
	return f.fn(win, scores)
}

// meanClassifier maps a window's mean sample to class 0's score.
func meanClassifier() *fakeClassifier {
	return &fakeClassifier{
		classes: []string{"kw", "rest"},
		fn: func(win dsp.Signal, scores []float32) error {
			var sum float32
			for _, v := range win.Data {
				sum += v
			}
			m := sum / float32(len(win.Data))
			scores[0] = m
			scores[1] = 1 - m
			return nil
		},
	}
}

func testConfig() Config {
	return Config{
		WindowFrames: 8, StrideFrames: 4, Axes: 1, Rate: 100,
		IdleTimeout: time.Minute,
		Debounce: DebounceConfig{
			Threshold: 0.6, Release: 0.3, Smooth: 1,
			// "rest" is the background class: it scores high on silence
			// and would otherwise fire at stream start.
			Ignore: []string{"rest"},
		},
	}
}

// collect tails a session until the terminal event, returning the full
// ordered log.
func collect(t *testing.T, s *Session) []Event {
	t.Helper()
	replay, ch, cancel := s.Events.Subscribe(0)
	defer cancel()
	events := append([]Event(nil), replay...)
	if len(events) > 0 && events[len(events)-1].Terminal() {
		return events
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return events
			}
			events = append(events, e)
			if e.Terminal() {
				return events
			}
		case <-deadline:
			t.Fatal("timed out waiting for terminal event")
		}
	}
}

func openTestSession(t *testing.T, cfg Config, cls Classifier) (*Manager, *Session) {
	t.Helper()
	m := NewManager(4, nil)
	s, err := m.Open(cfg, cls)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// TestSessionRollingWindows: pushed frames produce one result event per
// stride-aligned window, with correct window starts and debounced
// detections.
func TestSessionRollingWindows(t *testing.T) {
	_, s := openTestSession(t, testConfig(), meanClassifier())
	// 24 frames: a burst of ones in [8,16) over zeros.
	frames := make([]float32, 24)
	for i := 8; i < 16; i++ {
		frames[i] = 1
	}
	// Push in uneven chunks to prove chunking is invisible.
	for _, chunk := range [][]float32{frames[:5], frames[5:6], frames[6:19], frames[19:]} {
		if err := s.Push(append([]float32(nil), chunk...)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close("test done")
	events := collect(t, s)

	var results, detections []Event
	for _, e := range events {
		switch e.Type {
		case EventResult:
			results = append(results, e)
		case EventDetection:
			detections = append(detections, e)
		}
	}
	// Windows at 0, 4, 8, 16: window 12..20 not complete? 24 frames →
	// starts 0,4,8,12,16 (16+8=24).
	wantStarts := []int64{0, 4, 8, 12, 16}
	if len(results) != len(wantStarts) {
		t.Fatalf("got %d results, want %d (%+v)", len(results), len(wantStarts), results)
	}
	for i, e := range results {
		if e.WindowStart != wantStarts[i] {
			t.Fatalf("result %d at window %d, want %d", i, e.WindowStart, wantStarts[i])
		}
	}
	// Window starting at 8 is all ones (mean 1.0): exactly one detection
	// despite windows 4 and 12 also crossing with mean 0.5 < threshold.
	if len(detections) != 1 || detections[0].WindowStart != 8 || detections[0].Class != 0 {
		t.Fatalf("detections = %+v, want one at window 8 for class 0", detections)
	}
	if detections[0].Scores == nil {
		t.Fatal("detection event missing smoothed scores")
	}
	// Log shape: open first, terminal last with the Close reason.
	if events[0].Type != EventState || events[0].Status != StatusOpen {
		t.Fatalf("first event %+v, want open state", events[0])
	}
	last := events[len(events)-1]
	if !last.Terminal() || last.Reason != "test done" {
		t.Fatalf("last event %+v, want closed(test done)", last)
	}
	st := s.Stats()
	if st.FramesIn != 24 || st.Windows != 5 || st.Detections != 1 || st.DroppedFrames != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSessionCloseDrainsQueue: batches pushed before Close are still
// classified.
func TestSessionCloseDrainsQueue(t *testing.T) {
	gate := make(chan struct{})
	cls := meanClassifier()
	inner := cls.fn
	first := true
	cls.fn = func(win dsp.Signal, scores []float32) error {
		if first {
			first = false
			<-gate
		}
		return inner(win, scores)
	}
	_, s := openTestSession(t, testConfig(), cls)
	for i := 0; i < 4; i++ {
		if err := s.Push(make([]float32, 8)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close("bye")
	close(gate)
	<-s.Done()
	if st := s.Stats(); st.Windows != 7 { // 32 frames, stride 4: starts 0..24
		t.Fatalf("windows = %d, want 7 (queue not drained)", st.Windows)
	}
}

func TestSessionBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	cls := meanClassifier()
	inner := cls.fn
	cls.fn = func(win dsp.Signal, scores []float32) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return inner(win, scores)
	}
	_, s := openTestSession(t, cfg, cls)
	// The run loop takes the first batch (a whole window) and blocks in
	// Classify; depth 2 + 1 in-flight = 3 accepted, 4th must shed.
	var got error
	for i := 0; i < 4; i++ {
		if err := s.Push(make([]float32, 8)); err != nil {
			got = err
			break
		}
		if i == 0 {
			<-entered
		}
	}
	if !errors.Is(got, ErrBackpressure) {
		t.Fatalf("push error = %v, want ErrBackpressure", got)
	}
	// PushWait blocks until the consumer frees the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.PushWait(ctx, make([]float32, 8)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PushWait on full queue = %v, want deadline exceeded", err)
	}
	close(gate)
	done := make(chan error, 1)
	go func() { done <- s.PushWait(context.Background(), make([]float32, 8)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("PushWait after unblock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PushWait never completed")
	}
	s.Close("done")
	<-s.Done()
	if err := s.Push(make([]float32, 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close = %v, want ErrClosed", err)
	}
}

func TestSessionRejectsBadBatch(t *testing.T) {
	cfg := testConfig()
	cfg.Axes = 3
	_, s := openTestSession(t, cfg, &fakeClassifier{
		classes: []string{"a"},
		fn:      func(dsp.Signal, []float32) error { return nil },
	})
	defer func() { s.Close(""); <-s.Done() }()
	if err := s.Push(make([]float32, 4)); err == nil {
		t.Fatal("accepted batch not a multiple of axes")
	}
	if err := s.Push(nil); err == nil {
		t.Fatal("accepted empty batch")
	}
}

// TestSessionOverrunSkipsAndCounts: a batch far larger than the ring
// drops the overwritten span, skips forward stride-aligned, and keeps
// classifying.
func TestSessionOverrunSkipsAndCounts(t *testing.T) {
	cfg := testConfig()
	cfg.RingFrames = 12 // window 8 + stride 4
	_, s := openTestSession(t, cfg, meanClassifier())
	if err := s.Push(make([]float32, 40)); err != nil {
		t.Fatal(err)
	}
	s.Close("done")
	events := collect(t, s)
	var starts []int64
	for _, e := range events {
		if e.Type == EventResult {
			starts = append(starts, e.WindowStart)
		}
	}
	// Ring keeps [28,40); next skips 0 → 28; windows at 28 and 32.
	if len(starts) != 2 || starts[0] != 28 || starts[1] != 32 {
		t.Fatalf("window starts = %v, want [28 32]", starts)
	}
	if st := s.Stats(); st.DroppedFrames != 28 {
		t.Fatalf("dropped = %d, want 28", st.DroppedFrames)
	}
}

func TestSessionIdleTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.IdleTimeout = 30 * time.Millisecond
	_, s := openTestSession(t, cfg, meanClassifier())
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("idle session never closed")
	}
	events, done := s.Events.Since(0)
	if !done {
		t.Fatal("Events reports not done after idle close")
	}
	last := events[len(events)-1]
	if !last.Terminal() || last.Reason != "idle timeout" {
		t.Fatalf("terminal event %+v, want idle timeout", last)
	}
}

func TestSessionClassifierErrorCloses(t *testing.T) {
	cls := &fakeClassifier{
		classes: []string{"a"},
		fn:      func(dsp.Signal, []float32) error { return errors.New("boom") },
	}
	_, s := openTestSession(t, testConfig(), cls)
	if err := s.Push(make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	<-s.Done()
	events, _ := s.Events.Since(0)
	last := events[len(events)-1]
	if !last.Terminal() || !strings.Contains(last.Reason, "boom") {
		t.Fatalf("terminal event %+v, want classifier error", last)
	}
}

// TestSessionPanicEndsSession: a classifier that panics ends its
// session with a terminal event instead of the process, frees the
// manager slot, and leaves other sessions classifying.
func TestSessionPanicEndsSession(t *testing.T) {
	calls := 0
	cls := &fakeClassifier{
		classes: []string{"kw", "rest"},
		fn: func(win dsp.Signal, scores []float32) error {
			if calls++; calls == 2 {
				panic("dsp exploded")
			}
			return nil
		},
	}
	m := NewManager(1, nil)
	s, err := m.Open(testConfig(), cls)
	if err != nil {
		t.Fatal(err)
	}
	// 12 frames hold two windows (8 frames, stride 4).
	if err := s.Push(make([]float32, 12)); err != nil {
		t.Fatal(err)
	}
	events := collect(t, s)
	last := events[len(events)-1]
	if last.Reason != "classifier error: panic: dsp exploded" {
		t.Fatalf("terminal event %+v, want the recovered panic", last)
	}
	if results := s.Stats().Windows; results != 1 {
		t.Fatalf("windows = %d, want the one before the panic", results)
	}
	waitActive(t, m, 0)

	next, err := m.Open(testConfig(), meanClassifier())
	if err != nil {
		t.Fatalf("open after the panicked session: %v", err)
	}
	if err := next.Push(make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	next.Close("done")
	events = collect(t, next)
	if next.Stats().Windows != 1 || events[len(events)-1].Reason != "done" {
		t.Fatalf("second session: windows %d, events %+v", next.Stats().Windows, events)
	}
}

// panickingStage stands in for a DSP block or forward pass that panics;
// the logged stack must name it.
func panickingStage() { panic("stage exploded") }

// lockedBuffer is a log sink safe to read while a session writes it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSessionPanicLogsStack: a classifier panic is logged once, with
// the session ID and a stack that names the panicking frame, and the
// terminal reason stays the recovered value.
func TestSessionPanicLogsStack(t *testing.T) {
	var logs lockedBuffer
	m := NewManager(1, slog.New(slog.NewTextHandler(&logs, nil)))
	cls := &fakeClassifier{
		classes: []string{"kw", "rest"},
		fn: func(dsp.Signal, []float32) error {
			panickingStage()
			return nil
		},
	}
	s, err := m.Open(testConfig(), cls)
	if err != nil {
		t.Fatal(err)
	}
	// 12 frames hold two windows; the first panics and ends the session.
	if err := s.Push(make([]float32, 12)); err != nil {
		t.Fatal(err)
	}
	events := collect(t, s)
	if last := events[len(events)-1]; last.Reason != "classifier error: panic: stage exploded" {
		t.Fatalf("terminal event %+v, want the recovered panic", last)
	}
	waitActive(t, m, 0)
	out := logs.String()
	if n := strings.Count(out, "panic in stream session"); n != 1 {
		t.Fatalf("%d panic records, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, "session="+s.ID) || !strings.Contains(out, "stream.panickingStage") {
		t.Fatalf("panic record names no session or no panicking frame:\n%s", out)
	}
}

// TestImpulseClassifierChecksModelShape: a model whose input disagrees
// with the impulse's features is refused at open rather than panicking
// in Forward mid-stream.
func TestImpulseClassifierChecksModelShape(t *testing.T) {
	imp := toneImpulse(t)
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	model, err := models.Conv1DStack(shape[0]/2, shape[1], 2, 8, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	imp.Model = model // no AttachClassifier, as for a model loaded from disk
	if _, err := NewImpulseClassifier(imp, false); err == nil || !strings.Contains(err.Error(), "model input") {
		t.Fatalf("mis-shaped model: err %v", err)
	}
}

// TestSessionSubscribeResume: a canceled subscriber resuming from its
// last Seq sees every event exactly once.
func TestSessionSubscribeResume(t *testing.T) {
	_, s := openTestSession(t, testConfig(), meanClassifier())
	if err := s.Push(make([]float32, 16)); err != nil { // windows 0,4,8? 16 frames → starts 0,4,8
		t.Fatal(err)
	}
	// Follow the log until the three results (windows 0, 4, 8) are in.
	replay, ch, cancel := s.Events.Subscribe(0)
	replay = append([]Event(nil), replay...)
	results := 0
	for _, e := range replay {
		if e.Type == EventResult {
			results++
		}
	}
	for results < 3 {
		select {
		case e := <-ch:
			replay = append(replay, e)
			if e.Type == EventResult {
				results++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d of 3 results", results)
		}
	}
	cancel()
	mid := replay[len(replay)/2].Seq
	rest, _, cancel2 := s.Events.Subscribe(mid)
	cancel2()
	if len(rest) != len(replay)-int(mid-replay[0].Seq+1) {
		t.Fatalf("resume from %d returned %d events, replay had %d from %d",
			mid, len(rest), len(replay), replay[0].Seq)
	}
	if len(rest) > 0 && rest[0].Seq != mid+1 {
		t.Fatalf("resume starts at seq %d, want %d", rest[0].Seq, mid+1)
	}
	s.Close("done")
	<-s.Done()
	// Subscribing after termination replays and returns a closed channel.
	all, ch, cancel3 := s.Events.Subscribe(0)
	defer cancel3()
	if _, open := <-ch; open {
		t.Fatal("post-terminal subscription channel not closed")
	}
	if !all[len(all)-1].Terminal() {
		t.Fatal("post-terminal replay missing terminal event")
	}
	// Seqs are contiguous from 1.
	for i, e := range all {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestSessionEventLogCapped(t *testing.T) {
	cfg := testConfig()
	cfg.RingFrames = 4096
	_, s := openTestSession(t, cfg, meanClassifier())
	// 600 windows: 600*4+4 frames.
	for i := 0; i < 100; i++ {
		if err := s.PushWait(context.Background(), make([]float32, 6*4)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close("done")
	<-s.Done()
	events, _ := s.Events.Since(0)
	if len(events) > eventlog.Retain {
		t.Fatalf("retained %d events, cap %d", len(events), eventlog.Retain)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("gap between seq %d and %d", events[i-1].Seq, events[i].Seq)
		}
	}
}

// toneImpulse builds a small real impulse (MFE + conv classifier,
// deterministic random weights) for equivalence, allocation and
// benchmark tests.
func toneImpulse(t testing.TB) *core.Impulse {
	t.Helper()
	imp := core.New("stream-test")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 250, StrideMS: 125, FrequencyHz: 4000, Axes: 1}
	block, err := dsp.New("mfe", map[string]float64{"num_filters": 16, "fft_length": 128})
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = []string{"high", "low"}
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	model, err := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.InitWeights(model, 3); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	return imp
}

func toneSignal(seconds float64, rate int) dsp.Signal {
	n := int(seconds * float64(rate))
	data := make([]float32, n)
	for i := range data {
		data[i] = 0.5 * float32(math.Sin(2*math.Pi*700*float64(i)/float64(rate)))
	}
	return dsp.Signal{Data: data, Rate: rate, Axes: 1}
}

// TestSessionMatchesOneShotClassify: rolling session results must equal
// the one-shot Windows+Classify path bitwise, chunking notwithstanding.
func TestSessionMatchesOneShotClassify(t *testing.T) {
	imp := toneImpulse(t)
	cls, err := NewImpulseClassifier(imp, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		WindowFrames: imp.Input.WindowSamples(),
		StrideFrames: imp.Input.StrideSamples(),
		Axes:         imp.Input.Axes,
		Rate:         imp.Input.FrequencyHz,
		IdleTimeout:  time.Minute,
	}
	_, s := openTestSession(t, cfg, cls)
	sig := toneSignal(1.5, imp.Input.FrequencyHz)
	// Push in awkward chunk sizes.
	for off, step := 0, 333; off < len(sig.Data); off += step {
		end := off + step
		if end > len(sig.Data) {
			end = len(sig.Data)
		}
		if err := s.PushWait(context.Background(), append([]float32(nil), sig.Data[off:end]...)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close("done")
	events := collect(t, s)

	wins := imp.Windows(sig)
	var results []Event
	for _, e := range events {
		if e.Type == EventResult {
			results = append(results, e)
		}
	}
	if len(results) != len(wins) {
		t.Fatalf("session classified %d windows, one-shot slices %d", len(results), len(wins))
	}
	for i, w := range wins {
		want, err := imp.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i]
		if wantStart := int64(i * cfg.StrideFrames); got.WindowStart != wantStart {
			t.Fatalf("window %d starts at %d, want %d", i, got.WindowStart, wantStart)
		}
		if label := imp.Classes[got.Class]; label != want.Label {
			t.Fatalf("window %d: session label %q, one-shot %q", i, label, want.Label)
		}
		if got.Score != want.Scores[want.Label] {
			t.Fatalf("window %d: session score %v, one-shot %v", i, got.Score, want.Scores[want.Label])
		}
	}
}

// TestStreamWindowAllocBudget is the acceptance gate: steady-state
// per-window classification inside a session must allocate no more than
// the one-shot Impulse.Classify path (whose Forward budget
// perf_regression_test.go pins at <= 4).
func TestStreamWindowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race-detector instrumentation")
	}
	imp := toneImpulse(t)
	cls, err := NewImpulseClassifier(imp, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		WindowFrames: imp.Input.WindowSamples(),
		StrideFrames: imp.Input.StrideSamples(),
		Axes:         imp.Input.Axes,
		Rate:         imp.Input.FrequencyHz,
	}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	s := newSession("alloc-test", cfg, cls, nil, nil)
	// Drive ingest directly (single goroutine, like the run loop) with
	// one stride per call = one window per call. Warm past the event-log
	// cap so the log append stops growing.
	batch := toneSignal(0.5, cfg.Rate).Data[:cfg.StrideFrames]
	for i := 0; i < eventlog.Retain+8; i++ {
		if err := s.ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	streamAllocs := testing.AllocsPerRun(10, func() {
		if err := s.ingest(batch); err != nil {
			t.Fatal(err)
		}
	})

	win := imp.Windows(toneSignal(0.5, cfg.Rate))[0]
	if _, err := imp.Classify(win); err != nil {
		t.Fatal(err)
	}
	oneShotAllocs := testing.AllocsPerRun(10, func() {
		if _, err := imp.Classify(win); err != nil {
			t.Fatal(err)
		}
	})
	if streamAllocs > oneShotAllocs {
		t.Errorf("session window allocates %v per classification, one-shot Classify %v: streaming must not exceed the one-shot budget",
			streamAllocs, oneShotAllocs)
	}
}

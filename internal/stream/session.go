package stream

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"edgepulse/internal/dsp"
	"edgepulse/internal/eventlog"
	"edgepulse/internal/faults"
)

// FaultIngest is the registered fault point fired at the top of each
// ingest pass; chaos tests arm it to fail classification mid-session and
// prove sessions terminate with a reasoned event instead of wedging.
const FaultIngest = "stream.ingest"

// Classifier scores one canonical window of raw signal. Implementations
// must be cheap to call repeatedly from a single goroutine; the impulse
// adapter (NewImpulseClassifier) is one core.Impulse.Run per window,
// which allocates only what the pooled DSP and forward paths do.
type Classifier interface {
	// Classes returns the output labels in score-index order.
	Classes() []string
	// Classify extracts features from win and writes per-class scores
	// into scores (len == len(Classes())).
	Classify(win dsp.Signal, scores []float32) error
}

// Push/session errors.
var (
	// ErrBackpressure reports a full inbound queue: the caller should
	// retry after a short delay (the API maps it to 429).
	ErrBackpressure = errors.New("stream: inbound queue full")
	// ErrClosed reports a push to a session whose run loop has exited.
	ErrClosed = errors.New("stream: session closed")
)

// EventType discriminates entries of a session's event log.
type EventType string

// Event types.
const (
	// EventState records a lifecycle transition: Status "open" when the
	// session starts, "closed" (with Reason) when it ends.
	EventState EventType = "state"
	// EventResult records one rolling window classification: the argmax
	// Class and its Score.
	EventResult EventType = "result"
	// EventDetection records a debounced detection: Class, Score and the
	// full smoothed Scores vector.
	EventDetection EventType = "detection"
)

// Session states carried by EventState.
const (
	StatusOpen   = "open"
	StatusClosed = "closed"
)

// Event is one entry of a session's event log (Session.Events). The log
// assigns Seq.
type Event struct {
	Seq  int64
	Time time.Time
	Type EventType
	// Status and Reason are set for EventState.
	Status string
	Reason string
	// Class is the class index for EventResult/EventDetection.
	Class int
	// Score is the (raw for results, smoothed for detections) score of
	// Class.
	Score float32
	// Scores is the full smoothed score vector, set only on detections —
	// results stay allocation-free by carrying just the argmax.
	Scores []float32
	// WindowStart is the absolute frame index the classified window
	// begins at.
	WindowStart int64
	// Dropped is the cumulative count of frames lost to ring overwrite
	// at emit time.
	Dropped int64
}

// Terminal reports whether e ends the stream.
func (e Event) Terminal() bool { return e.Type == EventState && e.Status == StatusClosed }

// Config describes one streaming session's geometry and behavior.
type Config struct {
	// WindowFrames is the classification window length in frames (from
	// the impulse's input block).
	WindowFrames int
	// StrideFrames is the hop between consecutive windows. Default:
	// WindowFrames (non-overlapping).
	StrideFrames int
	// Axes is the interleaved value count per frame.
	Axes int
	// Rate is the sample rate in Hz (informational, carried into window
	// signals for DSP blocks that need it).
	Rate int
	// RingFrames is the buffer capacity. Default: 4 * WindowFrames,
	// floored at WindowFrames + StrideFrames.
	RingFrames int
	// QueueDepth bounds the inbound batch queue; a full queue sheds
	// pushes with ErrBackpressure. Default 64.
	QueueDepth int
	// IdleTimeout closes the session when no frames arrive for this
	// long. Default 60s.
	IdleTimeout time.Duration
	// Debounce tunes detection emission.
	Debounce DebounceConfig
	// Tag scopes the session to its owner (the API stores the project ID
	// and refuses cross-project access).
	Tag string
}

// normalize validates and fills defaults in place.
func (c *Config) normalize() error {
	if c.WindowFrames <= 0 {
		return fmt.Errorf("stream: window must be positive, have %d", c.WindowFrames)
	}
	if c.Axes <= 0 {
		return fmt.Errorf("stream: axes must be positive, have %d", c.Axes)
	}
	if c.StrideFrames <= 0 {
		c.StrideFrames = c.WindowFrames
	}
	if c.StrideFrames > c.WindowFrames {
		return fmt.Errorf("stream: stride %d exceeds window %d", c.StrideFrames, c.WindowFrames)
	}
	if c.RingFrames <= 0 {
		c.RingFrames = 4 * c.WindowFrames
	}
	if min := c.WindowFrames + c.StrideFrames; c.RingFrames < min {
		c.RingFrames = min
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	c.Debounce.normalize()
	return nil
}

// Stats is a session's cumulative accounting.
type Stats struct {
	// FramesIn counts frames accepted by Push.
	FramesIn int64 `json:"frames_in"`
	// Windows counts classified windows.
	Windows int64 `json:"windows"`
	// Detections counts debounced detection events.
	Detections int64 `json:"detections"`
	// DroppedFrames counts frames overwritten before classification
	// (producer outran the classifier past the ring capacity).
	DroppedFrames int64 `json:"dropped_frames"`
}

// Session is one live streaming inference context. Frames enter through
// Push/PushWait onto a bounded queue; a dedicated goroutine owns the
// ring, the classifier and the debouncer, and appends results to the
// session's event log.
type Session struct {
	// ID is the manager-assigned session identifier.
	ID string
	// Tag is Config.Tag (owner scope).
	Tag string
	// Events is the session's ordered log of state changes, results and
	// detections, closed with the "closed" state event. Only the session
	// appends to it.
	Events *eventlog.Log[Event]

	cfg     Config
	cls     Classifier
	classes []string

	in   chan []float32
	quit chan struct{}
	done chan struct{}

	// Run-goroutine-owned classification state.
	ring *Ring
	win  dsp.Signal
	raw  []float32
	deb  *Debouncer
	next int64

	framesIn   atomic.Int64
	windows    atomic.Int64
	detections atomic.Int64
	dropped    atomic.Int64

	mu          sync.Mutex
	closing     bool
	closeReason string
	onExit      func(*Session)
	log         *slog.Logger
}

// newSession builds a session; the caller starts run(). log (nil
// discards) receives the stack of a classifier panic.
func newSession(id string, cfg Config, cls Classifier, log *slog.Logger, onExit func(*Session)) *Session {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	classes := cls.Classes()
	s := &Session{
		ID:      id,
		Tag:     cfg.Tag,
		Events:  eventlog.New(func(e *Event) *int64 { return &e.Seq }),
		cfg:     cfg,
		cls:     cls,
		classes: classes,
		in:      make(chan []float32, cfg.QueueDepth),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		ring:    NewRing(cfg.RingFrames, cfg.Axes),
		raw:     make([]float32, len(classes)),
		deb:     NewDebouncer(classes, cfg.Debounce),
		onExit:  onExit,
		log:     log,
	}
	s.win = dsp.Signal{
		Data: make([]float32, cfg.WindowFrames*cfg.Axes),
		Rate: cfg.Rate,
		Axes: cfg.Axes,
	}
	return s
}

// Classes returns the classifier's labels in score order.
func (s *Session) Classes() []string { return s.classes }

// Config returns the normalized session configuration.
func (s *Session) Config() Config { return s.cfg }

// Stats returns the session's cumulative counters.
func (s *Session) Stats() Stats {
	return Stats{
		FramesIn:      s.framesIn.Load(),
		Windows:       s.windows.Load(),
		Detections:    s.detections.Load(),
		DroppedFrames: s.dropped.Load(),
	}
}

// Done is closed once the run loop has exited and the terminal event was
// emitted.
func (s *Session) Done() <-chan struct{} { return s.done }

// Push enqueues one batch of interleaved samples without blocking. The
// session takes ownership of the slice. A full queue returns
// ErrBackpressure — the transport decides whether to shed (HTTP 429) or
// slow the producer. A closed session returns ErrClosed.
func (s *Session) Push(samples []float32) error {
	if err := s.checkBatch(samples); err != nil {
		return err
	}
	select {
	case s.in <- samples:
		s.framesIn.Add(int64(len(samples) / s.cfg.Axes))
		return nil
	case <-s.done:
		return ErrClosed
	default:
		return ErrBackpressure
	}
}

// PushWait enqueues one batch, blocking while the queue is full — the
// flow-control mode for transports with their own backpressure (the
// NDJSON duplex handler simply stops reading the request body).
func (s *Session) PushWait(ctx context.Context, samples []float32) error {
	if err := s.checkBatch(samples); err != nil {
		return err
	}
	select {
	case s.in <- samples:
		s.framesIn.Add(int64(len(samples) / s.cfg.Axes))
		return nil
	case <-s.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Session) checkBatch(samples []float32) error {
	if len(samples) == 0 || len(samples)%s.cfg.Axes != 0 {
		return fmt.Errorf("stream: batch of %d samples is not a positive multiple of %d axes", len(samples), s.cfg.Axes)
	}
	select {
	case <-s.done:
		return ErrClosed
	default:
		return nil
	}
}

// Close asks the run loop to stop after draining already-queued batches.
// The first call's reason wins; later calls are no-ops. Close returns
// immediately; wait on Done for the terminal event.
func (s *Session) Close(reason string) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	s.closing = true
	s.closeReason = reason
	s.mu.Unlock()
	close(s.quit)
}

// run is the session goroutine: the sole owner of the ring, classifier
// and debouncer.
func (s *Session) run() {
	defer close(s.done)
	if s.onExit != nil {
		defer s.onExit(s)
	}
	idle := time.NewTimer(s.cfg.IdleTimeout)
	defer idle.Stop()
	s.Events.Append(Event{Time: time.Now(), Type: EventState, Status: StatusOpen})
	for {
		select {
		case batch := <-s.in:
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(s.cfg.IdleTimeout)
			if err := s.safeIngest(batch); err != nil {
				s.finish("classifier error: " + err.Error())
				return
			}
		case <-idle.C:
			s.finish("idle timeout")
			return
		case <-s.quit:
			// Drain batches that were queued before the close request so
			// a fast producer + immediate Close still classifies
			// everything it pushed.
			for {
				select {
				case batch := <-s.in:
					if err := s.safeIngest(batch); err != nil {
						s.finish("classifier error: " + err.Error())
						return
					}
				default:
					s.mu.Lock()
					reason := s.closeReason
					s.mu.Unlock()
					s.finish(reason)
					return
				}
			}
		}
	}
}

// safeIngest is ingest with a panic in a DSP block or a forward pass
// turned into an error, so one bad session ends with a terminal event
// instead of taking the process down. The panicking goroutine's stack
// is logged once, with the session ID, so the panic can be located.
func (s *Session) safeIngest(batch []float32) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error("panic in stream session classifier",
				"session", s.ID, "panic", rec, "stack", string(debug.Stack()))
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return s.ingest(batch)
}

// ingest appends one batch to the ring and classifies every complete
// window the new data enables, advancing by the stride.
func (s *Session) ingest(batch []float32) error {
	if err := faults.Inject(FaultIngest); err != nil {
		return err
	}
	s.ring.Append(batch)
	// If the producer outran classification past the ring capacity, the
	// oldest pending windows were overwritten: skip forward in whole
	// strides and account the lost frames.
	if start := s.ring.Start(); s.next < start {
		lost := start - s.next
		stride := int64(s.cfg.StrideFrames)
		s.next += (lost + stride - 1) / stride * stride
		s.dropped.Add(lost)
	}
	for s.next+int64(s.cfg.WindowFrames) <= s.ring.End() {
		if !s.ring.CopyAt(s.next, s.win.Data) {
			// Unreachable by construction (next >= Start, window fits
			// before End); guard anyway so a bug degrades, not corrupts.
			s.next += int64(s.cfg.StrideFrames)
			continue
		}
		if err := s.cls.Classify(s.win, s.raw); err != nil {
			return err
		}
		s.windows.Add(1)
		best := 0
		for i := range s.raw {
			if s.raw[i] > s.raw[best] {
				best = i
			}
		}
		class, fired := s.deb.Observe(s.raw)
		s.emitResult(best, s.raw[best], s.next)
		if fired {
			s.detections.Add(1)
			s.emitDetection(class, s.next)
		}
		s.next += int64(s.cfg.StrideFrames)
	}
	return nil
}

// finish closes the event log with the terminal state event.
func (s *Session) finish(reason string) {
	s.mu.Lock()
	s.closing = true
	s.closeReason = reason
	s.mu.Unlock()
	s.Events.Close(Event{Time: time.Now(), Type: EventState, Status: StatusClosed, Reason: reason})
}

func (s *Session) emitResult(class int, score float32, windowStart int64) {
	s.Events.Append(Event{
		Time: time.Now(), Type: EventResult, Class: class, Score: score,
		WindowStart: windowStart, Dropped: s.dropped.Load(),
	})
}

func (s *Session) emitDetection(class int, windowStart int64) {
	smoothed := s.deb.Smoothed()
	s.Events.Append(Event{
		Time: time.Now(), Type: EventDetection, Class: class, Score: smoothed[class],
		Scores:      append([]float32(nil), smoothed...),
		WindowStart: windowStart, Dropped: s.dropped.Load(),
	})
}

package stream

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
)

// Manager errors.
var (
	// ErrCapacity reports that every session slot is taken; the API maps
	// it to 429 with Retry-After.
	ErrCapacity = errors.New("stream: session capacity reached")
	// ErrDraining reports that the server is shutting down and refuses
	// new sessions.
	ErrDraining = errors.New("stream: server draining")
)

// DefaultMaxSessions is the global session cap when none is configured.
const DefaultMaxSessions = 64

// Metrics is the streaming plane's aggregate accounting: live gauges
// plus totals accumulated across closed sessions.
type Metrics struct {
	// ActiveSessions is the current live session count.
	ActiveSessions int `json:"active_sessions"`
	// PeakSessions is the highest concurrent session count observed.
	PeakSessions int `json:"peak_sessions"`
	// Opened counts sessions ever opened; Shed counts opens refused for
	// capacity.
	Opened int64 `json:"opened"`
	Shed   int64 `json:"shed"`
	// Stats aggregates frame/window/detection/drop counters over live
	// and closed sessions.
	Stats Stats `json:"stats"`
}

// Manager owns every live session: slot accounting against a global cap,
// lookup, and graceful drain on shutdown.
type Manager struct {
	mu       sync.Mutex
	max      int
	log      *slog.Logger
	sessions map[string]*Session
	draining bool
	nextID   int64
	opened   int64
	shed     int64
	peak     int
	// closed accumulates the stats of sessions that have exited.
	closed Stats
	// recent retains terminated sessions (oldest first) so consumers can
	// still replay their event logs shortly after close, mirroring how
	// terminal jobs stay queryable. Retained sessions hold no slot.
	recent []*Session
}

// retainClosed bounds the recently-closed replay window.
const retainClosed = 32

// NewManager builds a manager capped at max concurrent sessions
// (<= 0 selects DefaultMaxSessions). Its sessions log a classifier
// panic's stack to log (nil discards it).
func NewManager(max int, log *slog.Logger) *Manager {
	if max <= 0 {
		max = DefaultMaxSessions
	}
	return &Manager{max: max, log: log, sessions: map[string]*Session{}}
}

// Open validates cfg, claims a slot and starts a session. It returns
// ErrCapacity when the cap is reached and ErrDraining during shutdown.
func (m *Manager) Open(cfg Config, cls Classifier) (*Session, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(cls.Classes()) == 0 {
		return nil, fmt.Errorf("stream: classifier has no classes")
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if len(m.sessions) >= m.max {
		m.shed++
		m.mu.Unlock()
		return nil, ErrCapacity
	}
	m.nextID++
	id := fmt.Sprintf("stream-%d", m.nextID)
	s := newSession(id, cfg, cls, m.log, m.remove)
	m.sessions[id] = s
	m.opened++
	if n := len(m.sessions); n > m.peak {
		m.peak = n
	}
	m.mu.Unlock()
	go s.run()
	return s, nil
}

// remove releases a session's slot once its run loop exits, folding its
// counters into the closed totals.
func (m *Manager) remove(s *Session) {
	st := s.Stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sessions, s.ID)
	m.closed.FramesIn += st.FramesIn
	m.closed.Windows += st.Windows
	m.closed.Detections += st.Detections
	m.closed.DroppedFrames += st.DroppedFrames
	m.recent = append(m.recent, s)
	if len(m.recent) > retainClosed {
		m.recent = m.recent[1:]
	}
}

// Get returns the session with the given id: live, or recently closed
// (terminal but still replayable).
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.sessions[id]; ok {
		return s, ok
	}
	for i := len(m.recent) - 1; i >= 0; i-- {
		if m.recent[i].ID == id {
			return m.recent[i], true
		}
	}
	return nil, false
}

// Active returns the live session count.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Max returns the configured session capacity — the denominator of the
// admission gate's streaming-pressure dimension.
func (m *Manager) Max() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.max
}

// Close ends the identified session and reports whether it existed.
func (m *Manager) Close(id, reason string) bool {
	s, ok := m.Get(id)
	if !ok {
		return false
	}
	s.Close(reason)
	return true
}

// Drain refuses new sessions, closes every live one with a "server
// draining" terminal event, and waits (bounded by ctx) for their run
// loops to finish — the graceful-shutdown path.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	live := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	m.mu.Unlock()
	for _, s := range live {
		s.Close("server draining")
	}
	for _, s := range live {
		select {
		case <-s.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Snapshot returns the streaming plane's aggregate metrics.
func (m *Manager) Snapshot() Metrics {
	m.mu.Lock()
	out := Metrics{
		ActiveSessions: len(m.sessions),
		PeakSessions:   m.peak,
		Opened:         m.opened,
		Shed:           m.shed,
		Stats:          m.closed,
	}
	live := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	m.mu.Unlock()
	for _, s := range live {
		st := s.Stats()
		out.Stats.FramesIn += st.FramesIn
		out.Stats.Windows += st.Windows
		out.Stats.Detections += st.Detections
		out.Stats.DroppedFrames += st.DroppedFrames
	}
	return out
}

package jobs

import "time"

// EventType discriminates entries of a job's event log.
type EventType string

// Event types.
const (
	// EventState records a lifecycle transition (Status is set). A
	// retry appears as a transition back to Queued with Attempt bumped.
	EventState EventType = "state"
	// EventProgress records a SetProgress call (Stage/Pct are set).
	EventProgress EventType = "progress"
	// EventLog records a Logf line (Message is set).
	EventLog EventType = "log"
	// EventStalled records a watchdog flag: the running job emitted no
	// event for the configured window (Message carries the reason). It
	// is informational — the job keeps running unless the watchdog also
	// cancels it — and does not count as activity itself.
	EventStalled EventType = "stalled"
)

// Event is one entry of a job's event log (Job.Events): a state
// transition, a progress update or a log line. The log assigns Seq.
type Event struct {
	Seq  int64
	Time time.Time
	Type EventType
	// Status is set for EventState.
	Status Status
	// Stage and Pct are set for EventProgress.
	Stage string
	Pct   float64
	// Message is set for EventLog and for retry/cancel state events,
	// where it carries the reason.
	Message string
	// Attempt is the retry attempt the event belongs to (0 = first run).
	Attempt int
}

// stampLocked dates e by the job's clock and tags it with the current
// attempt; any event but a stalled flag is fresh activity, which moves
// the watchdog's no-progress clock and clears a raised stalled flag so
// the job can be flagged again if it goes silent. Caller holds j.mu.
func (j *Job) stampLocked(e Event) Event {
	e.Time = j.now()
	e.Attempt = j.attempt
	if e.Type != EventStalled {
		j.lastActivity = e.Time
		j.stalled = false
	}
	return e
}

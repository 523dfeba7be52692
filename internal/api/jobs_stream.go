package api

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/eventlog"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
)

// eventView renders one scheduler event as its wire DTO.
func eventView(e jobs.Event) v1.JobEvent {
	return v1.JobEvent{
		Seq:         e.Seq,
		Type:        string(e.Type),
		TimestampMS: e.Time.UnixMilli(),
		Status:      string(e.Status),
		Stage:       e.Stage,
		Progress:    e.Pct,
		Message:     e.Message,
		Attempt:     e.Attempt,
	}
}

// handleCancelJob implements DELETE /api/v1/jobs/{job}: cooperative
// cancellation. A queued job is terminal immediately; a running job's
// context is cancelled and it reaches "cancelled" as soon as its body
// observes the context. Cancelling an already-terminal job is a no-op
// acknowledged with cancelled=false.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request, u *project.User) {
	j, ok := s.authorizeJob(w, r, u)
	if !ok {
		return
	}
	_, cancelled, err := s.sched.Cancel(j.ID)
	if err != nil {
		// The job was evicted between authorization and cancel.
		WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.CancelJobResponse{Success: true, Cancelled: cancelled, Job: jobView(j)})
}

// setStreamingHeaders marks a response as a live NDJSON feed: no-cache
// so intermediaries never serve a stale replay, and X-Accel-Buffering
// off so reverse proxies (nginx) pass each line through as it is
// flushed instead of buffering the body.
func setStreamingHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
}

// eventsAfter parses the resume cursor: the from query parameter wins,
// then the Last-Event-Id header (the SSE-style resume contract), else 0
// (the full retained log).
func eventsAfter(r *http.Request) (int64, bool) {
	raw := r.URL.Query().Get("from")
	if raw == "" {
		raw = r.Header.Get("Last-Event-Id")
	}
	if raw == "" {
		return 0, true
	}
	after, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || after < 0 {
		return 0, false
	}
	return after, true
}

// handleJobEvents implements GET /api/v1/jobs/{job}/events, the live
// observability feed: every state transition, progress update and log
// line, in order, resumable via Last-Event-Id.
//
// Default mode streams newline-delimited JSON (one JobEvent per line,
// flushed as they happen) until the terminal event. mode=poll is the
// long-poll fallback for clients that cannot consume chunked responses:
// it returns every event after `from`, waiting up to timeout_ms for the
// first one.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, u *project.User) {
	j, ok := s.authorizeJob(w, r, u)
	if !ok {
		return
	}
	after, ok := eventsAfter(r)
	if !ok {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest,
			"from / Last-Event-Id must be a non-negative integer")
		return
	}
	if _, canStream := w.(http.Flusher); r.URL.Query().Get("mode") == "poll" || !canStream {
		s.pollJobEvents(w, r, j, after)
		return
	}
	setStreamingHeaders(w)
	w.WriteHeader(http.StatusOK)
	tailEvents(w, r, j.Events, after, eventView)
}

// tailEvents writes the events of log after seq after onto w as NDJSON,
// one view per line, flushed as it is written, until the terminal event,
// the client going away or a failed write. It serves the job event feed,
// the stream session feed and the duplex feed; a subscription dropped
// for falling behind resumes from the last line written.
func tailEvents[E, V any](w http.ResponseWriter, r *http.Request, log *eventlog.Log[E], after int64, view func(E) V) {
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	log.Follow(r.Context(), after, func(e E) bool {
		if enc.Encode(view(e)) != nil {
			return false
		}
		rc.Flush()
		return true
	})
}

// pollJobEvents is the long-poll mode: return the events after `after`,
// waiting up to timeout_ms for the first one.
func (s *Server) pollJobEvents(w http.ResponseWriter, r *http.Request, j *jobs.Job, after int64) {
	timeout, ok := waitTimeout(r)
	if !ok {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "timeout_ms must be a positive integer")
		return
	}
	replay, ch, cancel := j.Events.Subscribe(after)
	defer cancel()
	if len(replay) == 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-ch: // an event arrived, or the log closed
		case <-timer.C:
		case <-r.Context().Done():
			w.WriteHeader(statusClientClosedRequest)
			return
		}
	}
	// One snapshot answers both: every event after the cursor, and
	// whether the log is closed with nothing left to deliver.
	events, closed := j.Events.Since(after)
	out := v1.JobEventsResponse{Success: true, NextSeq: after, Done: closed}
	for _, e := range events {
		out.Events = append(out.Events, eventView(e))
		out.NextSeq = e.Seq
	}
	WriteJSON(w, http.StatusOK, out)
}

// waitTimeout parses timeout_ms with the long-poll default and cap.
func waitTimeout(r *http.Request) (time.Duration, bool) {
	timeout := defaultWaitTimeout
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms <= 0 {
			return 0, false
		}
		// Clamp before the Duration multiply: a huge ms value would
		// overflow int64 into a negative timeout.
		if maxMS := int(maxWaitTimeout / time.Millisecond); ms > maxMS {
			ms = maxMS
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	return timeout, true
}

package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/project"
	"edgepulse/internal/stream"
)

// Streaming inference endpoints. A session is opened against a trained
// impulse, frames are appended either via discrete POSTs or over a
// single chunked-NDJSON duplex connection, and rolling classification
// results plus debounced detections come back on a resumable event feed
// with the same Seq/Last-Event-Id contract as job events.

// maxStreamLine bounds one NDJSON line on the duplex feed. A line holds
// one frame batch; at ~12 bytes per JSON float this admits batches of
// several hundred thousand samples, far beyond a sensible push size.
const maxStreamLine = 8 << 20

// streamEventView renders session events as their wire DTOs. classes
// maps the class index to its label; the full score vector (detections
// only) becomes a label-keyed map.
func streamEventView(classes []string) func(stream.Event) v1.StreamEvent {
	return func(e stream.Event) v1.StreamEvent {
		out := v1.StreamEvent{
			Seq:         e.Seq,
			Type:        string(e.Type),
			TimestampMS: e.Time.UnixMilli(),
			Status:      e.Status,
			Reason:      e.Reason,
			WindowStart: e.WindowStart,
			Dropped:     e.Dropped,
		}
		if e.Type == stream.EventResult || e.Type == stream.EventDetection {
			out.Label = classes[e.Class]
			out.Score = e.Score
		}
		if e.Scores != nil {
			out.Scores = make(map[string]float32, len(classes))
			for i, c := range classes {
				out.Scores[c] = e.Scores[i]
			}
		}
		return out
	}
}

// streamConfig translates the open request into a session config against
// the project's trained impulse geometry.
func (s *Server) streamConfig(p *project.Project, req v1.StreamOpenRequest) (stream.Config, error) {
	imp := p.Impulse()
	if imp == nil || imp.Model == nil {
		return stream.Config{}, errors.New("impulse is not trained")
	}
	in := imp.Input
	cfg := stream.Config{
		WindowFrames: in.WindowSamples(),
		StrideFrames: in.StrideSamples(),
		Axes:         in.Axes,
		Rate:         in.FrequencyHz,
		Debounce: stream.DebounceConfig{
			Threshold: req.Threshold,
			Release:   req.Release,
			Smooth:    req.Smooth,
			Suppress:  req.Suppress,
			Ignore:    req.IgnoreLabels,
		},
		Tag: strconv.Itoa(p.ID),
	}
	if req.StrideMS < 0 {
		return stream.Config{}, errors.New("stride_ms must be non-negative")
	}
	if req.StrideMS > 0 {
		cfg.StrideFrames = req.StrideMS * in.FrequencyHz / 1000
		if cfg.StrideFrames <= 0 {
			return stream.Config{}, errors.New("stride_ms is shorter than one sample")
		}
	}
	if req.IdleTimeoutMS < 0 {
		return stream.Config{}, errors.New("idle_timeout_ms must be non-negative")
	}
	if req.IdleTimeoutMS > 0 {
		cfg.IdleTimeout = time.Duration(req.IdleTimeoutMS) * time.Millisecond
	}
	return cfg, nil
}

// openSession validates the request and admits a session, mapping
// admission failures onto the error envelope. Returns nil after writing
// the error response.
func (s *Server) openSession(w http.ResponseWriter, r *http.Request, p *project.Project, req v1.StreamOpenRequest) *stream.Session {
	cfg, err := s.streamConfig(p, req)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return nil
	}
	cls, err := stream.NewImpulseClassifier(p.Impulse(), req.Quantized)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return nil
	}
	sess, err := s.streams.Open(cfg, cls)
	switch {
	case errors.Is(err, stream.ErrDraining):
		WriteError(w, r, http.StatusServiceUnavailable, v1.CodeUnavailable, "server is draining, not admitting new streams")
		return nil
	case errors.Is(err, stream.ErrCapacity):
		w.Header().Set("Retry-After", "2")
		WriteError(w, r, http.StatusTooManyRequests, v1.CodeRateLimited, "stream session capacity reached, retry later")
		return nil
	case err != nil:
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return nil
	}
	return sess
}

func openResponse(sess *stream.Session) v1.StreamOpenResponse {
	cfg := sess.Config()
	return v1.StreamOpenResponse{
		Success:       true,
		SessionID:     sess.ID,
		WindowSamples: cfg.WindowFrames,
		StrideSamples: cfg.StrideFrames,
		Rate:          cfg.Rate,
		Axes:          cfg.Axes,
		Classes:       sess.Classes(),
	}
}

// handleStreamOpen implements POST /api/v1/projects/{id}/stream.
func (s *Server) handleStreamOpen(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	var req v1.StreamOpenRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	sess := s.openSession(w, r, p, req)
	if sess == nil {
		return
	}
	WriteJSON(w, http.StatusOK, openResponse(sess))
}

// sessionFor resolves {sid} within the authorized project. Sessions are
// scoped by project tag; a foreign session ID reads as not found rather
// than forbidden, so IDs don't leak across projects.
func (s *Server) sessionFor(w http.ResponseWriter, r *http.Request, p *project.Project) (*stream.Session, bool) {
	sess, ok := s.streams.Get(r.PathValue("sid"))
	if !ok || sess.Config().Tag != strconv.Itoa(p.ID) {
		WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, "no such stream session")
		return nil, false
	}
	return sess, true
}

// handleStreamPush implements POST .../stream/{sid}/frames: append one
// batch of samples. A full session queue sheds the batch with 429 +
// backpressure so the client slows down and retries.
func (s *Server) handleStreamPush(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	sess, ok := s.sessionFor(w, r, p)
	if !ok {
		return
	}
	buf := bodyBufs.Get().(*bodyBuf)
	defer bodyBufs.Put(buf)
	var req v1.StreamPushRequest
	body, err := buf.readBody(w, r)
	if err == nil {
		err = req.DecodeJSON(body) // fresh samples: the session keeps them
	}
	if err != nil {
		s.badRequest(w, r, fmt.Errorf("bad request body: %w", err))
		return
	}
	switch err := sess.Push(req.Samples); {
	case errors.Is(err, stream.ErrBackpressure):
		w.Header().Set("Retry-After", "1")
		WriteError(w, r, http.StatusTooManyRequests, v1.CodeBackpressure, "session queue is full, slow down and retry")
		return
	case errors.Is(err, stream.ErrClosed):
		WriteError(w, r, http.StatusConflict, v1.CodeConflict, "stream session is closed")
		return
	case err != nil:
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.StreamPushResponse{Success: true, FramesIn: sess.Stats().FramesIn})
}

// handleStreamEvents implements GET .../stream/{sid}/events: the NDJSON
// feed of results and detections, resumable via from / Last-Event-Id.
func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	sess, ok := s.sessionFor(w, r, p)
	if !ok {
		return
	}
	after, ok := eventsAfter(r)
	if !ok {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest,
			"from / Last-Event-Id must be a non-negative integer")
		return
	}
	setStreamingHeaders(w)
	w.WriteHeader(http.StatusOK)
	tailEvents(w, r, sess.Events, after, streamEventView(sess.Classes()))
}

// handleStreamClose implements DELETE .../stream/{sid}: close the
// session, wait for queued frames to flush, and report final stats.
func (s *Server) handleStreamClose(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	sess, ok := s.sessionFor(w, r, p)
	if !ok {
		return
	}
	sess.Close("client request")
	select {
	case <-sess.Done():
	case <-r.Context().Done():
		w.WriteHeader(statusClientClosedRequest)
		return
	}
	st := sess.Stats()
	WriteJSON(w, http.StatusOK, v1.StreamCloseResponse{
		Success: true,
		Stats: v1.StreamSessionStats{
			FramesIn: st.FramesIn, Windows: st.Windows,
			Detections: st.Detections, Dropped: st.DroppedFrames,
		},
	})
}

// lineScanner splits a duplex request body into its NDJSON lines.
func lineScanner(body io.Reader) *bufio.Scanner {
	scan := bufio.NewScanner(body)
	scan.Buffer(make([]byte, 64<<10), maxStreamLine)
	return scan
}

// openLine reads a duplex body's first line as the StreamOpenRequest, as
// strictly as POST .../stream reads its body (v1.DecodeStrict): an
// unknown field, such as a misspelt one, is refused rather than ignored.
func openLine(scan *bufio.Scanner) (v1.StreamOpenRequest, error) {
	var req v1.StreamOpenRequest
	if !scan.Scan() {
		return req, errors.New("missing open request line")
	}
	if err := v1.DecodeStrict(bytes.NewReader(scan.Bytes()), &req); err != nil {
		return req, fmt.Errorf("bad open request line: %w", err)
	}
	return req, nil
}

// handleStreamDuplex implements POST .../stream/duplex: one chunked
// HTTP connection carrying NDJSON both ways. The first request line is a
// StreamOpenRequest; every following line is a StreamPushRequest. The
// response opens with a StreamOpenResponse line, then streams events
// until the client closes its end (EOF ends the session after queued
// frames flush) or the session terminates.
//
// Inbound frames use PushWait: when the session queue is full the reader
// simply stops consuming the request body, so backpressure propagates to
// the client through TCP flow control instead of shedding batches.
func (s *Server) handleStreamDuplex(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	rc := http.NewResponseController(w)
	// On HTTP/1.x the server normally drains the request body before the
	// response; full duplex lets us interleave reads with event writes.
	// Errors mean the transport is already duplex (or a test recorder).
	rc.EnableFullDuplex()

	scan := lineScanner(r.Body)
	req, err := openLine(scan)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	sess := s.openSession(w, r, p, req)
	if sess == nil {
		return
	}

	setStreamingHeaders(w)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if enc.Encode(openResponse(sess)) != nil {
		sess.Close("client disconnected")
		return
	}
	rc.Flush()

	// Reader: request body lines -> session queue. Owns the inbound half;
	// the handler goroutine streams events until the terminal line.
	go func() {
		defer sess.Close("client closed stream")
		for scan.Scan() {
			line := scan.Bytes()
			if len(line) == 0 {
				continue
			}
			var push v1.StreamPushRequest
			if err := push.DecodeJSON(line); err != nil {
				sess.Close("bad frame line: " + err.Error())
				return
			}
			if err := sess.PushWait(r.Context(), push.Samples); err != nil {
				if !errors.Is(err, stream.ErrClosed) && r.Context().Err() == nil {
					sess.Close("bad frame batch: " + err.Error())
				}
				return
			}
		}
	}()

	tailEvents(w, r, sess.Events, 0, streamEventView(sess.Classes()))
	// The feed ended: either the session is terminal (reader saw EOF or
	// the session closed itself) or the client vanished mid-stream.
	sess.Close("client disconnected")
}

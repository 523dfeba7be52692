package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	v1 "edgepulse/internal/api/v1"
)

// feedEvent is satisfied by every NDJSON feed DTO (job events, stream
// session events): the consumer needs to recognize the terminal line.
type feedEvent interface {
	Terminal() bool
}

// streamFeed consumes a resumable NDJSON event feed at path, invoking fn
// for every event after fromSeq in order, without gaps or duplicates.
// Dropped connections resume transparently via the Last-Event-Id header;
// seqOf extracts each event's cursor. It returns nil once the terminal
// event has been delivered, fn's error if fn fails, or the
// transport/API error once the no-progress resume budget is exhausted.
func streamFeed[T feedEvent](ctx context.Context, c *Client, path string, fromSeq int64, seqOf func(T) int64, fn func(T) error) error {
	last := fromSeq
	failures := 0
	for {
		before := last
		terminal, err := feedOnce(ctx, c, path, &last, seqOf, fn)
		switch {
		case terminal:
			return nil
		case err != nil && ctx.Err() != nil:
			return ctx.Err()
		default:
			// err != nil: transport/API failure. err == nil: clean EOF
			// without a terminal event (the server-side subscriber was
			// recycled). Both resume from the last delivered seq, with a
			// bounded budget for attempts that make no progress.
			var stop *callbackError
			if errors.As(err, &stop) {
				return stop.err
			}
			// Permanent API failures (404, 401, ...) fail fast, like the
			// request path's retryable() gate; only rate limiting and
			// upstream unavailability are worth resuming through.
			var apiErr *APIError
			if errors.As(err, &apiErr) && !retryable(http.MethodGet, apiErr.Status) {
				return err
			}
			if last > before {
				failures = 0
				continue
			}
			failures++
			if failures > streamMaxResumes {
				if err == nil {
					err = fmt.Errorf("client: event feed %s kept ending without progress", path)
				}
				return err
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(RetryDelay(failures, apiErr)):
			}
		}
	}
}

// feedOnce opens one streaming connection and pumps events until the
// stream ends, advancing *last past every delivered event.
func feedOnce[T feedEvent](ctx context.Context, c *Client, path string, last *int64, seqOf func(T) int64, fn func(T) error) (terminal bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+v1.Prefix+path, nil)
	if err != nil {
		return false, err
	}
	if c.apiKey != "" {
		req.Header.Set("x-api-key", c.apiKey)
	}
	req.Header.Set("Last-Event-Id", strconv.FormatInt(*last, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return false, parseAPIError(resp.StatusCode, resp.Header, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev T
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, fmt.Errorf("client: bad event line: %w", err)
		}
		if seqOf(ev) <= *last {
			continue // duplicate from an overlapping resume
		}
		*last = seqOf(ev)
		if err := fn(ev); err != nil {
			return false, &callbackError{err: err}
		}
		if ev.Terminal() {
			return true, nil
		}
	}
	return false, sc.Err()
}

// --- Streaming inference sessions ---

// StreamSession is a live inference session opened with OpenStream. Info
// carries the session geometry: push Info.Axes-interleaved float32
// samples at Info.Rate Hz; results arrive every Info.StrideSamples
// frames over windows of Info.WindowSamples.
type StreamSession struct {
	c         *Client
	projectID int
	// Info is the server's admission response.
	Info v1.StreamOpenResponse
}

// OpenStream opens a live inference session against the project's
// trained impulse (POST /api/v1/projects/{id}/stream).
func (c *Client) OpenStream(ctx context.Context, projectID int, req v1.StreamOpenRequest) (*StreamSession, error) {
	var out v1.StreamOpenResponse
	if err := c.postJSON(ctx, fmt.Sprintf("/projects/%d/stream", projectID), req, &out); err != nil {
		return nil, err
	}
	return &StreamSession{c: c, projectID: projectID, Info: out}, nil
}

// ID returns the server-assigned session identifier.
func (s *StreamSession) ID() string { return s.Info.SessionID }

// Push appends one batch of samples. Backpressure (HTTP 429) is retried
// with the server's Retry-After by the client's standard retry
// machinery; len(samples) must be a multiple of Info.Axes.
func (s *StreamSession) Push(ctx context.Context, samples []float32) (*v1.StreamPushResponse, error) {
	var out v1.StreamPushResponse
	body, err := v1.StreamPushRequest{Samples: samples}.MarshalJSON()
	if err != nil {
		return nil, err
	}
	path := fmt.Sprintf("/projects/%d/stream/%s/frames", s.projectID, url.PathEscape(s.Info.SessionID))
	if err := s.c.postBody(ctx, path, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Events tails the session's event feed, invoking fn for every event
// after fromSeq in order — rolling results, debounced detections and
// state transitions — resuming dropped connections transparently. It
// returns nil once the session's terminal event has been delivered.
func (s *StreamSession) Events(ctx context.Context, fromSeq int64, fn func(v1.StreamEvent) error) error {
	path := fmt.Sprintf("/projects/%d/stream/%s/events", s.projectID, url.PathEscape(s.Info.SessionID))
	return streamFeed(ctx, s.c, path, fromSeq, func(e v1.StreamEvent) int64 { return e.Seq }, fn)
}

// Close ends the session (DELETE), waits server-side for queued frames
// to flush, and returns the final session stats.
func (s *StreamSession) Close(ctx context.Context) (*v1.StreamCloseResponse, error) {
	var out v1.StreamCloseResponse
	path := fmt.Sprintf("/projects/%d/stream/%s", s.projectID, url.PathEscape(s.Info.SessionID))
	if err := s.c.do(ctx, http.MethodDelete, path, nil, nil, "", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

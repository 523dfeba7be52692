package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/eventlog"
	"edgepulse/internal/jobs"
)

// stallingWriter is a ResponseWriter whose first Write blocks until
// release is closed, the way a client that stops reading stalls a feed.
type stallingWriter struct {
	header  http.Header
	body    bytes.Buffer
	stalled chan struct{} // closed when the first Write starts
	release chan struct{}
}

func (w *stallingWriter) Header() http.Header { return w.header }
func (w *stallingWriter) WriteHeader(int)     {}
func (w *stallingWriter) Write(b []byte) (int, error) {
	if w.body.Len() == 0 {
		close(w.stalled)
		<-w.release
	}
	return w.body.Write(b)
}

func newJobLog() *eventlog.Log[jobs.Event] {
	return eventlog.New(func(e *jobs.Event) *int64 { return &e.Seq })
}

// waitUntil yields until cond holds, failing after 5s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
	}
}

// TestTailEventsResumesAfterDrop: a feed whose writer stalls long enough
// for the log to drop its subscription still delivers every seq exactly
// once and in order once the writer moves again, ending at the terminal
// event.
func TestTailEventsResumesAfterDrop(t *testing.T) {
	log := newJobLog()
	log.Append(jobs.Event{Type: jobs.EventState, Status: jobs.Queued})
	w := &stallingWriter{header: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tailEvents(w, httptest.NewRequest("GET", "/", nil), log, 0, eventView)
	}()
	<-w.stalled
	const appended = 2 * eventlog.Buffer
	for i := 0; i < appended; i++ {
		log.Append(jobs.Event{Type: jobs.EventLog, Message: "line"})
	}
	if log.Subscribers() != 0 {
		t.Fatal("the stalled feed's subscription was not dropped")
	}
	log.Close(jobs.Event{Type: jobs.EventState, Status: jobs.Finished})
	close(w.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("feed did not end at the terminal event")
	}
	var got []v1.JobEvent
	for scan := bufio.NewScanner(&w.body); scan.Scan(); {
		var e v1.JobEvent
		if err := json.Unmarshal(scan.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	for i, e := range got {
		if e.Seq != int64(i+1) {
			t.Fatalf("line %d has seq %d", i, e.Seq)
		}
	}
	if len(got) != appended+2 || !got[len(got)-1].Terminal() {
		t.Fatalf("%d lines, last %+v", len(got), got[len(got)-1])
	}
}

// TestTailEventsClientDisconnect: a client going away mid-feed ends the
// tail and releases its subscription.
func TestTailEventsClientDisconnect(t *testing.T) {
	log := newJobLog()
	log.Append(jobs.Event{Type: jobs.EventState, Status: jobs.Running})
	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest("GET", "/", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tailEvents(w, r, log, 0, eventView)
	}()
	waitUntil(t, func() bool { return log.Subscribers() == 1 })
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("feed outlived its client")
	}
	if log.Subscribers() != 0 {
		t.Fatal("disconnected feed kept its subscription")
	}
	if lines := bytes.Count(w.Body.Bytes(), []byte("\n")); lines != 1 {
		t.Fatalf("%d lines before the disconnect, want 1", lines)
	}
}

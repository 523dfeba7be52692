package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Times are nanoseconds since the recorder started.
type span struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// Parent is the ID of the span that caused this one (0 = none).
	Parent int `json:"parent"`
	// Req joins the spans of one request or one replayed input.
	Req   int   `json:"req"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It is shared by
// the caller and the daemon's handler goroutines.
type recorder struct {
	t0 time.Time
	mu sync.Mutex
	// spans[i].ID == i+1
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID; end closes it. A negative req
// inherits the parent's.
func (r *recorder) begin(name string, parent, req int) int {
	r.mu.Lock()
	id := len(r.spans) + 1
	if req < 0 && parent != 0 {
		req = r.spans[parent-1].Req
	}
	// The clock is read last on the way in and first on the way out,
	// so the recorder's own work stays outside the span.
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Req: req, Start: int64(time.Since(r.t0))})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) time.Duration {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	s := &r.spans[id-1]
	s.End = now
	d := s.dur()
	r.mu.Unlock()
	return d
}

// valid reports whether id names a recorded span.
func (r *recorder) valid(id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return id >= 1 && id <= len(r.spans)
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Children may overlap each other or stick out of
// the parent; covered time is the union of the children clipped to the
// parent, so nothing is subtracted twice.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, hi int64
	hi = parent.Start
	for _, v := range ivs {
		if v.b <= hi {
			continue
		}
		if v.a < hi {
			v.a = hi
		}
		covered += v.b - v.a
		hi = v.b
	}
	return parent.dur() - time.Duration(covered)
}

// childrenOf groups spans by parent ID.
func childrenOf(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// traceFile is what a traced run leaves in the out directory.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]metric  `json:"metrics"`
	Checks   []consistencyCheck `json:"consistency"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	blob, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

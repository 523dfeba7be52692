package api

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/jobs"
)

// TestJobViewLogsAreRetained checks that a job view's logs are the
// lines the job's event log still retains, not every line ever logged.
func TestJobViewLogsAreRetained(t *testing.T) {
	e := newEnv(t)
	job, err := e.sched.Submit("chatty", func(ctx context.Context, j *jobs.Job) error {
		for i := 0; i < 600; i++ {
			j.Logf("line %d", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.sched.Wait(job.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	want := job.Logs()
	if len(want) == 0 || len(want) >= 600 {
		t.Fatalf("job keeps %d of 600 lines", len(want))
	}
	if newest := want[len(want)-1]; newest != "line 599" {
		t.Fatalf("newest kept line %q", newest)
	}
	resp, raw := e.doRaw("GET", "/api/v1/jobs/"+job.ID, e.apiKey, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var view v1.JobResponse
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(view.Job.Logs, want) {
		t.Fatalf("view carries %d lines, job retains %d", len(view.Job.Logs), len(want))
	}
}

func TestCancelJobEndpoint(t *testing.T) {
	e := newEnv(t)
	started := make(chan struct{})
	job, err := e.sched.Submit("slow", func(ctx context.Context, j *jobs.Job) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	out := e.expectStatus("DELETE", "/api/v1/jobs/"+job.ID, e.apiKey, nil, http.StatusOK)
	if out["cancelled"] != true {
		t.Fatalf("cancel response: %v", out)
	}
	if _, err := e.sched.Wait(job.ID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// The job view now reports the cancelled terminal state, and a
	// second cancel is acknowledged as a no-op.
	view := e.expectStatus("GET", "/api/v1/jobs/"+job.ID, e.apiKey, nil, http.StatusOK)
	if view["status"] != "cancelled" {
		t.Fatalf("status after cancel: %v", view["status"])
	}
	out = e.expectStatus("DELETE", "/api/v1/jobs/"+job.ID, e.apiKey, nil, http.StatusOK)
	if out["cancelled"] != false {
		t.Fatalf("second cancel: %v", out)
	}
	e.expectStatus("DELETE", "/api/v1/jobs/job-999", e.apiKey, nil, http.StatusNotFound)
}

func TestCancelJobAccessControl(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "p"}, http.StatusCreated)
	id := int(created["id"].(float64))
	release := make(chan struct{})
	defer close(release)
	job, err := e.sched.SubmitJob(jobs.SubmitOptions{Kind: "training", Tag: id, Priority: jobs.PriorityDefault},
		func(ctx context.Context, j *jobs.Job) error {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// A stranger cannot cancel (or even see) another project's job.
	other := e.do("POST", "/api/v1/users", "", map[string]any{"name": "snoop"})
	otherKey := other["api_key"].(string)
	e.expectStatus("DELETE", "/api/v1/jobs/"+job.ID, otherKey, nil, http.StatusNotFound)
	e.expectStatus("GET", "/api/v1/jobs/"+job.ID+"/events?mode=poll&timeout_ms=50", otherKey, nil, http.StatusNotFound)
	if job.Status() == jobs.Cancelled {
		t.Fatal("foreign cancel went through")
	}
}

func TestJobEventsLongPoll(t *testing.T) {
	e := newEnv(t)
	step := make(chan struct{})
	started := make(chan struct{})
	job, err := e.sched.Submit("train", func(ctx context.Context, j *jobs.Job) error {
		j.SetProgress("train", 25)
		j.Logf("epoch 1")
		close(started)
		<-step
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// First poll, once the job has reported progress and logged a line,
	// returns the early events without waiting.
	<-started
	out := e.expectStatus("GET", "/api/v1/jobs/"+job.ID+"/events?mode=poll&timeout_ms=5000", e.apiKey, nil, http.StatusOK)
	events := out["events"].([]any)
	if len(events) < 4 { // queued, running, progress, log
		t.Fatalf("poll events: %v", events)
	}
	first := events[0].(map[string]any)
	if first["type"] != "state" || first["status"] != "queued" || first["seq"] != 1.0 {
		t.Fatalf("first event %v", first)
	}
	if out["done"] != false {
		t.Fatal("running job reported done")
	}
	next := int64(out["next_seq"].(float64))
	// Release mid-poll, once a poll is waiting on the job's log: the long
	// poll unblocks on the next event (terminal state) instead of waiting
	// out the timeout.
	waited := make(chan bool, 1)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for job.Events.Subscribers() == 0 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		waited <- job.Events.Subscribers() > 0
		close(step)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		out = e.expectStatus("GET",
			fmt.Sprintf("/api/v1/jobs/%s/events?mode=poll&from=%d&timeout_ms=5000", job.ID, next),
			e.apiKey, nil, http.StatusOK)
		next = int64(out["next_seq"].(float64))
		if out["done"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poll never reached done")
		}
	}
	if !<-waited {
		t.Fatal("no poll waited on the job's log")
	}
	// Every event was delivered exactly once across polls: next_seq is
	// the terminal event's seq.
	all := e.expectStatus("GET", "/api/v1/jobs/"+job.ID+"/events?mode=poll", e.apiKey, nil, http.StatusOK)
	total := all["events"].([]any)
	lastEvent := total[len(total)-1].(map[string]any)
	if int64(lastEvent["seq"].(float64)) != next {
		t.Fatalf("next_seq %d, terminal seq %v", next, lastEvent["seq"])
	}
	if lastEvent["type"] != "state" || lastEvent["status"] != "finished" {
		t.Fatalf("terminal event %v", lastEvent)
	}
	// Bad cursors and timeouts are rejected.
	e.expectStatus("GET", "/api/v1/jobs/"+job.ID+"/events?mode=poll&from=x", e.apiKey, nil, http.StatusBadRequest)
	e.expectStatus("GET", "/api/v1/jobs/"+job.ID+"/events?mode=poll&timeout_ms=-1", e.apiKey, nil, http.StatusBadRequest)
}

// readEventStream consumes the NDJSON stream into decoded events. It
// returns errors rather than failing the test, so it is safe to call
// from helper goroutines.
func readEventStream(e *testEnv, path string, lastEventID string) ([]v1.JobEvent, error) {
	req, err := http.NewRequest("GET", e.server.URL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("x-api-key", e.apiKey)
	if lastEventID != "" {
		req.Header.Set("Last-Event-Id", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return nil, fmt.Errorf("stream content type %q", ct)
	}
	var events []v1.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev v1.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

func TestJobEventsStreamAndResume(t *testing.T) {
	e := newEnv(t)
	step := make(chan struct{})
	job, err := e.sched.Submit("train", func(ctx context.Context, j *jobs.Job) error {
		j.SetProgress("train", 10)
		<-step
		j.SetProgress("train", 90)
		j.Logf("nearly there")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	type streamResult struct {
		events []v1.JobEvent
		err    error
	}
	done := make(chan streamResult, 1)
	go func() {
		evs, err := readEventStream(e, "/api/v1/jobs/"+job.ID+"/events", "")
		done <- streamResult{evs, err}
	}()
	close(step)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	events := res.events
	// Ordered, contiguous, ending in the terminal event.
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d seq %d (events %v)", i, ev.Seq, events)
		}
	}
	lastEvent := events[len(events)-1]
	if !lastEvent.Terminal() || lastEvent.Status != v1.JobFinished {
		t.Fatalf("stream end: %+v", lastEvent)
	}
	// Resume via Last-Event-Id: only events after the cursor arrive,
	// and they are byte-identical to the tail of the full stream.
	mid := events[2].Seq
	resumed, err := readEventStream(e, "/api/v1/jobs/"+job.ID+"/events", fmt.Sprint(mid))
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(events)-int(mid) {
		t.Fatalf("resume after %d delivered %d events, want %d", mid, len(resumed), len(events)-int(mid))
	}
	for i, ev := range resumed {
		if ev.Seq != mid+int64(i+1) || ev.Type != events[int(mid)+i].Type {
			t.Fatalf("resume mismatch at %d: %+v vs %+v", i, ev, events[int(mid)+i])
		}
	}
	// The query parameter works as an alternative cursor.
	viaQuery, err := readEventStream(e, fmt.Sprintf("/api/v1/jobs/%s/events?from=%d", job.ID, mid), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(viaQuery) != len(resumed) {
		t.Fatalf("from= delivered %d events, want %d", len(viaQuery), len(resumed))
	}
}

func TestMetricsIncludesOrchestration(t *testing.T) {
	e := newEnv(t)
	j, _ := e.sched.SubmitJob(jobs.SubmitOptions{Kind: "training", Priority: jobs.PriorityInteractive},
		func(ctx context.Context, j *jobs.Job) error { return nil })
	e.sched.Wait(j.ID, 2*time.Second)
	out := e.expectStatus("GET", "/api/v1/metrics", e.apiKey, nil, http.StatusOK)
	sched := out["scheduler"].(map[string]any)
	byPrio, ok := sched["queued_by_priority"].(map[string]any)
	if !ok {
		t.Fatalf("no queued_by_priority: %v", sched)
	}
	for _, class := range []string{"interactive", "default", "batch"} {
		if _, ok := byPrio[class]; !ok {
			t.Fatalf("missing class %s in %v", class, byPrio)
		}
	}
	kinds, ok := sched["kinds"].([]any)
	if !ok || len(kinds) == 0 {
		t.Fatalf("no per-kind metrics: %v", sched)
	}
	kind := kinds[0].(map[string]any)
	if kind["kind"] != "training" || kind["count"].(float64) != 1 {
		t.Fatalf("kind metrics %v", kind)
	}
	// Job views carry the scheduling fields.
	view := e.expectStatus("GET", "/api/v1/jobs/"+j.ID, e.apiKey, nil, http.StatusOK)
	if view["priority"] != "interactive" {
		t.Fatalf("job priority %v", view["priority"])
	}
}

func TestTunerJobThroughAPI(t *testing.T) {
	e := newEnv(t)
	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "kws"}, http.StatusCreated)
	id := int(created["id"].(float64))
	hmacKey := created["hmac_key"].(string)
	uploadKWSData(t, e, id, hmacKey, 4)
	impulse := map[string]any{
		"name":     "kws",
		"input":    map[string]any{"kind": "time-series", "window_ms": 500, "frequency_hz": 8000, "axes": 1},
		"dsp_name": "mfe",
	}
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/impulse", id), e.apiKey, impulse, http.StatusOK)

	accepted := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/tuner", id), e.apiKey,
		map[string]any{"max_trials": 2, "epochs": 1, "seed": 7, "target": "nano-33-ble-sense"}, http.StatusAccepted)
	jobID := accepted["job_id"].(string)
	if _, err := e.sched.Wait(jobID, 120*time.Second); err != nil {
		t.Fatal(err)
	}
	view := e.expectStatus("GET", "/api/v1/jobs/"+jobID, e.apiKey, nil, http.StatusOK)
	if view["status"] != "finished" {
		t.Fatalf("tuner job: %v", view)
	}
	// Tuner runs in the batch class and reports real trial progress.
	if view["priority"] != "batch" {
		t.Fatalf("tuner priority %v", view["priority"])
	}
	events := e.expectStatus("GET", "/api/v1/jobs/"+jobID+"/events?mode=poll", e.apiKey, nil, http.StatusOK)
	sawTrials := false
	for _, raw := range events["events"].([]any) {
		ev := raw.(map[string]any)
		if ev["type"] == "progress" && ev["stage"] == "trials" {
			sawTrials = true
			if pct := ev["progress"].(float64); pct <= 0 || pct > 100 {
				t.Fatalf("trial progress %v", pct)
			}
		}
	}
	if !sawTrials {
		t.Fatal("no trial progress events")
	}
	result := e.expectStatus("GET", "/api/v1/jobs/"+jobID+"/result", e.apiKey, nil, http.StatusOK)
	trials := result["result"].([]any)
	if len(trials) != 2 {
		t.Fatalf("tuner trials: %d", len(trials))
	}
	row := trials[0].(map[string]any)
	if row["dsp"] == "" || row["model"] == "" {
		t.Fatalf("trial row: %v", row)
	}
	// Bad tuner target is rejected up front.
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/tuner", id), e.apiKey,
		map[string]any{"max_trials": 1, "target": "quantum-chip"}, http.StatusBadRequest)
}

func TestTrainQuotaMapsTo429(t *testing.T) {
	// A scheduler with a tiny per-project quota: the second training
	// submission while the first is still queued trips the quota and
	// surfaces as 429 rate_limited (not 503).
	e := newEnvWith(t, jobs.Config{MinWorkers: 1, MaxWorkers: 1, QueueSize: 8, MaxQueuedPerTag: 1})
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	if _, err := e.sched.Submit("blocker", func(ctx context.Context, j *jobs.Job) error {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	created := e.expectStatus("POST", "/api/v1/projects", e.apiKey, map[string]any{"name": "kws"}, http.StatusCreated)
	id := int(created["id"].(float64))
	impulse := map[string]any{
		"name":     "p",
		"input":    map[string]any{"kind": "time-series", "window_ms": 100, "frequency_hz": 100, "axes": 1},
		"dsp_name": "raw",
	}
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/impulse", id), e.apiKey, impulse, http.StatusOK)
	csv := "timestamp,ax\n0,1.0\n10,2.0\n"
	resp, _ := e.doRaw("POST", fmt.Sprintf("/api/v1/projects/%d/data?label=l&format=csv", id), e.apiKey, []byte(csv), "text/csv")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}
	body := map[string]any{"epochs": 1, "model": map[string]any{"type": "mlp"}}
	e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/train", id), e.apiKey, body, http.StatusAccepted)
	out := e.expectStatus("POST", fmt.Sprintf("/api/v1/projects/%d/train", id), e.apiKey, body, http.StatusTooManyRequests)
	errObj := out["error"].(map[string]any)
	if errObj["code"] != v1.CodeRateLimited {
		t.Fatalf("quota error code %v", errObj["code"])
	}
}

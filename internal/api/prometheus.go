package api

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"

	v1 "edgepulse/internal/api/v1"
)

// Prometheus text-format exposition of the operational metrics:
// GET /api/v1/metrics?format=prometheus renders the same snapshot the
// JSON endpoint returns as # TYPE-annotated gauges and counters, so a
// Prometheus scraper works against workers and the gateway without an
// exporter sidecar.

// PrometheusContentType is the text exposition format version served
// for format=prometheus.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates exposition lines, emitting each metric's
// # TYPE header once.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) metric(name, typ, help string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) value(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s %g\n", name, labels, v)
}

// promLabel renders one escaped key="value" pair.
func promLabel(key, val string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return key + `="` + r.Replace(val) + `"`
}

// RenderPrometheus writes a MetricsResponse in the Prometheus text
// exposition format. Metric names are stable API surface; counters end
// in _total per convention.
func RenderPrometheus(w io.Writer, m v1.MetricsResponse) error {
	p := &promWriter{w: w}

	p.metric("ei_uptime_seconds", "gauge", "Seconds since the process started.")
	p.value("ei_uptime_seconds", "", m.UptimeSeconds)
	p.metric("ei_requests_total", "counter", "HTTP requests observed by the middleware chain.")
	p.value("ei_requests_total", "", float64(m.Requests))
	p.metric("ei_rate_limited_total", "counter", "Requests refused by the rate limiter.")
	p.value("ei_rate_limited_total", "", float64(m.RateLimited))
	p.metric("ei_panics_total", "counter", "Handler panics recovered into 500 responses.")
	p.value("ei_panics_total", "", float64(m.Panics))

	if len(m.Routes) > 0 {
		p.metric("ei_route_requests_total", "counter", "Requests per route pattern.")
		for _, rt := range m.Routes {
			p.value("ei_route_requests_total", promLabel("route", rt.Route), float64(rt.Count))
		}
		p.metric("ei_route_errors_total", "counter", "Error responses per route pattern and class.")
		for _, rt := range m.Routes {
			p.value("ei_route_errors_total", promLabel("route", rt.Route)+","+promLabel("class", "4xx"), float64(rt.Err4xx))
			p.value("ei_route_errors_total", promLabel("route", rt.Route)+","+promLabel("class", "5xx"), float64(rt.Err5xx))
		}
		p.metric("ei_route_latency_avg_ms", "gauge", "Mean handler latency per route pattern.")
		for _, rt := range m.Routes {
			p.value("ei_route_latency_avg_ms", promLabel("route", rt.Route), rt.AvgMS)
		}
	}

	p.metric("ei_scheduler_workers", "gauge", "Live training workers.")
	p.value("ei_scheduler_workers", "", float64(m.Scheduler.Workers))
	p.metric("ei_scheduler_peak_workers", "gauge", "Most training workers live at once.")
	p.value("ei_scheduler_peak_workers", "", float64(m.Scheduler.PeakWorkers))
	p.metric("ei_scheduler_queued", "gauge", "Jobs pending in the scheduler queue.")
	p.value("ei_scheduler_queued", "", float64(m.Scheduler.Queued))
	p.metric("ei_scheduler_completed_total", "counter", "Jobs finished successfully.")
	p.value("ei_scheduler_completed_total", "", float64(m.Scheduler.Completed))
	p.metric("ei_scheduler_failed_total", "counter", "Jobs that failed terminally.")
	p.value("ei_scheduler_failed_total", "", float64(m.Scheduler.Failed))
	p.metric("ei_scheduler_cancelled_total", "counter", "Jobs cancelled.")
	p.value("ei_scheduler_cancelled_total", "", float64(m.Scheduler.Cancelled))
	p.metric("ei_scheduler_retries_total", "counter", "Transient-failure retries.")
	p.value("ei_scheduler_retries_total", "", float64(m.Scheduler.Retries))
	p.metric("ei_scheduler_scale_ups_total", "counter", "Workers added by autoscaling.")
	p.value("ei_scheduler_scale_ups_total", "", float64(m.Scheduler.ScaleUps))
	if len(m.Scheduler.QueuedByPriority) > 0 {
		p.metric("ei_scheduler_queued_by_priority", "gauge", "Pending jobs per priority class.")
		classes := make([]string, 0, len(m.Scheduler.QueuedByPriority))
		for c := range m.Scheduler.QueuedByPriority {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			p.value("ei_scheduler_queued_by_priority", promLabel("priority", c), float64(m.Scheduler.QueuedByPriority[c]))
		}
	}

	if len(m.Scheduler.Kinds) > 0 {
		p.metric("ei_scheduler_kind_jobs_total", "counter", "Terminal job runs per kind.")
		for _, k := range m.Scheduler.Kinds {
			p.value("ei_scheduler_kind_jobs_total", promLabel("kind", k.Kind), float64(k.Count))
		}
		p.metric("ei_scheduler_kind_wait_avg_ms", "gauge", "Mean queue wait per job kind.")
		for _, k := range m.Scheduler.Kinds {
			p.value("ei_scheduler_kind_wait_avg_ms", promLabel("kind", k.Kind), k.AvgWaitMS)
		}
		p.metric("ei_scheduler_kind_run_avg_ms", "gauge", "Mean run time per job kind.")
		for _, k := range m.Scheduler.Kinds {
			p.value("ei_scheduler_kind_run_avg_ms", promLabel("kind", k.Kind), k.AvgRunMS)
		}
	}

	if len(m.Streams) > 0 {
		p.metric("ei_stream_connections_active", "gauge", "Open long-lived NDJSON connections per route.")
		for _, st := range m.Streams {
			p.value("ei_stream_connections_active", promLabel("route", st.Route), float64(st.Active))
		}
		p.metric("ei_stream_connections_total", "counter", "Completed long-lived connections per route.")
		for _, st := range m.Streams {
			p.value("ei_stream_connections_total", promLabel("route", st.Route), float64(st.Count))
		}
		p.metric("ei_stream_connection_avg_seconds", "gauge", "Mean lifetime of completed connections per route.")
		for _, st := range m.Streams {
			p.value("ei_stream_connection_avg_seconds", promLabel("route", st.Route), st.AvgSeconds)
		}
	}
	if sp := m.StreamPlane; sp != nil {
		p.metric("ei_stream_sessions_active", "gauge", "Live inference sessions.")
		p.value("ei_stream_sessions_active", "", float64(sp.ActiveSessions))
		p.metric("ei_stream_sessions_peak", "gauge", "Most inference sessions live at once.")
		p.value("ei_stream_sessions_peak", "", float64(sp.PeakSessions))
		p.metric("ei_stream_sessions_opened_total", "counter", "Inference sessions ever admitted.")
		p.value("ei_stream_sessions_opened_total", "", float64(sp.Opened))
		p.metric("ei_stream_sessions_shed_total", "counter", "Session opens refused at the capacity cap.")
		p.value("ei_stream_sessions_shed_total", "", float64(sp.Shed))
		p.metric("ei_stream_frames_in_total", "counter", "Frames ingested across sessions.")
		p.value("ei_stream_frames_in_total", "", float64(sp.FramesIn))
		p.metric("ei_stream_windows_total", "counter", "Classification windows evaluated.")
		p.value("ei_stream_windows_total", "", float64(sp.Windows))
		p.metric("ei_stream_detections_total", "counter", "Detection events fired.")
		p.value("ei_stream_detections_total", "", float64(sp.Detections))
		p.metric("ei_stream_dropped_frames_total", "counter", "Frames lost to ring-buffer overruns.")
		p.value("ei_stream_dropped_frames_total", "", float64(sp.DroppedFrames))
	}

	if res := m.Resilience; res != nil {
		p.metric("ei_resilience_level", "gauge", "Admission gate shedding posture, as its label.")
		p.value("ei_resilience_level", promLabel("level", res.Level), 1)
		p.metric("ei_resilience_load_score", "gauge", "Admission gate load score (1.0 = saturated).")
		p.value("ei_resilience_load_score", "", res.Score)
		p.metric("ei_resilience_inflight", "gauge", "Currently admitted requests.")
		p.value("ei_resilience_inflight", "", float64(res.Inflight))
		p.metric("ei_resilience_shed_total", "counter", "Requests refused by the admission gate.")
		p.value("ei_resilience_shed_total", "", float64(res.Shed))
		if len(res.ShedByClass) > 0 {
			p.metric("ei_resilience_shed_by_class_total", "counter", "Gate refusals per admission class.")
			classes := make([]string, 0, len(res.ShedByClass))
			for c := range res.ShedByClass {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				p.value("ei_resilience_shed_by_class_total", promLabel("class", c), float64(res.ShedByClass[c]))
			}
		}
		p.metric("ei_resilience_deadline_timeouts_total", "counter", "Requests answered 504 at their route deadline.")
		p.value("ei_resilience_deadline_timeouts_total", "", float64(res.DeadlineTimeouts))
		p.metric("ei_resilience_stalled_jobs_total", "counter", "Jobs flagged stalled by the watchdog.")
		p.value("ei_resilience_stalled_jobs_total", "", float64(res.StalledJobs))
		p.metric("ei_resilience_watchdog_cancelled_total", "counter", "Stalled jobs cancelled by the watchdog.")
		p.value("ei_resilience_watchdog_cancelled_total", "", float64(res.WatchdogCancelled))
	}

	if rt := m.Runtime; rt != nil {
		p.metric("ei_goroutines", "gauge", "Live goroutines in the process.")
		p.value("ei_goroutines", "", float64(rt.Goroutines))
		p.metric("ei_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
		p.value("ei_heap_alloc_bytes", "", float64(rt.HeapAllocBytes))
		p.metric("ei_heap_sys_bytes", "gauge", "Heap memory obtained from the OS.")
		p.value("ei_heap_sys_bytes", "", float64(rt.HeapSysBytes))
		p.metric("ei_gc_cycles_total", "counter", "Completed GC cycles.")
		p.value("ei_gc_cycles_total", "", float64(rt.NumGC))
	}
	return p.err
}

// RuntimeSnapshot captures the process's goroutine count and heap
// gauges for the /metrics runtime block. Exported so the gateway's
// self-served metrics endpoint reports the same shape. It reads
// runtime/metrics, which unlike runtime.ReadMemStats does not stop the
// world on every scrape: HeapAllocBytes is the heap's object bytes,
// HeapSysBytes the sum of its objects, unused, free and released
// classes (MemStats' HeapSys), NumGC the completed GC cycles.
func RuntimeSnapshot() *v1.RuntimeMetrics {
	sample := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(sample)
	var heapSys uint64
	for _, s := range sample[:4] {
		heapSys += s.Value.Uint64()
	}
	return &v1.RuntimeMetrics{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: sample[0].Value.Uint64(),
		HeapSysBytes:   heapSys,
		NumGC:          uint32(sample[4].Value.Uint64()),
	}
}

package api

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	v1 "edgepulse/internal/api/v1"
)

// TestPrometheusRendersEveryField: the exposition carries every numeric
// field the JSON reports. Each numeric field of a fully populated
// MetricsResponse (one element per slice, one entry per map) gets a
// value no other field has, and each value must be some sample's value;
// the gate level is a labelled gauge.
func TestPrometheusRendersEveryField(t *testing.T) {
	var m v1.MetricsResponse
	want := map[float64]string{}
	next := 1000.0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), path)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			fill(v.Index(0), path+"[0]")
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			e := reflect.New(v.Type().Elem()).Elem()
			fill(e, path+"[k]")
			v.SetMapIndex(reflect.ValueOf("k"), e)
		case reflect.String:
			v.SetString("shed-batch")
		case reflect.Int, reflect.Int64:
			next++
			v.SetInt(int64(next))
			want[next] = path
		case reflect.Uint32, reflect.Uint64:
			next++
			v.SetUint(uint64(next))
			want[next] = path
		case reflect.Float64:
			next++
			v.SetFloat(next + 0.5)
			want[next+0.5] = path
		}
	}
	fill(reflect.ValueOf(&m).Elem(), "MetricsResponse")

	var out strings.Builder
	if err := RenderPrometheus(&out, m); err != nil {
		t.Fatal(err)
	}
	got := map[float64]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		got[v] = true
	}
	for v, path := range want {
		if !got[v] {
			t.Errorf("%s (%v) has no line in the exposition", path, v)
		}
	}
	if level := `ei_resilience_level{level="shed-batch"} 1`; !strings.Contains(out.String(), level+"\n") {
		t.Errorf("no %s line", level)
	}
}

// TestRuntimeSnapshotMatchesMemStats holds the runtime/metrics reading
// to the MemStats fields it stands for, read right after it with GC
// off: the GC count exactly, the heap gauges within 1 MiB (the two
// reads are not one instant; the test's own allocations fall between).
func TestRuntimeSnapshotMatchesMemStats(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	snap := RuntimeSnapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if snap.NumGC != ms.NumGC {
		t.Errorf("NumGC %d, MemStats %d", snap.NumGC, ms.NumGC)
	}
	const tolerance = 1 << 20
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"HeapAllocBytes", snap.HeapAllocBytes, ms.HeapAlloc},
		{"HeapSysBytes", snap.HeapSysBytes, ms.HeapSys},
	} {
		if diff := int64(c.got - c.want); diff > tolerance || diff < -tolerance {
			t.Errorf("%s %d, MemStats %d", c.name, c.got, c.want)
		}
	}
	if snap.Goroutines <= 0 || snap.HeapAllocBytes == 0 {
		t.Errorf("empty snapshot %+v", snap)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/metrics*.prom from this run")

// TestPrometheusGolden holds the exposition to the committed bytes: a
// fully populated snapshot (two elements per slice and map, label
// values that need escaping) and one whose optional blocks are nil and
// whose collections are empty. A renamed family, a changed HELP line or
// a reordered sample fails here until the golden is rewritten (-update)
// in the same change.
func TestPrometheusGolden(t *testing.T) {
	full := v1.MetricsResponse{
		Success: true, UptimeSeconds: 12.5, Requests: 101, RateLimited: 102, Panics: 103,
		Routes: []v1.RouteMetrics{
			{Route: "GET /api/v1/projects", Count: 201, Err4xx: 202, Err5xx: 203, AvgMS: 2.25},
			{Route: "GET /a\"b\\c\nd", Count: 211, Err4xx: 212, Err5xx: 213, AvgMS: 0.125},
		},
		Scheduler: v1.SchedulerMetrics{
			Workers: 3, Queued: 5, Completed: 301, Failed: 302,
			Cancelled: 303, Retries: 304,
			QueuedByPriority: map[string]int{"interactive": 6, "batch": 7},
			Kinds: []v1.JobKindMetrics{
				{Kind: "training", Count: 401, AvgWaitMS: 1.5, AvgRunMS: 2500},
				{Kind: "tu\"ner\\", Count: 411, AvgWaitMS: 0.75, AvgRunMS: 1e7},
			},
		},
		Streams: []v1.StreamRouteMetrics{
			{Route: "GET /api/v1/jobs/{job}/events", Active: 501, Count: 502, AvgSeconds: 3.5},
			{Route: "POST /s\n", Active: 511, Count: 512, AvgSeconds: 0.001},
		},
		StreamPlane: &v1.StreamPlaneMetrics{
			ActiveSessions: 601, PeakSessions: 602, Opened: 603, Shed: 604,
			FramesIn: 605, Windows: 606, Detections: 607, DroppedFrames: 608,
		},
		Resilience: &v1.ResilienceMetrics{
			Level: "shed-\"batch\"\\", Score: 0.875, Inflight: 701, Shed: 702,
			ShedByClass:      map[string]int64{"default": 703, "batch": 704},
			DeadlineTimeouts: 705, StalledJobs: 706, WatchdogCancelled: 707,
		},
		Runtime: &v1.RuntimeMetrics{Goroutines: 801, HeapAllocBytes: 1 << 33, HeapSysBytes: 123456789, NumGC: 803},
	}
	empty := v1.MetricsResponse{Success: true, UptimeSeconds: 1, Requests: 2}
	for _, c := range []struct {
		golden string
		m      v1.MetricsResponse
	}{
		{"testdata/metrics.prom", full},
		{"testdata/metrics_empty.prom", empty},
	} {
		var got bytes.Buffer
		if err := RenderPrometheus(&got, c.m); err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(c.golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("exposition differs from %s (rerun with -update if the change is meant):\n%s", c.golden, got.Bytes())
		}
	}
}

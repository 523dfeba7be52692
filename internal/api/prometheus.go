package api

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
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

// promLabel renders one escaped key="value" pair.
func promLabel(key, val string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return key + `="` + r.Replace(val) + `"`
}

// WriteMetrics answers GET /api/v1/metrics on a worker or the gateway:
// the snapshot as JSON, or in the text exposition format when the query
// asks format=prometheus.
func WriteMetrics(w http.ResponseWriter, r *http.Request, m v1.MetricsResponse) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", PrometheusContentType)
		RenderPrometheus(w, m)
		return
	}
	WriteJSON(w, http.StatusOK, m)
}

// RenderPrometheus writes a MetricsResponse in the Prometheus text
// exposition format, as the prom and help tags of the v1 metrics types
// define it. Metric names are stable API surface; counters end in
// _total per convention.
func RenderPrometheus(w io.Writer, m v1.MetricsResponse) error {
	var b strings.Builder
	promWalk(&b, reflect.ValueOf(m))
	_, err := io.WriteString(w, b.String())
	return err
}

// promWalk writes the families of a struct, a non-nil pointer to one or
// a slice of them; other kinds (an untagged bool) write nothing.
func promWalk(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			promWalk(b, v.Elem())
		}
	case reflect.Struct:
		promFields(b, v.Type(), []reflect.Value{v})
	case reflect.Slice:
		elems := make([]reflect.Value, v.Len())
		for i := range elems {
			elems[i] = v.Index(i)
		}
		promFields(b, v.Type().Elem(), elems)
	}
}

// promFields writes the families struct type t's fields define, with
// the samples of every element of elems. Untagged fields are walked
// into. A field tagged with a bare label name labels its element's
// samples in the fields after it. Consecutive fields that name one
// family form it: its samples go element by element, then field by
// field. A family without samples (no elements, an empty map) is not
// written.
func promFields(b *strings.Builder, t reflect.Type, elems []reflect.Value) {
	label := -1
	for i := 0; i < t.NumField(); {
		name, typ, _ := promTag(t.Field(i))
		if typ == "" {
			if name == "" {
				for _, e := range elems {
					promWalk(b, e.Field(i))
				}
			} else {
				label = i
			}
			i++
			continue
		}
		j := i + 1
		for j < t.NumField() && strings.HasPrefix(t.Field(j).Tag.Get("prom"), name+",") {
			j++
		}
		var samples strings.Builder
		for _, e := range elems {
			var labels []string
			if label >= 0 {
				labels = []string{promLabel(t.Field(label).Tag.Get("prom"), e.Field(label).String())}
			}
			for k := i; k < j; k++ {
				promSamples(&samples, name, labels, t.Field(k), e.Field(k))
			}
		}
		if samples.Len() > 0 {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s", name, t.Field(i).Tag.Get("help"), name, typ, samples.String())
		}
		i = j
	}
}

// promSamples writes field f's samples: one for a number (with f's
// constant label), one per sorted key for a map, and a 1 labelled with
// the value for a string.
func promSamples(b *strings.Builder, name string, labels []string, f reflect.StructField, v reflect.Value) {
	_, _, label := promTag(f)
	key, val, constant := strings.Cut(label, "=")
	switch v.Kind() {
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			promSample(b, name, append(labels, promLabel(key, k.String())), v.MapIndex(k))
		}
	case reflect.String:
		promSample(b, name, append(labels, promLabel(key, v.String())), reflect.ValueOf(1))
	default:
		if constant {
			labels = append(labels, promLabel(key, val))
		}
		promSample(b, name, labels, v)
	}
}

func promSample(b *strings.Builder, name string, labels []string, v reflect.Value) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteString("{" + strings.Join(labels, ",") + "}")
	}
	fmt.Fprintf(b, " %g\n", v.Convert(reflect.TypeFor[float64]()).Float())
}

// promTag splits a field's prom tag into its family name, type and
// label.
func promTag(f reflect.StructField) (name, typ, label string) {
	name, rest, _ := strings.Cut(f.Tag.Get("prom"), ",")
	typ, label, _ = strings.Cut(rest, ",")
	return name, typ, label
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

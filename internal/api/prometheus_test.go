package api

import (
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

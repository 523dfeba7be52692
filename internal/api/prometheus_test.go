package api

import (
	"runtime"
	"runtime/debug"
	"testing"
)

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

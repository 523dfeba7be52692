package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The convolution layers partition their output rows across a shared
// bounded worker pool when a layer is heavy enough to amortize the
// hand-off. Row chunks are disjoint slices of the output tensor and the
// per-row arithmetic is identical to the sequential path, so the result
// is bitwise-equal to a sequential run for any worker count.

// parallelMACThreshold is the minimum per-layer MAC count before row
// partitioning pays for the goroutine hand-off at the default width.
// Waking the pool's parked worker costs a fixed 50-250 us on the
// reference host and a tiled layer runs at ~20 MAC/ns, so two workers
// lose on every layer of the three reference models (the largest is
// 0.9 M MACs), draw level near 9 M and first win by more than 10% in
// every sweep at 12.8 M (docs/PERFORMANCE.md, "Row partitioning";
// BenchmarkRowSplit).
const parallelMACThreshold = 12 << 20

// convWorkerOverride, when positive, pins the row-partitioning width
// regardless of GOMAXPROCS and of the layer's size. Tests use it to
// exercise every split.
var convWorkerOverride atomic.Int32

// SetConvWorkers pins the number of row-partition workers used by
// convolution layers: with n > 1 every layer of at least two rows is
// split n ways whatever its size, with n = 1 none is. n <= 0 restores
// the default — GOMAXPROCS workers for layers of at least
// parallelMACThreshold MACs. It returns the previous override so tests
// can restore it.
func SetConvWorkers(n int) int {
	prev := convWorkerOverride.Load()
	if n < 0 {
		n = 0
	}
	convWorkerOverride.Store(int32(n))
	return int(prev)
}

// convWorkers returns the current row-partitioning width.
func convWorkers() int {
	if n := convWorkerOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// rowTask is one chunk of output rows handed to the pool.
type rowTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce sync.Once
	poolCh   chan rowTask
)

// startPool launches the shared bounded worker pool lazily, on the
// first parallel dispatch. Workers live for the process lifetime; the
// queue is bounded and the submitter runs overflow chunks inline, so
// dispatch can never deadlock even if every worker is busy.
func startPool() {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	if n > 16 {
		n = 16
	}
	poolCh = make(chan rowTask, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range poolCh {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// parallelRows splits [0, rows) into at most convWorkers() contiguous
// chunks and runs fn over them concurrently, blocking until all chunks
// complete. fn must only write output locations owned by its row range.
// The chunk boundaries depend only on rows and the worker setting —
// never on scheduling — and each row's arithmetic is self-contained, so
// output bits are identical across worker counts and interleavings.
//
// Callers must check parallelizable() first and fall back to a direct
// call, keeping the sequential path free of closure allocations.
func parallelRows(rows int, fn func(lo, hi int)) {
	n := convWorkers()
	if n > rows {
		n = rows
	}
	poolOnce.Do(startPool)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	chunk := rows / n
	rem := rows % n
	lo := 0
	// Chunks 1..n-1 go to the pool (inline on overflow); chunk 0 runs
	// on the submitting goroutine so the pool never has to be larger
	// than the machine.
	for i := 1; i < n; i++ {
		size := chunk
		if i <= rem {
			size++
		}
		t := rowTask{fn: fn, lo: rows - lo - size, hi: rows - lo, wg: &wg}
		lo += size
		select {
		case poolCh <- t:
		default:
			t.fn(t.lo, t.hi)
			t.wg.Done()
		}
	}
	fn(0, rows-lo)
	wg.Wait()
}

// parallelizable reports whether a layer with the given output rows and
// MAC count should take the row-partitioned path: always under a pinned
// width above one, by size at the default width.
func parallelizable(rows int, macs int64) bool {
	if rows < 2 {
		return false
	}
	if n := convWorkerOverride.Load(); n > 0 {
		return n > 1
	}
	return macs >= parallelMACThreshold && runtime.GOMAXPROCS(0) > 1
}

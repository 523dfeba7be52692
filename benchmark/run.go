package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// A round of set-ups sets the workload up and tears it down, over and
// over, at least setupRepeats times and for at least setupRoundFor: one
// set-up is 3 to 40 ms, a single timing of it is mostly noise, and even
// back to back they differ by a factor of two as the host's neighbours
// come and go.
const (
	setupRepeats  = 31
	setupRoundFor = 750 * time.Millisecond
)

// warmupFor is the untimed warm-up before a measured window of d: long
// enough for the DSP runtime tables, pools and plan arenas to fill.
func warmupFor(d time.Duration) time.Duration {
	if w := d / 4; w < 3*time.Second {
		return w
	}
	return 3 * time.Second
}

// timeSetups runs one round of set-ups and returns every set-up's time.
// Tear-down is not timed.
func timeSetups(name string, e env) ([]time.Duration, error) {
	var times []time.Duration
	for start := time.Now(); len(times) < setupRepeats || time.Since(start) < setupRoundFor; {
		t0 := time.Now()
		w, err := setupWorkload(name, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
		if err := w.close(); err != nil {
			return nil, fmt.Errorf("tear-down: %w", err)
		}
	}
	return times, nil
}

// quietMedian is the median of the quietShare of times that are
// shortest: set-up's counterpart of a pass's quietest blocks.
func quietMedian(times []time.Duration) time.Duration {
	sortDurations(times)
	pick := int(math.Round(quietShare * float64(len(times))))
	if pick < 1 {
		pick = 1
	}
	return median(times[:pick])
}

// setupForRun sets the workload up for a run's passes and computes what
// its checks compare against.
func setupForRun(name string, e env) (*workload, error) {
	w, err := setupWorkload(name, e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// Closing twice is harmless, so a run can defer close and still
	// call it early to check its result.
	var once sync.Once
	var closeErr error
	closeFn := w.close
	w.close = func() error {
		once.Do(func() { closeErr = closeFn() })
		return closeErr
	}
	if err := w.prepare(); err != nil {
		w.close()
		return nil, fmt.Errorf("prepare checks: %w", err)
	}
	return w, nil
}

// A pass is cut into blocks runs of consecutive calls of equal count,
// and its throughput, CPU per op and median latency are taken over the
// quietShare of the blocks that took the least time. The box is a few
// cores of a shared host whose other tenants slow it by up to 1.7x for
// seconds to minutes at a time; they only ever slow it, so the quietest
// part of a run is the part that measured the program. Over all blocks
// the same numbers spread by 20% between runs of one commit, over the
// quietest tenth by 2 to 5%. A block is 1/200 of the pass (1/8 s of a
// 25 s one): short enough to fit between the neighbours' bursts, at the
// price that what the program does less often than that (on most
// workloads, a garbage collection) can fall outside the picked blocks.
// Cutting by calls and not by the clock keeps every block's op count
// the same.
const (
	blocks     = 200
	quietShare = 0.1
)

// pass is what one closed-loop window of a workload measured.
type pass struct {
	// lat holds one latency per successful call, sorted.
	lat []time.Duration
	// attempted and failed count ops (calls × opsPerCall).
	attempted, failed int
	firstErr          error
	wall              time.Duration
	// opsPerSec, cpuPerOp and p50 are taken over the pass's quietest
	// blocks; quietCalls is how many calls those held.
	opsPerSec     float64
	cpuPerOp, p50 time.Duration
	quietCalls    int
	mem           memDelta
}

func (p pass) ok() int { return p.attempted - p.failed }

// opsErr reports the pass's failed ops, if any, as one error.
func (p pass) opsErr() error {
	if p.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d ops failed, first: %w", p.failed, p.attempted, p.firstErr)
}

// memDelta is how the Go runtime's counters moved across a pass.
type memDelta struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
	heapSys             uint64
	goroutines          int
}

// call is one successful call of a pass: when it returned and the
// process's CPU clock then (both since the pass began), and the latency
// its caller saw.
type call struct{ end, cpu, lat time.Duration }

// runPass drives the workload for d from one caller in a closed loop:
// the next call is sent only when the previous one has returned. One
// caller, because the box has two cores and the daemon runs in this
// process: the caller and the handler serving it take turns on one core
// and the other is left to the garbage collector and the convolution
// pool, so a pass measures the program and not the scheduler. With rec
// set, every call is wrapped in a span.
func runPass(w *workload, d time.Duration, rec *recorder) (pass, error) {
	var before, after runtime.MemStats
	goroutines := runtime.NumGoroutine()
	runtime.ReadMemStats(&before)
	cpu0, err := cpuTime()
	if err != nil {
		return pass{}, err
	}

	var p pass
	calls := make([]call, 0, 1<<14)
	start := time.Now()
	for time.Since(start) < d {
		i := w.next
		w.next++
		sc := spanCtx{}
		if rec != nil {
			sc = spanCtx{rec, rec.begin(w.spanName, 0, i)}
		}
		lat, err := w.call(sc, i)
		if rec != nil {
			rec.end(sc.id)
		}
		p.attempted += w.opsPerCall
		if err != nil {
			p.failed += w.opsPerCall
			if p.firstErr == nil {
				p.firstErr = err
			}
			continue
		}
		cpu, err := cpuTime()
		if err != nil {
			return pass{}, err
		}
		calls = append(calls, call{end: time.Since(start), cpu: cpu - cpu0, lat: lat})
	}
	p.wall = time.Since(start)

	runtime.ReadMemStats(&after)
	p.mem = memDelta{
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		heapSys:    after.HeapSys,
		goroutines: runtime.NumGoroutine() - goroutines,
	}
	p.quiet(calls, w.opsPerCall)
	for _, c := range calls {
		p.lat = append(p.lat, c.lat)
	}
	sortDurations(p.lat)
	return p, nil
}

// minQuietCalls is the least number of calls the quietest blocks must
// hold: a median with ten samples on either side.
const minQuietCalls = 2 * minBeyond

// quiet cuts calls (in the order they returned) into blocks, picks the
// quietShare of them that took the least time (more when those hold
// fewer than minQuietCalls calls) and fills in the pass's ops per second,
// CPU per op and median latency over the picked blocks. A block runs
// from the return of the call before its first to the return of its
// last, so the generator's own work and a failed call's time count
// against the block they fell in.
func (p *pass) quiet(calls []call, opsPerCall int) {
	per := len(calls) / blocks
	if per == 0 {
		per = 1
	}
	type block struct {
		first          int // index of the block's first call
		wall, cpuSpent time.Duration
	}
	var all []block
	var prev call
	for b := per; b <= len(calls); b += per {
		last := calls[b-1]
		all = append(all, block{b - per, last.end - prev.end, last.cpu - prev.cpu})
		prev = last
	}
	sort.Slice(all, func(i, j int) bool { return all[i].wall < all[j].wall })
	pick := int(math.Round(quietShare * float64(len(all))))
	for pick < len(all) && pick*per < minQuietCalls {
		pick++
	}
	var wall, cpuSpent time.Duration
	var lat []time.Duration
	for _, b := range all[:pick] {
		wall += b.wall
		cpuSpent += b.cpuSpent
		for _, c := range calls[b.first : b.first+per] {
			lat = append(lat, c.lat)
		}
	}
	if len(lat) == 0 {
		return
	}
	ops := len(lat) * opsPerCall
	sortDurations(lat)
	p.opsPerSec = float64(ops) / wall.Seconds()
	p.cpuPerOp = cpuSpent / time.Duration(ops)
	p.p50 = median(lat)
	p.quietCalls = len(lat)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runMeasured is a --trace 0 run: timed set-up, untimed warm-up, one
// measured window with tracing off, output checks, end-to-end metrics.
func runMeasured(name string, seed int64, d time.Duration, outDir string, log io.Writer) (result, error) {
	in, err := newInputs(seed)
	if err != nil {
		return result{}, err
	}
	e := env{in: in, outDir: outDir}
	setups, err := timeSetups(name, e)
	if err != nil {
		return result{}, err
	}
	w, err := setupForRun(name, e)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	warm, err := runPass(w, warmupFor(d), nil)
	if err != nil {
		return result{}, err
	}
	p, err := runPass(w, d, nil)
	if err != nil {
		return result{}, err
	}

	res := result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	check := func(what string, err error) {
		if err != nil {
			res.Correct = false
			fmt.Fprintf(log, "CHECK FAILED: %s: %v\n", what, err)
		}
	}
	check("warm-up ops", warm.opsErr())
	check("ops", p.opsErr())
	check("end-of-run output check", w.finish())
	check("tear-down", w.close())

	// A second round of set-ups, a whole run after the first, so that
	// one busy spell of the host does not cover them all.
	again, err := timeSetups(name, e)
	if err != nil {
		return result{}, err
	}
	setup := quietMedian(append(setups, again...))

	if p.quietCalls < minQuietCalls {
		return res, fmt.Errorf("latency_p50_ms needs %d calls, the window gave %d: lengthen the run", minQuietCalls, len(p.lat))
	}
	res.Metrics["throughput_ops_s"] = metric{p.opsPerSec, "1/s"}
	res.Metrics["latency_p50_ms"] = metric{ms(p.p50), "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{ms(p.cpuPerOp), "ms"}
	res.Metrics["setup_s"] = metric{setup.Seconds(), "s"}

	fmt.Fprintf(log, "workload %s  seed %d  measured %.2fs  one caller, closed loop\n", name, seed, p.wall.Seconds())
	fmt.Fprintf(log, "ops attempted %d  failed %d  error_rate %.6f  latency samples n=%d, %d in the quietest blocks\n",
		p.attempted, p.failed, float64(p.failed)/float64(p.attempted), len(p.lat), p.quietCalls)
	printMetrics(log, res.Metrics)
	return res, nil
}

func printMetrics(log io.Writer, m map[string]metric) {
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(log, "%-32s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

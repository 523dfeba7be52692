package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// consistencyCheck compares two numbers that should agree if the trace
// accounts for the time. A gap is flagged, not failed: the first
// unexplained share is what the next perf issue is about.
type consistencyCheck struct {
	Name    string  `json:"name"`
	Got     float64 `json:"got"`
	Want    float64 `json:"want"`
	Unit    string  `json:"unit"`
	Flagged bool    `json:"flagged"`
}

func compareWithin(name string, got, want float64, unit string, tolerance float64) consistencyCheck {
	return consistencyCheck{name, got, want, unit, math.Abs(got-want) > tolerance*math.Abs(want)}
}

// runTraced is a --trace 1 run. It splits d between a pass of the
// workload with span recording off and one with it on (their difference
// is the tracing overhead; the recorded one gives the client-side
// numbers) and the layer replay; then it prints the
// per-layer metrics and the consistency report and leaves every span in
// outDir/trace_<workload>.json.
func runTraced(name string, seed int64, d time.Duration, outDir string, log io.Writer) (result, error) {
	in, err := newInputs(seed)
	if err != nil {
		return result{}, err
	}
	rec, wire := newRecorder(), &wireBytes{}
	w, err := setupForRun(name, env{in: in, outDir: outDir, rec: rec, wire: wire})
	if err != nil {
		return result{}, err
	}
	defer w.close()
	fix, err := newLayerFixture(outDir)
	if err != nil {
		return result{}, err
	}
	defer fix.close()

	if _, err := runPass(w, warmupFor(d)/2, nil); err != nil {
		return result{}, err
	}
	off, err := runPass(w, d/4, nil)
	if err != nil {
		return result{}, err
	}
	on, err := runPass(w, d/4, rec)
	if err != nil {
		return result{}, err
	}
	calls := wire.calls.Load()
	reqBytes, respBytes := wire.req.Load(), wire.resp.Load()
	genCPU, err := generatorCPU(w, d/16)
	if err != nil {
		return result{}, err
	}

	lr := &layerReplay{rec: rec, slice: d / 4 / 64, metrics: map[string]metric{}}
	res := result{Correct: true, Metrics: lr.metrics}
	for _, p := range []pass{off, on} {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if err := p.opsErr(); err != nil {
			res.Correct = false
			fmt.Fprintf(log, "CHECK FAILED: %v\n", err)
		}
	}
	if err := w.finish(); err != nil {
		res.Correct = false
		fmt.Fprintf(log, "CHECK FAILED: end-of-run output check: %v\n", err)
	}
	if err := w.close(); err != nil {
		res.Correct = false
		fmt.Fprintf(log, "CHECK FAILED: tear-down: %v\n", err)
	}

	// The replay runs after the workload is torn down, so it sees the
	// system as a fresh process configures it.
	if err := lr.run(fix, in); err != nil {
		return result{}, fmt.Errorf("layer replay: %w", err)
	}

	// --- client: the caller's view, self time from real nesting ---
	spans := rec.snapshot()
	kids := childrenOf(spans)
	var selfs, handlers []time.Duration
	var worstResidual time.Duration
	for _, s := range spans {
		if s.Name != w.spanName {
			continue
		}
		self := selfTime(s, kids[s.ID])
		selfs = append(selfs, self)
		var covered time.Duration
		for _, k := range kids[s.ID] {
			covered += k.dur()
			if k.Name == "api.handler" {
				handlers = append(handlers, k.dur())
			}
		}
		if r := s.dur() - self - covered; r < 0 && -r > worstResidual {
			worstResidual = -r
		} else if r > worstResidual {
			worstResidual = r
		}
	}
	sortDurations(selfs)
	sortDurations(handlers)
	lr.count("client.call_ms", "ms", ms(median(on.lat)))
	lr.count("client.wire_self_ms", "ms", ms(median(selfs)))
	p90, _, _ := percentile(off.lat, 0.90)
	lr.count("client.latency_p90_ms", "ms", ms(p90))
	p99, n, _ := percentile(off.lat, 0.99)
	lr.count("client.latency_p99_ms", "ms", ms(p99))
	lr.count("client.latency_n", "count", float64(n))
	perCall := func(total int64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(total) / float64(calls)
	}
	lr.count("client.req_bytes", "bytes", perCall(reqBytes))
	lr.count("client.resp_bytes", "bytes", perCall(respBytes))
	lr.count("client.conns_opened", "count", float64(w.dials.n.Load()))

	// --- runtime: the Go runtime's counters across the untraced pass ---
	ops := float64(off.ok())
	lr.count("runtime.allocs_per_op", "count", float64(off.mem.mallocs)/ops)
	lr.count("runtime.alloc_kb_per_op", "kb", float64(off.mem.allocBytes)/1024/ops)
	lr.count("runtime.gc_cycles", "count", float64(off.mem.gcCycles))
	lr.count("runtime.gc_pause_ms", "ms", ms(off.mem.gcPause))
	lr.count("runtime.peak_heap_mb", "mb", float64(off.mem.heapSys)/(1<<20))
	lr.count("runtime.goroutines_delta", "count", float64(off.mem.goroutines))

	// --- bench: what the benchmark itself costs ---
	lr.count("bench.trace_overhead_pct", "%", 100*(off.opsPerSec-on.opsPerSec)/off.opsPerSec)
	lr.count("bench.generator_cpu_share", "ratio", float64(genCPU)/float64(off.cpuPerOp*time.Duration(w.opsPerCall)))

	// --- consistency: does the trace add up? ---
	var checks []consistencyCheck
	checks = append(checks, consistencyCheck{
		Name: "span children + self - parent (worst)", Got: us(worstResidual), Want: 0, Unit: "us", Flagged: worstResidual > time.Microsecond,
	})
	if len(handlers) > 0 {
		live := ms(median(handlers))
		replayed := map[string]string{
			"serve_classify": "api.handler_classify_ms", "serve_batch_i8": "api.handler_batch_ms", "ingest_upload": "api.handler_upload_ms",
		}[name]
		checks = append(checks,
			compareWithin("client.call_ms vs live api.handler + client.wire_self_ms", lr.value("client.call_ms"), live+lr.value("client.wire_self_ms"), "ms", 0.05),
			compareWithin("live api.handler vs replayed "+replayed, live, lr.value(replayed), "ms", 0.15),
		)
		if name == "serve_classify" {
			share := 1 - lr.value("core.classify_f32_us_kws")/1000/lr.value("client.call_ms")
			checks = append(checks, consistencyCheck{"api + client share of client.call_ms (predicted >= 0.60)", share, 0.60, "ratio", share < 0.60})
		}
	} else {
		engines := 1 - lr.value("client.wire_self_ms")/lr.value("client.call_ms")
		checks = append(checks, consistencyCheck{"engine share of one rotation (predicted >= 0.90)", engines, 0.90, "ratio", engines < 0.90})
	}
	// The recorded pass and the one before it run the same calls from the
	// same single caller, so their medians differ by what recording costs.
	checks = append(checks, compareWithin("latency_p50_ms without recording vs client.call_ms",
		ms(median(off.lat)), lr.value("client.call_ms"), "ms", 0.15))

	fmt.Fprintf(log, "workload %s  seed %d  traced: %d spans, %d ops without / %d with recording\n",
		name, seed, len(spans), off.ok(), on.ok())
	printMetrics(log, lr.metrics)
	fmt.Fprintln(log, "consistency (flagged, not failed):")
	for _, c := range checks {
		mark := "ok     "
		if c.Flagged {
			mark = "FLAGGED"
		}
		fmt.Fprintf(log, "  %s %-72s got %10.4f want %10.4f %s\n", mark, c.Name, c.Got, c.Want, c.Unit)
	}
	path := filepath.Join(outDir, "trace_"+name+".json")
	if err := writeTrace(path, traceFile{Workload: name, Seed: seed, Metrics: lr.metrics, Checks: checks, Spans: spans}); err != nil {
		return res, err
	}
	fmt.Fprintf(log, "spans written to %s\n", path)
	return res, nil
}

// generatorCPU returns the CPU one call costs the load generator alone:
// the workload's generate loop, run without the system for about d.
func generatorCPU(w *workload, d time.Duration) (time.Duration, error) {
	if w.generate == nil {
		return 0, nil
	}
	cpu0, err := cpuTime()
	if err != nil {
		return 0, err
	}
	n := 0
	for start := time.Now(); time.Since(start) < d || n == 0; n++ {
		if err := w.generate(n); err != nil {
			return 0, fmt.Errorf("generator loop: %w", err)
		}
	}
	cpu1, err := cpuTime()
	return (cpu1 - cpu0) / time.Duration(n), err
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

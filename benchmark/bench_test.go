package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	mk := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(i+1) * time.Millisecond
		}
		return d
	}
	// p90 of 100 samples is the 90th: exactly 10 lie beyond it.
	v, n, ok := percentile(mk(100), 0.90)
	if !ok || n != 100 || v != 90*time.Millisecond {
		t.Fatalf("p90 of 100: got %v n=%d ok=%v", v, n, ok)
	}
	// One sample fewer beyond it and the percentile is refused, but n
	// is still reported.
	if _, n, ok := percentile(mk(99), 0.90); ok || n != 99 {
		t.Fatalf("p90 of 99 must be refused with n=99, got n=%d ok=%v", n, ok)
	}
	if _, n, ok := percentile(mk(500), 0.99); ok || n != 500 {
		t.Fatalf("p99 of 500 has 5 samples beyond it and must be refused, got n=%d ok=%v", n, ok)
	}
	if _, n, ok := percentile(nil, 0.5); ok || n != 0 {
		t.Fatalf("empty sample must be refused, got n=%d ok=%v", n, ok)
	}
}

func TestQuietBlocksIgnoreABurst(t *testing.T) {
	// 4000 calls of 5 ms costing 4 ms of CPU each; during a burst the
	// host slows them to 8 ms and 6 ms.
	mk := func(slowFrom, slowTo int) []call {
		var calls []call
		var end, cpu time.Duration
		for i := 0; i < 4000; i++ {
			lat, spent := 5*time.Millisecond, 4*time.Millisecond
			if i >= slowFrom && i < slowTo {
				lat, spent = 8*time.Millisecond, 6*time.Millisecond
			}
			end += lat
			cpu += spent
			calls = append(calls, call{end: end, cpu: cpu, lat: lat})
		}
		return calls
	}
	for _, c := range []struct {
		name             string
		slowFrom, slowTo int
	}{{"no burst", 0, 0}, {"a burst over a third of the pass", 1000, 2400}, {"bursts over three quarters", 500, 3500}} {
		var p pass
		p.quiet(mk(c.slowFrom, c.slowTo), 2)
		if p.opsPerSec != 400 || p.cpuPerOp != 2*time.Millisecond || p.p50 != 5*time.Millisecond || p.quietCalls != 400 {
			t.Errorf("%s: %.1f ops/s, %v CPU per op, p50 %v over %d calls; want 400, 2ms, 5ms, 400",
				c.name, p.opsPerSec, p.cpuPerOp, p.p50, p.quietCalls)
		}
	}
	// Slow from end to end, the pass reports the slow numbers.
	var p pass
	p.quiet(mk(0, 4000), 2)
	if p.opsPerSec != 250 || p.cpuPerOp != 3*time.Millisecond || p.p50 != 8*time.Millisecond {
		t.Errorf("all slow: %.1f ops/s, %v CPU per op, p50 %v; want 250, 3ms, 8ms", p.opsPerSec, p.cpuPerOp, p.p50)
	}
	// A short pass widens its pick until the median has ten calls on
	// either side, and says how many it has when even that fails.
	p = pass{}
	p.quiet(mk(0, 0)[:50], 1)
	if p.quietCalls != minQuietCalls {
		t.Errorf("50 calls: picked %d, want %d", p.quietCalls, minQuietCalls)
	}
	p = pass{}
	p.quiet(mk(0, 0)[:7], 1)
	if p.quietCalls != 7 {
		t.Errorf("7 calls: picked %d, want all 7", p.quietCalls)
	}
	p = pass{}
	p.quiet(nil, 1)
	if p.quietCalls != 0 || p.opsPerSec != 0 {
		t.Errorf("no calls: picked %d, %.1f ops/s", p.quietCalls, p.opsPerSec)
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children are not subtracted twice", []span{{Start: 110, End: 150}, {Start: 130, End: 160}}, 50},
		{"nested child adds nothing", []span{{Start: 110, End: 160}, {Start: 120, End: 130}}, 50},
		{"children sticking out are clipped", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"child outside the parent", []span{{Start: 300, End: 400}}, 100},
		{"unsorted input", []span{{Start: 150, End: 170}, {Start: 110, End: 120}}, 70},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestRecorderSharedByGoroutines uses the recorder harder than a traced
// pass does: several callers open and close spans while handler
// goroutines hang children under them. Run it with -race.
func TestRecorderSharedByGoroutines(t *testing.T) {
	rec := newRecorder()
	const callers, calls = 4, 200
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				sc := spanCtx{rec, rec.begin("client.call", 0, i*callers+c)}
				served := make(chan struct{})
				go func() {
					defer close(served)
					if !rec.valid(sc.id) {
						t.Error("open span is not valid")
					}
					sc.child("api.handler", func() {})
				}()
				<-served
				rec.end(sc.id)
			}
		}(c)
	}
	wg.Wait()
	spans := rec.snapshot()
	if len(spans) != 2*callers*calls {
		t.Fatalf("%d spans recorded, want %d", len(spans), 2*callers*calls)
	}
	for _, kids := range childrenOf(spans) {
		parent := spans[kids[0].Parent-1]
		if len(kids) != 1 || kids[0].Req != parent.Req || kids[0].Start < parent.Start || kids[0].End > parent.End {
			t.Fatalf("child %+v does not sit inside its parent %+v", kids, parent)
		}
	}
}

func TestSeedFixesRequestBodies(t *testing.T) {
	bodies := func(seed int64) [][]byte {
		in, err := newInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, mk := range []func() ([]byte, error){
			func() ([]byte, error) { return in.classifyBody(3) },
			func() ([]byte, error) { return in.batchBody(60) },
			func() ([]byte, error) { return in.uploadDoc(5, "hmac_fixed") },
		} {
			b, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	a, again, other := bodies(7), bodies(7), bodies(8)
	for i := range a {
		if !bytes.Equal(a[i], again[i]) {
			t.Errorf("body %d differs between two runs of seed 7", i)
		}
		if bytes.Equal(a[i], other[i]) {
			t.Errorf("body %d is the same for seeds 7 and 8", i)
		}
	}
	in, err := newInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := in.uploadDoc(5, "k")
	y, _ := in.uploadDoc(6, "k")
	if bytes.Equal(x, y) {
		t.Error("two uploads of one run carry the same document")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3, err := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10: %v %v %v", q1, q3, err)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3, _ := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Fatalf("quartiles of [3 1]: %v %v", q1, q3)
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Fatal("one value has no quartiles")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "ok"},
		{"latency up 20%", steady, []float64{120, 121, 119}, "lower", "regressed"},
		{"latency down 20%", steady, []float64{80, 81}, "lower", "ok"},
		{"throughput down 20%", steady, []float64{80, 81}, "higher", "regressed"},
		{"throughput up 20%", steady, []float64{120}, "higher", "ok"},
		{"A too noisy to tell", []float64{60, 100, 140, 80, 120}, []float64{150}, "lower", "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func readDefinition(t *testing.T) definition {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def definition
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatal(err)
	}
	return def
}

func TestDefinitionIsWellFormed(t *testing.T) {
	def := readDefinition(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(def.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads defined, the program has %d", len(def.Workloads), len(workloadNames))
	}
	for i, w := range def.Workloads {
		use(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program calls it %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range def.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is out of the contract's limits", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range def.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is out of the contract's limits", m)
		}
	}
	if n := len(def.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1..128", n)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d", def.RunSeconds)
	}
}

// TestSmoke runs every workload briefly with its checks on and holds
// the output to BENCHMARK.json: every named metric present and finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for 2 s")
	}
	def := readDefinition(t)
	const d = 2 * time.Second // serve_batch_i8 needs 1 to 2 s for the 20 requests its median takes
	finite := func(what string, res result, name, unit string) {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for _, w := range def.Workloads {
		res, err := runMeasured(w.Name, 1, d, t.TempDir(), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(def.EndToEnd) {
			t.Errorf("%s: %d metrics printed, %d defined", w.Name, len(res.Metrics), len(def.EndToEnd))
		}
		for _, m := range def.EndToEnd {
			finite(w.Name, res, m.Name, m.Unit)
		}
	}
	// Any traced run reports every per-layer metric; one is enough here.
	res, err := runTraced("ingest_upload", 1, d, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(def.PerLayer) {
		t.Errorf("traced: %d metrics printed, %d defined", len(res.Metrics), len(def.PerLayer))
	}
	for _, m := range def.PerLayer {
		finite("traced", res, m.Name, m.Unit)
	}
}

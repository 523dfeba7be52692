package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/tensor"
)

// batchImpulse builds a trained+quantized tone impulse for batch tests
// and benchmarks.
func batchImpulse(t testing.TB) *Impulse {
	imp := toneImpulse(t)
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	model, err := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.InitWeights(model, 3); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	if err := imp.Quantize(toneDataset(t, 4)); err != nil {
		t.Fatal(err)
	}
	return imp
}

// batchWindows synthesizes n full windows of mixed tones.
func batchWindows(n int) [][]float32 {
	rng := rand.New(rand.NewSource(9))
	out := make([][]float32, n)
	for i := range out {
		freq := 300 + rng.Float64()*2400
		w := make([]float32, 4000)
		for j := range w {
			w[j] = 0.5 * float32(math.Sin(2*math.Pi*freq*float64(j)/8000))
		}
		out[i] = w
	}
	return out
}

// TestClassifyBatchMatchesSingles pins the batch path to the single-window
// path bit for bit, in both precisions.
func TestClassifyBatchMatchesSingles(t *testing.T) {
	imp := batchImpulse(t)
	windows := batchWindows(6)
	for _, quantized := range []bool{false, true} {
		got, err := imp.ClassifyBatch(windows, quantized)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(windows) {
			t.Fatalf("quantized=%v: %d results for %d windows", quantized, len(got), len(windows))
		}
		for i, w := range windows {
			sig := dsp.Signal{Data: w, Rate: 8000, Axes: 1}
			var want ClassResult
			if quantized {
				want, err = imp.ClassifyQuantized(sig)
			} else {
				want, err = imp.Classify(sig)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Label != want.Label {
				t.Fatalf("quantized=%v window %d: batch label %q != single %q", quantized, i, got[i].Label, want.Label)
			}
			for class, p := range want.Scores {
				if got[i].Scores[class] != p {
					t.Fatalf("quantized=%v window %d class %s: batch %v != single %v", quantized, i, class, got[i].Scores[class], p)
				}
			}
		}
	}
}

// TestClassifyBatchShortWindowMatchesSingle checks a short window gets
// the same zero-pad treatment in a batch as on the single-window path.
func TestClassifyBatchShortWindowMatchesSingle(t *testing.T) {
	imp := batchImpulse(t)
	windows := batchWindows(3)
	windows[1] = windows[1][:700] // short: zero-padded to one window
	got, err := imp.ClassifyBatch(windows, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := imp.Classify(dsp.Signal{Data: windows[1], Rate: 8000, Axes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Label != want.Label {
		t.Fatalf("short window: batch label %q != single %q", got[1].Label, want.Label)
	}
	for class, p := range want.Scores {
		if got[1].Scores[class] != p {
			t.Fatalf("short window class %s: batch %v != single %v", class, got[1].Scores[class], p)
		}
	}
}

// BenchmarkClassifySingle measures the per-window cost of the one-shot
// path (DSP + float inference), the baseline the batch path amortizes.
func BenchmarkClassifySingle(b *testing.B) {
	imp := batchImpulse(b)
	sig := dsp.Signal{Data: batchWindows(1)[0], Rate: 8000, Axes: 1}
	if _, err := imp.Classify(sig); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imp.Classify(sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyBatch32 measures a 32-window batch per op; ns/op ÷ 32
// is the amortized per-window cost the batched endpoint delivers.
func BenchmarkClassifyBatch32(b *testing.B) {
	imp := batchImpulse(b)
	windows := batchWindows(32)
	if _, err := imp.ClassifyBatch(windows, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imp.ClassifyBatch(windows, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(windows)), "ns/window")
}

// BenchmarkClassifyBatch8Quantized measures the served shape: an
// 8-window int8 batch per op, the body serve_batch_i8 sends. Run at
// -cpu 1 it is the sequential loop; wider, the windows fan out.
func BenchmarkClassifyBatch8Quantized(b *testing.B) {
	imp := batchImpulse(b)
	windows := batchWindows(8)
	if _, err := imp.ClassifyBatch(windows, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imp.ClassifyBatch(windows, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(windows)), "ns/window")
}

// BenchmarkClassifyBatch8QuantizedParallel is the served shape on a
// busy host: GOMAXPROCS callers send 8-window int8 batches at once, so
// a batch finds no idle core for its workers. ns/window is wall time
// over all callers' windows.
func BenchmarkClassifyBatch8QuantizedParallel(b *testing.B) {
	imp := batchImpulse(b)
	windows := batchWindows(8)
	if _, err := imp.ClassifyBatch(windows, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := imp.ClassifyBatch(windows, true); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(windows)), "ns/window")
}

// BenchmarkClassifyQuantizedBesideBatches times single int8 classifies
// while another goroutine sends 8-window int8 batches without pause:
// what a batch's workers cost the other requests on a host with no
// idle core. It reports the singles' p50 and p99 and the windows per
// second the batch side got through meanwhile.
func BenchmarkClassifyQuantizedBesideBatches(b *testing.B) {
	imp := batchImpulse(b)
	windows := batchWindows(8)
	sig := dsp.Signal{Data: windows[0], Rate: 8000, Axes: 1}
	if _, err := imp.ClassifyQuantized(sig); err != nil {
		b.Fatal(err)
	}
	var stop atomic.Bool
	var batches atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if _, err := imp.ClassifyBatch(windows, true); err != nil {
				b.Error(err)
				return
			}
			batches.Add(1)
		}
	}()
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		start := time.Now()
		if _, err := imp.ClassifyQuantized(sig); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	stop.Store(true)
	<-done
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-us")
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
	b.ReportMetric(float64(batches.Load())*float64(len(windows))/b.Elapsed().Seconds(), "batch-windows/s")
}

// Sentinel first samples that make faultBlock fail a window.
const (
	errSample   = 12345
	panicSample = -12345
)

// faultBlock is an MFE block that fails on marked windows: Extract
// returns an error when the window's first sample is errSample and
// panics when it is panicSample.
type faultBlock struct{ dsp.Block }

func (faultBlock) Name() string { return "batch-fault" }

func (b faultBlock) Extract(sig dsp.Signal) (*tensor.F32, error) {
	switch sig.Data[0] {
	case errSample:
		return nil, errors.New("marked window")
	case panicSample:
		panic(faultPanic{})
	}
	return b.Block.Extract(sig)
}

// faultPanic is the value faultBlock panics with.
type faultPanic struct{}

func init() {
	dsp.Register("batch-fault", func(params map[string]float64) (dsp.Block, error) {
		mfe, err := dsp.New("mfe", params)
		return faultBlock{mfe}, err
	})
}

// faultImpulse is batchImpulse with its MFE block swapped for the
// registered faultBlock, so marked windows fail and the rest classify.
func faultImpulse(t testing.TB) *Impulse {
	imp := batchImpulse(t)
	block, err := dsp.New("batch-fault", imp.DSP[0].Block.Params())
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)
	return imp
}

// markedWindows returns n tone windows with the first sample of each
// window in marks replaced by its sentinel.
func markedWindows(n int, marks map[int]float32) [][]float32 {
	windows := batchWindows(n)
	for i, v := range marks {
		windows[i] = append([]float32{v}, windows[i][1:]...)
	}
	return windows
}

// wideProcs lets the test take the fanned-out path even on a one-CPU
// runner (or under -cpu 1), restoring GOMAXPROCS when it ends.
func wideProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// settleGoroutines waits until the goroutine count is back to base: a
// batch worker has called Done before it exits, so the count may lag
// the join by a moment, but it must not stay up.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the batch, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestClassifyBatchReportsLowestFailingWindow requires the fanned-out
// batch to report the error a sequential loop would: windows 2 and 5
// fail, and every run names window 2.
func TestClassifyBatchReportsLowestFailingWindow(t *testing.T) {
	wideProcs(t)
	imp := faultImpulse(t)
	windows := markedWindows(8, map[int]float32{2: errSample, 5: errSample})
	base := runtime.NumGoroutine()
	for run := 0; run < 200; run++ {
		res, err := imp.ClassifyBatch(windows, run%2 == 1)
		if err == nil || res != nil {
			t.Fatalf("run %d: %d results, err %v", run, len(res), err)
		}
		if !strings.HasPrefix(err.Error(), "core: batch window 2: ") {
			t.Fatalf("run %d: %v", run, err)
		}
		settleGoroutines(t, base)
	}
}

// TestClassifyBatchPanicReachesCaller requires a panic in any window to
// surface on the caller's goroutine, after the workers have stopped, as
// a *WindowPanic carrying the window, the original value and a stack
// that names the panicking frame; and a lower-index error to win over a
// higher-index panic, as in a sequential loop.
func TestClassifyBatchPanicReachesCaller(t *testing.T) {
	wideProcs(t)
	imp := faultImpulse(t)
	classify := func(windows [][]float32) (p any, err error) {
		defer func() { p = recover() }()
		_, err = imp.ClassifyBatch(windows, false)
		return nil, err
	}
	base := runtime.NumGoroutine()
	for run := 0; run < 50; run++ {
		p, err := classify(markedWindows(8, map[int]float32{3: panicSample}))
		wp, ok := p.(*WindowPanic)
		if !ok || err != nil || wp.Window != 3 || wp.Value != (faultPanic{}) {
			t.Fatalf("run %d: recovered %v, err %v", run, p, err)
		}
		if !strings.Contains(string(wp.Stack), "core.faultBlock.Extract") {
			t.Fatalf("run %d: stack names no panicking frame:\n%s", run, wp.Stack)
		}
		settleGoroutines(t, base)

		p, err = classify(markedWindows(8, map[int]float32{1: errSample, 6: panicSample}))
		if p != nil || err == nil || !strings.HasPrefix(err.Error(), "core: batch window 1: ") {
			t.Fatalf("run %d: error before panic: recovered %v, err %v", run, p, err)
		}
		settleGoroutines(t, base)
	}
	// A clean batch afterwards still matches the single-window path.
	windows := batchWindows(8)
	got, err := imp.ClassifyBatch(windows, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		want, err := imp.Classify(dsp.Signal{Data: w, Rate: 8000, Axes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got[i], want); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	settleGoroutines(t, base)
}

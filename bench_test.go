// Repository-level benchmarks: one per paper table/figure (wrapping the
// internal/bench harness) plus ablation benchmarks for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package edgepulse_test

import (
	"math/rand"
	"testing"

	"edgepulse/internal/bench"
	"edgepulse/internal/device"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/renode"
	"edgepulse/internal/search"
	"edgepulse/internal/tensor"
	"edgepulse/internal/tflm"

	eonc "edgepulse/internal/eon"
)

// BenchmarkTable1Platforms renders the evaluation platform table.
func BenchmarkTable1Platforms(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := bench.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Latency regenerates the cross-hardware latency table
// (3 workloads × 3 boards × 2 precisions through the cycle simulator).
func BenchmarkTable2Latency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, cells, err := bench.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 18 {
			b.Fatalf("%d cells", len(cells))
		}
	}
}

// BenchmarkTable3Tuner runs a quick EON Tuner exploration per iteration
// (train + profile several DSP×NN candidates).
func BenchmarkTable3Tuner(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, trials, err := bench.Table3(bench.Table3Options{Quick: true, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(trials) == 0 {
			b.Fatal("no trials")
		}
	}
}

// BenchmarkTable4Memory regenerates the memory estimation table.
func BenchmarkTable4Memory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, cells, err := bench.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 12 {
			b.Fatalf("%d cells", len(cells))
		}
	}
}

// BenchmarkTable5Matrix renders the platform comparison.
func BenchmarkTable5Matrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Table5()
	}
}

// BenchmarkFig1Workflow renders the workflow/feature mapping.
func BenchmarkFig1Workflow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Fig1()
	}
}

// BenchmarkFig2Dataflow renders the impulse dataflow diagram.
func BenchmarkFig2Dataflow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Fig2()
	}
}

// BenchmarkFig3TunerView renders the tuner result view from one quick
// tuner run.
func BenchmarkFig3TunerView(b *testing.B) {
	b.ReportAllocs()
	_, trials, err := bench.Table3(bench.Table3Options{Quick: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Fig3(trials)
	}
}

// --- Ablations ---

func kwsModelAndQuant(b testing.TB) (*nn.Model, *quant.QModel, *tensor.F32) {
	b.Helper()
	m := models.KWSDSCNN(49, 10, 12)
	if err := nn.InitWeights(m, 1); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	in := tensor.NewF32(49, 10)
	for i := range in.Data {
		in.Data[i] = float32(rng.Float64())
	}
	qm, err := quant.Quantize(m, []*tensor.F32{in})
	if err != nil {
		b.Fatal(err)
	}
	return m, qm, in
}

// BenchmarkAblationTFLMInterpreter measures interpreter-dispatch
// inference on the KWS model (registry lookup per op).
func BenchmarkAblationTFLMInterpreter(b *testing.B) {
	m, _, in := kwsModelAndQuant(b)
	it, err := tflm.NewInterpreter(tflm.ModelFileFromFloat(m))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := it.Invoke(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEONCompiled measures the same model through the EON
// compiled program (direct calls, no per-op dispatch).
func BenchmarkAblationEONCompiled(b *testing.B) {
	m, _, in := kwsModelAndQuant(b)
	prog, err := eonc.Compile(tflm.ModelFileFromFloat(m))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFloatKernels measures float32 host inference.
func BenchmarkAblationFloatKernels(b *testing.B) {
	b.ReportAllocs()
	m, _, in := kwsModelAndQuant(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(in)
	}
}

// BenchmarkAblationInt8Kernels measures int8 host inference on the same
// architecture (int32 accumulators + fixed-point requantization).
func BenchmarkAblationInt8Kernels(b *testing.B) {
	b.ReportAllocs()
	_, qm, in := kwsModelAndQuant(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qm.Forward(in)
	}
}

// BenchmarkAblationArenaPlanner compares the liveness-based arena to the
// no-reuse baseline, reporting both sizes as metrics.
func BenchmarkAblationArenaPlanner(b *testing.B) {
	b.ReportAllocs()
	m, _, _ := kwsModelAndQuant(b)
	specs, err := m.Spec()
	if err != nil {
		b.Fatal(err)
	}
	bufs, _ := nn.ActivationAssignments(m.InputShape, specs, 4)
	var planned, naive int64
	for i := 0; i < b.N; i++ {
		planned, _ = nn.PlanArena(bufs)
		naive = nn.NaiveArena(bufs)
	}
	b.ReportMetric(float64(planned), "planned_bytes")
	b.ReportMetric(float64(naive), "naive_bytes")
	b.ReportMetric(float64(naive)/float64(planned), "reuse_factor")
}

// BenchmarkAblationSearchRandom and ...Hyperband compare search cost on a
// synthetic objective, reporting total training budget spent.
func BenchmarkAblationSearchRandom(b *testing.B) {
	b.ReportAllocs()
	var spent int64
	obj := func(c, budget int) (float64, error) {
		spent += int64(budget)
		d := float64(c - 40)
		return 1 / (1 + d*d), nil
	}
	for i := 0; i < b.N; i++ {
		if _, err := search.Random(100, 30, 27, int64(i), obj); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spent)/float64(b.N), "budget_units")
}

func BenchmarkAblationSearchHyperband(b *testing.B) {
	b.ReportAllocs()
	var spent int64
	obj := func(c, budget int) (float64, error) {
		spent += int64(budget)
		d := float64(c - 40)
		return 1 / (1 + d*d), nil
	}
	for i := 0; i < b.N; i++ {
		if _, err := search.Hyperband(100, 27, int64(i), obj); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spent)/float64(b.N), "budget_units")
}

// BenchmarkAblationMFEvsMFCC compares front-end extraction cost.
func BenchmarkAblationMFE(b *testing.B) {
	sig := dsp.Signal{Data: make([]float32, 16000), Rate: 16000, Axes: 1}
	block, err := dsp.NewMFE(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := block.Extract(sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMFCC(b *testing.B) {
	sig := dsp.Signal{Data: make([]float32, 16000), Rate: 16000, Axes: 1}
	block, err := dsp.NewMFCC(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := block.Extract(sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRenodeEstimate measures the cost of one full device
// latency estimation (it must be cheap: the tuner calls it per trial).
func BenchmarkAblationRenodeEstimate(b *testing.B) {
	m, qm, _ := kwsModelAndQuant(b)
	specs, _ := m.Spec()
	block, _ := dsp.NewMFCC(nil)
	sig := dsp.Signal{Data: make([]float32, 16000), Rate: 16000, Axes: 1}
	cost := block.Cost(sig)
	nano := device.MustGet("nano-33-ble-sense")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renode.EstimateFloat(nano, cost, specs, renode.TFLM)
		renode.EstimateInt8(nano, cost, qm, renode.EON)
	}
}

// Performance regression guards for the inference hot path. These pin
// the structural properties the EON compiler ablation rests on — no
// per-op dispatch, the one planned arena, steady-state arena reuse —
// so a refactor cannot silently turn Table 2/4's story into a no-op
// again, and the one speed fact that holds on any host: int8 beats
// float32 on the same model in the same process. Absolute speed is the
// repo benchmark's business (benchmark/), not this file's.
package edgepulse_test

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"edgepulse/internal/bench"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/profiler"
	"edgepulse/internal/quant"
	"edgepulse/internal/renode"
	"edgepulse/internal/simd/simdtest"
	"edgepulse/internal/tensor"
	"edgepulse/internal/tflm"

	eonc "edgepulse/internal/eon"
)

// TestInt8FasterThanFloatInProcess pins the paper's core quantization
// claim where it can be measured honestly, in one process on one host:
// for each reference model an int8 forward pass is strictly faster than
// a float32 one. The two precisions are timed interleaved, the order
// swapped every round, so drift in the host's speed lands on both, and
// each side is the median of its rounds. It is skipped under -short and
// the race detector, which time instrumentation rather than kernels.
func TestInt8FasterThanFloatInProcess(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test: needs a full, uninstrumented run")
	}
	ws, err := bench.AllWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	const warm, rounds, perRound = 3, 31, 4
	for _, w := range ws {
		in := tensor.NewF32(w.Model.InputShape...)
		rng := rand.New(rand.NewSource(1))
		for i := range in.Data {
			in.Data[i] = rng.Float32()
		}
		forward := [2]func(){func() { w.Model.Forward(in) }, func() { w.QModel.Forward(in) }}
		var took [2][]time.Duration
		runtime.GC() // building the workloads left garbage; collect it before timing
		for r := -warm; r < rounds; r++ {
			for k := range forward {
				side := (k + r) & 1
				start := time.Now()
				for i := 0; i < perRound; i++ {
					forward[side]()
				}
				if r >= 0 {
					took[side] = append(took[side], time.Since(start)/perRound)
				}
			}
		}
		f32, i8 := median(took[0]), median(took[1])
		t.Logf("%s: float32 %v, int8 %v per forward (median of %d)", w.ID, f32, i8, rounds)
		if i8 >= f32 {
			t.Errorf("%s: int8 forward %v is not faster than float32 %v (median of %d interleaved rounds)", w.ID, i8, f32, rounds)
		}
	}
}

func median(d []time.Duration) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s[len(s)/2]
}

// ablationModels are the three architectures the repo benchmark's
// edge_infer workload rotates through, with random weights and one
// calibration sample each.
func ablationModels(t *testing.T) map[string]*tflm.ModelFile {
	t.Helper()
	out := map[string]*tflm.ModelFile{}
	for name, m := range map[string]*nn.Model{
		"kws": models.KWSDSCNN(49, 10, 12),
		"vww": models.VWWMobileNetV1(96, 3, 0.25, 2),
		"ic":  models.CIFARCNN(32, 3, 10),
	} {
		if err := nn.InitWeights(m, 1); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		in := tensor.NewF32(m.InputShape...)
		for i := range in.Data {
			in.Data[i] = float32(rng.Float64())
		}
		qm, err := quant.Quantize(m, []*tensor.F32{in})
		if err != nil {
			t.Fatal(err)
		}
		out[name+"/f32"] = tflm.ModelFileFromFloat(m)
		out[name+"/i8"] = tflm.ModelFileFromQuant(qm)
	}
	return out
}

// TestEONAblationOnSharedKernels pins what is true of the EON-versus-
// interpreter ablation now that both run the one executor on the same
// kernels: outputs are bitwise equal, both engines place their
// activations in the same liveness-planned arena, which is the arena
// Table 4's EON cells report, the interpreter resolves every op on every
// Invoke, and neither allocates beyond the returned tensor (not checked
// under the race detector, whose instrumentation allocates), on every
// simd tier. What compiling removes is the per-op dispatch, not arena
// bytes.
func TestEONAblationOnSharedKernels(t *testing.T) {
	simdtest.ForEachTier(t, func(t *testing.T) {
		for name, mf := range ablationModels(t) {
			it, err := tflm.NewInterpreter(mf)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := eonc.Compile(mf)
			if err != nil {
				t.Fatal(err)
			}
			specs, err := mf.Specs()
			if err != nil {
				t.Fatal(err)
			}
			if got := prog.ArenaBytes(); got <= 0 || got != it.ArenaBytes() {
				t.Errorf("%s: EON arena %d bytes, interpreter arena %d", name, got, it.ArenaBytes())
			}
			var est profiler.Memory
			if mf.Precision == tflm.Int8 {
				est = profiler.EstimateInt8(mf.Quant, renode.EON)
			} else if est, err = profiler.EstimateFloat(mf.Float, renode.EON); err != nil {
				t.Fatal(err)
			}
			if est.ArenaBytes != prog.ArenaBytes() {
				t.Errorf("%s: Table 4 EON arena %d bytes, compiled program %d", name, est.ArenaBytes, prog.ArenaBytes())
			}

			rng := rand.New(rand.NewSource(3))
			in := tensor.NewF32(mf.InputShape()...)
			for i := range in.Data {
				in.Data[i] = float32(rng.Float64())
			}
			before := it.Invocations()
			a, err := it.Invoke(in)
			if err != nil {
				t.Fatal(err)
			}
			ops := int64(len(specs))
			if mf.Precision == tflm.Int8 {
				ops-- // the trailing softmax is the float head, not an int8 op
			}
			if got := it.Invocations() - before; got != ops {
				t.Errorf("%s: Invoke advanced Invocations by %d, interpreter has %d ops", name, got, ops)
			}
			b, err := prog.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Data {
				if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
					t.Fatalf("%s: EON output %d = %v, interpreter %v", name, i, b.Data[i], a.Data[i])
				}
			}

			if raceEnabled {
				continue
			}
			// Both pools are warm after the runs above.
			for engine, run := range map[string]func(*tensor.F32) (*tensor.F32, error){"EON": prog.Run, "interpreter": it.Invoke} {
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := run(in); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 4 {
					t.Errorf("%s: %s allocates %v per run, want <= 4 (steady-state arena reuse)", name, engine, allocs)
				}
			}
		}
	})
}

// TestFloatForwardAllocBudget pins the raw float kernel path's budget:
// repeated Model.Forward calls must reuse the pooled arena.
func TestFloatForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count: the race detector's instrumentation allocates")
	}
	m, _, in := kwsModelAndQuant(t)
	m.Forward(in) // warm the plan and pool
	allocs := testing.AllocsPerRun(10, func() { m.Forward(in) })
	if allocs > 4 {
		t.Errorf("Model.Forward allocates %v per run, want <= 4", allocs)
	}
}

// TestInt8ForwardAllocBudget pins the quantized pipeline's budget.
func TestInt8ForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count: the race detector's instrumentation allocates")
	}
	_, qm, in := kwsModelAndQuant(t)
	qm.Forward(in) // warm the pool
	allocs := testing.AllocsPerRun(10, func() { qm.Forward(in) })
	if allocs > 4 {
		t.Errorf("QModel.Forward allocates %v per run, want <= 4", allocs)
	}
}

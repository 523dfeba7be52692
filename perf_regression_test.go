// Performance regression guards for the inference hot path. These pin
// the structural properties the EON compiler ablation rests on — a
// smaller planned arena, no per-op dispatch, steady-state arena reuse —
// so a refactor cannot silently turn Table 2/4's story into a no-op
// again. Speed is the repo benchmark's business (benchmark/), not this
// file's.
package edgepulse_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/profiler"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
	"edgepulse/internal/tflm"

	eonc "edgepulse/internal/eon"
)

// newestBenchRecord parses the newest committed BENCH_<stamp>.json and
// returns its ns/op by benchmark name.
func newestBenchRecord(t *testing.T) map[string]float64 {
	t.Helper()
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH_*.json records (err=%v)", err)
	}
	var records []struct {
		Stamp      string `json:"stamp"`
		Benchmarks []struct {
			Name    string  `json:"name"`
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"benchmarks"`
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Stamp      string `json:"stamp"`
			Benchmarks []struct {
				Name    string  `json:"name"`
				NsPerOp float64 `json:"ns_per_op"`
			} `json:"benchmarks"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		records = append(records, rec)
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Stamp < records[j].Stamp })
	newest := records[len(records)-1]
	out := make(map[string]float64, len(newest.Benchmarks))
	for _, b := range newest.Benchmarks {
		out[b.Name] = b.NsPerOp
	}
	return out
}

// TestInt8FasterThanFloatInCommittedRecord pins the paper's core claim
// on the committed benchmark record: quantized int8 inference must be
// strictly faster than float32 on the same KWS architecture. This is
// the guard against the int8-slower-than-float kernel inversion
// recurring — a PR whose benchmark record shows the inversion cannot
// land.
func TestInt8FasterThanFloatInCommittedRecord(t *testing.T) {
	ns := newestBenchRecord(t)
	int8NS, floatNS := ns["BenchmarkAblationInt8Kernels"], ns["BenchmarkAblationFloatKernels"]
	if int8NS <= 0 || floatNS <= 0 {
		t.Fatalf("ablation benchmarks missing from newest record (int8=%v float=%v)", int8NS, floatNS)
	}
	if int8NS >= floatNS {
		t.Errorf("int8 KWS inference %.0f ns/op is not faster than float %.0f ns/op in the committed record", int8NS, floatNS)
	}
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
// kernels: outputs are bitwise equal, the compiled program's planned
// arena is the profiler's liveness plan and strictly smaller than the
// interpreter's slot-per-op arena, the interpreter resolves every op on
// every Invoke, and neither allocates beyond the returned tensor.
func TestEONAblationOnSharedKernels(t *testing.T) {
	for name, mf := range ablationModels(t) {
		it, err := tflm.NewInterpreter(mf)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eonc.Compile(mf)
		if err != nil {
			t.Fatal(err)
		}
		specs, elemSize, err := mf.Specs()
		if err != nil {
			t.Fatal(err)
		}
		planned, _ := profiler.PlanArena(profiler.ActivationBuffers(specs, elemSize))
		if got := prog.ArenaBytes(); got <= 0 || got != planned {
			t.Errorf("%s: EON arena %d bytes, profiler plan %d", name, got, planned)
		}
		if prog.ArenaBytes() >= it.ArenaBytes() {
			t.Errorf("%s: EON planned arena %d bytes is not below the interpreter's bump arena %d",
				name, prog.ArenaBytes(), it.ArenaBytes())
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
}

// TestFloatForwardAllocBudget pins the raw float kernel path's budget:
// repeated Model.Forward calls must reuse the pooled arena.
func TestFloatForwardAllocBudget(t *testing.T) {
	m, _, in := kwsModelAndQuant(t)
	m.Forward(in) // warm the plan and pool
	allocs := testing.AllocsPerRun(10, func() { m.Forward(in) })
	if allocs > 4 {
		t.Errorf("Model.Forward allocates %v per run, want <= 4", allocs)
	}
}

// TestInt8ForwardAllocBudget pins the quantized pipeline's budget.
func TestInt8ForwardAllocBudget(t *testing.T) {
	_, qm, in := kwsModelAndQuant(t)
	qm.Forward(in) // warm the pool
	allocs := testing.AllocsPerRun(10, func() { qm.Forward(in) })
	if allocs > 4 {
		t.Errorf("QModel.Forward allocates %v per run, want <= 4", allocs)
	}
}

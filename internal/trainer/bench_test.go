package trainer

import (
	"math/rand"
	"testing"

	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/tensor"
)

// stepModels are the models BenchmarkTrainStep times: kws DS-CNN and
// the CIFAR CNN as the reference workloads build them, and a Conv1DStack
// of the EON Tuner's family.
func stepModels(b *testing.B) map[string]*nn.Model {
	conv1d, err := models.Conv1DStack(49, 13, 3, 8, 32, 4)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]*nn.Model{
		"kws":    models.KWSDSCNN(49, 10, 12),
		"ic":     models.CIFARCNN(32, 3, 10),
		"conv1d": conv1d,
	}
}

// BenchmarkTrainStep times one training step of one sample: forward,
// backward and one optimizer update. The update runs at learning rate 0,
// so the weights, and with them the work, are the same on every
// iteration. Run it with -cpu 1.
func BenchmarkTrainStep(b *testing.B) {
	ms := stepModels(b)
	for _, name := range []string{"kws", "ic", "conv1d"} {
		for _, opt := range []string{"adam", "sgd"} {
			b.Run(name+"/"+opt, func(b *testing.B) {
				m := ms[name]
				if err := nn.InitWeights(m, 1); err != nil {
					b.Fatal(err)
				}
				x := tensor.NewF32(m.InputShape...)
				rng := rand.New(rand.NewSource(2))
				for i := range x.Data {
					x.Data[i] = float32(rng.NormFloat64())
				}
				st, err := nn.NewTrainState(m)
				if err != nil {
					b.Fatal(err)
				}
				o := newOptimizer(opt, 0, 0.9, m.Params(), st.Grads())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					trainStep(b, st, o, x)
				}
			})
		}
	}
}

// trainStep is one sample's forward, backward and optimizer update.
func trainStep(tb testing.TB, st *nn.TrainState, o optimizer, x *tensor.F32) {
	st.ZeroGrads()
	if _, err := st.Forward(x); err != nil {
		tb.Fatal(err)
	}
	st.Backward(0)
	o.Step(1)
}

// TestTrainStepAllocs pins a steady-state kws training step (forward,
// backward, Adam update) to at most two allocations.
func TestTrainStepAllocs(t *testing.T) {
	m := models.KWSDSCNN(49, 10, 12)
	if err := nn.InitWeights(m, 1); err != nil {
		t.Fatal(err)
	}
	st, err := nn.NewTrainState(m)
	if err != nil {
		t.Fatal(err)
	}
	o := newOptimizer("adam", 0.001, 0, m.Params(), st.Grads())
	x := tensor.NewF32(m.InputShape...)
	rng := rand.New(rand.NewSource(2))
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	trainStep(t, st, o, x)
	if allocs := testing.AllocsPerRun(5, func() { trainStep(t, st, o, x) }); allocs > 2 {
		t.Fatalf("a kws training step allocates %v times, want <= 2", allocs)
	}
}

package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

// randModel builds a seeded random small model: a 2-D family (conv2d,
// depthwise, pools, batchnorm, a mid-stack reshape) or a 1-D family
// (conv1d, maxpool1d), with odd channel counts, stride 1/2 and both
// paddings, ending in flatten or gap2d, a dropout and a dense head. A
// layer that does not fit the running shape is skipped.
func randModel(t testing.TB, seed int64) *nn.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func(v ...int) int { return v[rng.Intn(len(v))] }
	pad := func() nn.Padding { return nn.Padding(rng.Intn(2)) }
	act := func() nn.Activation { return nn.Activation(rng.Intn(3)) } // none, relu, relu6

	var m *nn.Model
	shape := tensor.Shape{pick(7, 9, 12), pick(5, 8, 10), pick(1, 2, 3, 5)}
	oneD := rng.Intn(3) == 0
	if oneD {
		shape = tensor.Shape{pick(15, 20, 31), pick(1, 3, 6)}
	}
	m = nn.NewModel(shape...)
	add := func(l nn.Layer) {
		if out, err := l.OutShape(shape); err == nil {
			m.Add(l)
			shape = out
		}
	}
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		if oneD {
			switch rng.Intn(3) {
			case 0, 1:
				add(nn.NewConv1D(pick(3, 5, 8), pick(1, 3, 5), pick(1, 2), pad(), act()))
			case 2:
				add(nn.NewMaxPool1D(2, pick(0, 2)))
			}
			continue
		}
		switch rng.Intn(7) {
		case 0, 1:
			add(nn.NewConv2D(pick(3, 5, 7, 8), pick(1, 3, 4), pick(1, 2), pad(), act()))
		case 2:
			add(nn.NewDepthwiseConv2D(3, pick(1, 2), pad(), act()))
		case 3:
			add(nn.NewMaxPool2D(2, pick(0, 1, 2)))
		case 4:
			add(nn.NewAvgPool2D(2, pick(0, 2)))
		case 5:
			add(nn.NewConv2D(pick(3, 6), 3, 1, nn.Same, nn.None))
			add(nn.NewBatchNorm())
		case 6: // aliasing op mid-stack: fold channels into the width
			add(nn.NewReshape(shape[0], shape[1]*shape[2], 1))
		}
	}
	if !oneD && rng.Intn(2) == 0 {
		add(nn.NewGlobalAvgPool2D())
	} else {
		add(nn.NewFlatten())
	}
	add(nn.NewDropout(0.3))
	m.NumClasses = pick(2, 3, 7)
	add(nn.NewDense(m.NumClasses, nn.None))
	if rng.Intn(2) == 0 {
		add(nn.NewSoftmax())
	}
	if err := nn.InitWeights(m, seed); err != nil {
		t.Fatal(err)
	}
	return m
}

func randInputs(rng *rand.Rand, shape tensor.Shape, n int) []*tensor.F32 {
	ins := make([]*tensor.F32, n)
	for i := range ins {
		ins[i] = tensor.NewF32(shape...)
		for j := range ins[i].Data {
			ins[i].Data[j] = float32(rng.NormFloat64())
		}
	}
	return ins
}

// floatReference runs the layers' InferInto one at a time into fresh
// buffers (no arena, no executor).
func floatReference(m *nn.Model, in *tensor.F32) *tensor.F32 {
	x := in
	for _, l := range m.Layers {
		shape, err := l.OutShape(x.Shape)
		if err != nil {
			panic(err)
		}
		y := tensor.NewF32(shape...)
		l.InferInto(x.Shape, x.Data, y.Data)
		x = y
	}
	return x
}

// int8Reference runs the int8 pipeline one op at a time into fresh
// buffers (no arena, no executor) and dequantizes the last activation,
// through the float softmax head when the model ends in one.
func int8Reference(qm *quant.QModel, in *tensor.F32) *tensor.F32 {
	x := tensor.QuantizeF32(in, qm.InQ)
	for _, op := range qm.Ops {
		if op.Kind == "softmax" {
			out := x.Dequantize()
			new(nn.Softmax).InferInto(out.Shape, out.Data, out.Data)
			return out
		}
		x = qm.RunOp(op, x)
	}
	return x.Dequantize()
}

type runner interface {
	Run(*tensor.F32) (*tensor.F32, error)
}

func requireBitwise(t *testing.T, what string, got, want *tensor.F32) {
	t.Helper()
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: elem %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestExecutorLayoutsAndBindingsBitwiseEqual is the executor's property
// test: over seeded random models, every binding x precision combination
// of the planned arena reproduces the arena-free reference bit for bit,
// on arenas poisoned before the first run and dirty with another input's
// activations on every later one — so a planned offset that clobbered a
// live buffer, or a kernel reading a slot nobody wrote, shows up as a
// wrong answer.
func TestExecutorLayoutsAndBindingsBitwiseEqual(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		m := randModel(t, seed)
		rng := rand.New(rand.NewSource(seed + 1000))
		ins := randInputs(rng, m.InputShape, 3)
		qm, err := quant.Quantize(m, ins)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		floatWant := make([]*tensor.F32, len(ins))
		int8Want := make([]*tensor.F32, len(ins))
		for i, in := range ins {
			floatWant[i] = floatReference(m, in)
			int8Want[i] = int8Reference(qm, in)
		}

		for _, binding := range []nn.Binding{nn.BindAtBuild, nn.ResolvePerCall} {
			fe, err := nn.NewFloatExecutor(m, binding)
			if err != nil {
				t.Fatalf("seed %d: float executor: %v", seed, err)
			}
			fe.PoisonArenas(float32(math.NaN()))
			qe, err := quant.NewExecutor(qm, binding)
			if err != nil {
				t.Fatalf("seed %d: int8 executor: %v", seed, err)
			}
			qe.PoisonArenas(0x55)
			for _, c := range []struct {
				name string
				r    runner
				want []*tensor.F32
			}{{"float32", fe, floatWant}, {"int8", qe, int8Want}} {
				for round := 0; round < 2; round++ {
					for i, in := range ins {
						got, err := c.r.Run(in)
						if err != nil {
							t.Fatal(err)
						}
						requireBitwise(t, fmt.Sprintf("seed %d %s/binding=%v round %d input %d",
							seed, c.name, binding, round, i), got, c.want[i])
					}
				}
			}
		}
	}
}

// TestExecutorConcurrentRun shares one executor per binding and precision
// between goroutines (run it under -race): every result must match the
// serial answer, so pooled arenas are neither raced on nor aliased by a
// returned tensor.
func TestExecutorConcurrentRun(t *testing.T) {
	m := randModel(t, 7)
	rng := rand.New(rand.NewSource(8))
	ins := randInputs(rng, m.InputShape, 6)
	qm, err := quant.Quantize(m, ins)
	if err != nil {
		t.Fatal(err)
	}
	var runners []runner
	for _, binding := range []nn.Binding{nn.BindAtBuild, nn.ResolvePerCall} {
		fe, err := nn.NewFloatExecutor(m, binding)
		if err != nil {
			t.Fatal(err)
		}
		qe, err := quant.NewExecutor(qm, binding)
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, fe, qe)
	}
	for _, r := range runners {
		wants := make([]*tensor.F32, len(ins))
		for i, in := range ins {
			wants[i], _ = r.Run(in)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for iter := 0; iter < 40; iter++ {
					k := (g + iter) % len(ins)
					got, err := r.Run(ins[k])
					if err != nil {
						t.Error(err)
						return
					}
					for i := range wants[k].Data {
						if got.Data[i] != wants[k].Data[i] {
							t.Errorf("concurrent result diverged from serial at elem %d", i)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestExecutorRejectsBadInput covers the run-time guard: a tensor whose
// shape or length is not the model's is an error, never a panic.
func TestExecutorRejectsBadInput(t *testing.T) {
	m := randModel(t, 3)
	e, err := nn.NewFloatExecutor(m, nn.BindAtBuild)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(tensor.NewF32(3, 3)); err == nil {
		t.Error("accepted a mismatched input shape")
	}
	if _, err := e.Run(&tensor.F32{Shape: m.InputShape, Data: make([]float32, 2)}); err == nil {
		t.Error("accepted a tensor shorter than its shape")
	}
	odd := nn.NewModel(4).Add(warpDrive{nn.NewDense(2, nn.None)})
	for _, b := range []nn.Binding{nn.BindAtBuild, nn.ResolvePerCall} {
		if _, err := nn.NewFloatExecutor(odd, b); err == nil {
			t.Errorf("binding %v: built an executor for a kind with no kernel", b)
		}
	}
}

// warpDrive is a layer whose kind has no entry in the kernel table.
type warpDrive struct{ *nn.Dense }

func (warpDrive) Kind() string { return "warp_drive" }

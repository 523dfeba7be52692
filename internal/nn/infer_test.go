package nn

import (
	"math/rand"
	"sync"
	"testing"

	"edgepulse/internal/kernelref"
	"edgepulse/internal/tensor"
)

// refWindow is a layer's window in the shared naive references'
// terms.
func refWindow(in tensor.Shape, kernel, stride int, pad Padding) kernelref.Window {
	return kernelref.Window{H: in[0], W: in[1], C: in[2], Kernel: kernel, Stride: stride, Same: pad == Same}
}

// refOutput wraps a reference's pre-activation output as the layer's
// activated output tensor.
func refOutput(data []float32, act Activation, shape ...int) *tensor.F32 {
	for i, v := range data {
		data[i] = act.apply(v)
	}
	return &tensor.F32{Shape: shape, Data: data}
}

// refConv2D is the filter-major triple loop (internal/kernelref), the
// golden reference for the tiled kernel.
func refConv2D(c *Conv2D, in *tensor.F32) *tensor.F32 {
	g := refWindow(in.Shape, c.Kernel, c.Stride, c.Pad)
	oh, ow := g.Out()
	return refOutput(kernelref.Conv2DF32(g, in.Data, c.W.Data, c.B.Data), c.Act, oh, ow, c.Filters)
}

// refDense is the output-major dense loop.
func refDense(d *Dense, in *tensor.F32) *tensor.F32 {
	return refOutput(kernelref.DenseF32(in.Data, d.W.Data, d.B.Data), d.Act, d.Units)
}

// refDepthwise is the channel-major depthwise loop.
func refDepthwise(c *DepthwiseConv2D, in *tensor.F32) *tensor.F32 {
	g := refWindow(in.Shape, c.Kernel, c.Stride, c.Pad)
	oh, ow := g.Out()
	return refOutput(kernelref.DepthwiseF32(g, in.Data, c.W.Data, c.B.Data), c.Act, oh, ow, in.Shape[2])
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.F32 {
	t := tensor.NewF32(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func fillParams(rng *rand.Rand, params []*tensor.F32) {
	for _, p := range params {
		for i := range p.Data {
			p.Data[i] = float32(rng.NormFloat64())
		}
	}
}

// TestConv2DReorderBitwiseIdentical proves the contiguous-access kernel
// reproduces the historical loop order bit for bit: per output element
// the float accumulation sequence is unchanged.
func TestConv2DReorderBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, cfg := range []struct {
		filters, kernel, stride int
		pad                     Padding
		act                     Activation
	}{
		{8, 3, 1, Same, ReLU},
		{5, 4, 2, Same, None},
		{3, 3, 1, Valid, ReLU6},
		{16, 1, 1, Same, ReLU},
	} {
		c := NewConv2D(cfg.filters, cfg.kernel, cfg.stride, cfg.pad, cfg.act)
		in := randTensor(rng, 9, 7, 3)
		c.Build(3)
		fillParams(rng, c.Params())
		got := forward(t, c, in)
		want := refConv2D(c, in)
		if !got.Shape.Equal(want.Shape) {
			t.Fatalf("%+v: shape %v != %v", cfg, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%+v: elem %d: %v != %v (must be bitwise identical)", cfg, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestDepthwiseReorderBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, stride := range []int{1, 2} {
		c := NewDepthwiseConv2D(3, stride, Same, ReLU)
		in := randTensor(rng, 8, 6, 4)
		c.Build(4)
		fillParams(rng, c.Params())
		got := forward(t, c, in)
		want := refDepthwise(c, in)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("stride %d elem %d: %v != %v", stride, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestDenseReorderBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := NewDense(17, ReLU)
	in := randTensor(rng, 31)
	d.Build(31)
	fillParams(rng, d.Params())
	got := forward(t, d, in)
	want := refDense(d, in)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("elem %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

// testModel builds a small DS-CNN-style stack covering every hot-path op
// kind, including aliasing layers.
func testModel(t testing.TB) *Model {
	t.Helper()
	m := NewModel(12, 10)
	m.NumClasses = 4
	m.Add(NewReshape(12, 10, 1)).
		Add(NewConv2D(8, 3, 2, Same, ReLU)).
		Add(NewDepthwiseConv2D(3, 1, Same, ReLU)).
		Add(NewConv2D(8, 1, 1, Same, ReLU)).
		Add(NewMaxPool2D(2, 0)).
		Add(NewGlobalAvgPool2D()).
		Add(NewDropout(0.5)).
		Add(NewDense(4, None)).
		Add(NewSoftmax())
	if err := InitWeights(m, 77); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInferPlanMatchesTrainingForward holds the float executor's two
// arenas to each other: a TrainState's, which keeps every activation for
// the backward, and the pooled inference plan give the same
// probabilities bit for bit across repeated calls, once the training
// dropout (the identity at inference) is taken out.
func TestInferPlanMatchesTrainingForward(t *testing.T) {
	m := testModel(t)
	noDrop := &Model{InputShape: m.InputShape, NumClasses: m.NumClasses}
	for _, l := range m.Layers {
		if _, ok := l.(*Dropout); !ok {
			noDrop.Layers = append(noDrop.Layers, l)
		}
	}
	s, err := NewTrainState(noDrop)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		in := randTensor(rng, 12, 10)
		want := m.Forward(in)
		got, err := s.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Data) {
			t.Fatalf("%d probabilities, want %d", len(got), len(want.Data))
		}
		for i := range want.Data {
			if got[i] != want.Data[i] {
				t.Fatalf("trial %d elem %d: %v != %v", trial, i, got[i], want.Data[i])
			}
		}
	}
}

// TestForwardSteadyStateAllocs pins the hot-path allocation budget: the
// pooled inference path must stay within a handful of allocations (the
// cloned result), regardless of model depth.
func TestForwardSteadyStateAllocs(t *testing.T) {
	m := testModel(t)
	in := randTensor(rand.New(rand.NewSource(6)), 12, 10)
	m.Forward(in) // warm the plan and pool
	allocs := testing.AllocsPerRun(50, func() { m.Forward(in) })
	if allocs > 4 {
		t.Errorf("Forward allocates %v per run, want <= 4", allocs)
	}
}

// TestForwardConcurrentNoAliasing runs many concurrent inferences on one
// model and checks every result against the serial answer — catching
// both data races (under -race) and pooled-scratch aliasing bugs.
func TestForwardConcurrentNoAliasing(t *testing.T) {
	m := testModel(t)
	rng := rand.New(rand.NewSource(7))
	const nInputs = 8
	ins := make([]*tensor.F32, nInputs)
	wants := make([]*tensor.F32, nInputs)
	for i := range ins {
		ins[i] = randTensor(rng, 12, 10)
		wants[i] = m.Forward(ins[i])
	}
	var wg sync.WaitGroup
	errc := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				k := (g + iter) % nInputs
				got := m.Forward(ins[k])
				for i := range wants[k].Data {
					if got.Data[i] != wants[k].Data[i] {
						select {
						case errc <- "concurrent result diverged from serial":
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if msg, ok := <-errc; ok {
		t.Fatal(msg)
	}
}

func benchInput(b *testing.B, shape ...int) *tensor.F32 {
	b.Helper()
	return randTensor(rand.New(rand.NewSource(1)), shape...)
}

func BenchmarkConv2DForward(b *testing.B) {
	c := NewConv2D(64, 3, 1, Same, ReLU)
	c.Build(64)
	fillParams(rand.New(rand.NewSource(2)), c.Params())
	in := benchInput(b, 25, 5, 64)
	out := tensor.NewF32(25, 5, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InferInto(in.Shape, in.Data, out.Data)
	}
}

func BenchmarkDepthwiseConv2DForward(b *testing.B) {
	c := NewDepthwiseConv2D(3, 1, Same, ReLU)
	c.Build(64)
	fillParams(rand.New(rand.NewSource(3)), c.Params())
	in := benchInput(b, 25, 5, 64)
	out := tensor.NewF32(25, 5, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InferInto(in.Shape, in.Data, out.Data)
	}
}

func BenchmarkDenseForward(b *testing.B) {
	d := NewDense(64, ReLU)
	d.Build(256)
	fillParams(rand.New(rand.NewSource(4)), d.Params())
	in := benchInput(b, 256)
	out := tensor.NewF32(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.InferInto(in.Shape, in.Data, out.Data)
	}
}

package nn

import (
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/tensor"
)

// TestMaxPoolEmptyWindowGradient: a window with no finite maximum (every
// tap -Inf or NaN) sends its gradient to its own first tap, not to input
// element 0.
func TestMaxPoolEmptyWindowGradient(t *testing.T) {
	inf := float32(math.Inf(-1))
	nan := float32(math.NaN())
	in := tensor.MustFromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, inf, inf,
		13, 14, inf, inf,
	}, 4, 4, 1)
	gx := make([]float32, 16)
	NewMaxPool2D(2, 2).backward(in.Shape, in.Data, nil, []float32{1, 2, 3, 4}, gx, nil)
	want := []float32{
		0, 0, 0, 0,
		0, 1, 0, 2,
		0, 0, 4, 0,
		0, 3, 0, 0,
	}
	for i := range want {
		if gx[i] != want[i] {
			t.Fatalf("maxpool2d gx = %v, want %v", gx, want)
		}
	}

	in1 := tensor.MustFromSlice([]float32{1, 2, nan, nan, inf, nan}, 6, 1)
	gx = make([]float32, 6)
	NewMaxPool1D(2, 2).backward(in1.Shape, in1.Data, nil, []float32{1, 2, 3}, gx, nil)
	if want := []float32{0, 1, 2, 0, 3, 0}; !equalBits(gx, want) {
		t.Fatalf("maxpool1d gx = %v, want %v", gx, want)
	}
}

func equalBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceGrads is one sample's training forward and backward with a
// fresh tensor for every activation and gradient (no arena, no
// executor), adding the parameter gradients into grads. drops holds each
// dropout layer's training view, in layer order.
func referenceGrads(t *testing.T, m *Model, drops []*maskedDropout, x *tensor.F32, label int, grads []*tensor.F32) {
	t.Helper()
	layers := append([]Layer(nil), m.Layers...)
	for i, d := 0, 0; i < len(layers); i++ {
		if _, ok := layers[i].(*Dropout); ok {
			layers[i] = drops[d]
			d++
		}
	}
	acts := []*tensor.F32{x}
	for _, l := range layers {
		in := acts[len(acts)-1]
		if d, ok := l.(*maskedDropout); ok {
			d.mask = make([]bool, len(in.Data))
		}
		acts = append(acts, forward(t, l, in))
	}
	n := len(layers)
	g := acts[n].Clone()
	g.Data[label] -= 1
	for i := n - 2; i >= 0; i-- {
		np := 0
		for _, l := range layers[:i] {
			np += len(l.Params())
		}
		if Aliases(layers[i].Kind()) && layers[i].Kind() != "dropout" {
			g = &tensor.F32{Shape: acts[i].Shape, Data: g.Data}
			continue
		}
		gx := tensor.NewF32(acts[i].Shape...)
		layers[i].(trainable).backward(acts[i].Shape, acts[i].Data, acts[i+1].Data, g.Data, gx.Data,
			grads[np:np+len(layers[i].Params())])
		g = gx
	}
}

// TestTrainStateMatchesReference holds a TrainState, whose activations
// and gradients share one planned arena, to referenceGrads bit for bit
// over several samples accumulated into one gradient set, on models
// covering every layer kind, the aliasing ones and dropout.
func TestTrainStateMatchesReference(t *testing.T) {
	conv := NewModel(10, 9, 3)
	conv.NumClasses = 5
	conv.Add(NewConv2D(8, 3, 1, Same, ReLU)).
		Add(NewBatchNorm()).
		Add(NewDepthwiseConv2D(3, 2, Same, ReLU6)).
		Add(NewMaxPool2D(2, 2)).
		Add(NewAvgPool2D(2, 1)).
		Add(NewFlatten()).
		Add(NewDropout(0.5)).
		Add(NewDense(5, None)).
		Add(NewSoftmax())
	audio := NewModel(20, 6)
	audio.NumClasses = 3
	audio.Add(NewConv1D(8, 3, 2, Same, ReLU)).
		Add(NewMaxPool1D(2, 2)).
		Add(NewReshape(5, 1, 8)).
		Add(NewGlobalAvgPool2D()).
		Add(NewDropout(0.2)).
		Add(NewDense(3, None)).
		Add(NewSoftmax())
	rng := rand.New(rand.NewSource(15))
	for mi, m := range []*Model{testModel(t), conv, audio} {
		if err := InitWeights(m, int64(30+mi)); err != nil {
			t.Fatal(err)
		}
		s, err := NewTrainState(m)
		if err != nil {
			t.Fatal(err)
		}
		var drops []*maskedDropout
		var want []*tensor.F32
		for _, l := range m.Layers {
			if d, ok := l.(*Dropout); ok {
				drops = append(drops, &maskedDropout{Dropout: d, rng: rand.New(rand.NewSource(42))})
			}
		}
		for _, p := range m.Params() {
			want = append(want, tensor.NewF32(p.Shape...))
		}
		for sample := 0; sample < 4; sample++ {
			x := randInput(rng, m.InputShape...)
			label := sample % m.NumClasses
			if _, err := s.Forward(x); err != nil {
				t.Fatal(err)
			}
			s.Backward(label)
			referenceGrads(t, m, drops, x, label, want)
		}
		for i, g := range s.Grads() {
			if !equalBits(g.Data, want[i].Data) {
				t.Fatalf("model %d: gradient of parameter %d differs from the reference", mi, i)
			}
		}
	}
}

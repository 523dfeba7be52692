package quant

import (
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/tensor"
)

// referenceRanges is calibration as a walk of Layer.InferInto into fresh
// tensors over the folded, dropout-free model with the scalar min/max
// loop: the quantization parameters of every activation boundary.
func referenceRanges(t *testing.T, m *nn.Model, calib []*tensor.F32) []tensor.QParams {
	t.Helper()
	folded, err := FoldBatchNorm(m)
	if err != nil {
		t.Fatal(err)
	}
	var layers []nn.Layer
	for _, l := range folded.Layers {
		if _, drop := l.(*nn.Dropout); !drop {
			layers = append(layers, l)
		}
	}
	lo := make([]float32, len(layers)+1)
	hi := make([]float32, len(layers)+1)
	for i := range lo {
		lo[i], hi[i] = float32(math.Inf(1)), float32(math.Inf(-1))
	}
	observe := func(b int, x []float32) {
		for _, v := range x {
			if v < lo[b] {
				lo[b] = v
			}
			if v > hi[b] {
				hi[b] = v
			}
		}
	}
	for _, sample := range calib {
		x := sample
		observe(0, x.Data)
		for i, l := range layers {
			shape, err := l.OutShape(x.Shape)
			if err != nil {
				t.Fatal(err)
			}
			y := tensor.NewF32(shape...)
			l.InferInto(x.Shape, x.Data, y.Data)
			x = y
			observe(i+1, x.Data)
		}
	}
	q := make([]tensor.QParams, len(lo))
	for i := range q {
		q[i] = tensor.ChooseQParams(lo[i], hi[i])
	}
	return q
}

// TestCalibrationMatchesLayerWalk holds Quantize's executor calibration
// to referenceRanges on random weights and random inputs of both signs,
// for every model family in internal/models and a model with a
// batchnorm to fold and a dropout to drop: every op's input parameters
// are its boundary's, and every op that is not a pass-through outputs
// at the next boundary's. A new model is covered by adding it here.
func TestCalibrationMatchesLayerWalk(t *testing.T) {
	conv1d, err := models.Conv1DStack(40, 13, 3, 8, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	bn := nn.NewModel(10, 8, 3)
	bn.Add(nn.NewConv2D(6, 3, 2, nn.Same, nn.ReLU)).
		Add(nn.NewBatchNorm()).
		Add(nn.NewDropout(0.2)).
		Add(nn.NewDepthwiseConv2D(3, 1, nn.Valid, nn.ReLU6)).
		Add(nn.NewGlobalAvgPool2D()).
		Add(nn.NewDense(3, nn.None)).
		Add(nn.NewSoftmax())
	cases := []struct {
		name string
		m    *nn.Model
	}{
		{"kws", models.KWSDSCNN(49, 10, 12)},
		{"vww", models.VWWMobileNetV1(32, 3, 0.25, 2)},
		{"cifar", models.CIFARCNN(32, 3, 10)},
		{"conv1d", conv1d},
		{"mobilenetv2_audio", models.MobileNetV2Audio(24, 16, 0.35, 3)},
		{"tiny_mlp", models.TinyMLP(17, 12, 3)},
		{"batchnorm_dropout", bn},
	}
	passThrough := map[string]bool{"maxpool2d": true, "avgpool2d": true, "maxpool1d": true, "gap2d": true, "flatten": true, "reshape": true}
	rng := rand.New(rand.NewSource(71))
	for _, c := range cases {
		name, m := c.name, c.m
		if err := nn.InitWeights(m, rng.Int63()); err != nil {
			t.Fatal(err)
		}
		if bn, ok := m.Layers[1].(*nn.BatchNorm); ok {
			for ch := range bn.Mean.Data {
				bn.Mean.Data[ch] = float32(rng.NormFloat64())
				bn.Var.Data[ch] = float32(0.5 + rng.Float64())
				bn.Gamma.Data[ch] = float32(0.5 + rng.Float64())
			}
		}
		calib := make([]*tensor.F32, 3)
		for i := range calib {
			calib[i] = randTensor(rng, m.InputShape...)
		}
		want := referenceRanges(t, m, calib)
		q, err := Quantize(m, calib)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same := func(a, b tensor.QParams) bool {
			return math.Float32bits(a.Scale) == math.Float32bits(b.Scale) && a.ZeroPoint == b.ZeroPoint
		}
		if len(q.Ops)+1 != len(want) || !same(q.InQ, want[0]) {
			t.Fatalf("%s: %d ops, input %+v; reference %d boundaries, input %+v", name, len(q.Ops), q.InQ, len(want), want[0])
		}
		for i, op := range q.Ops {
			out := want[i+1]
			if passThrough[op.Kind] {
				out = want[i]
			}
			if !same(op.InQ, want[i]) || !same(op.OutQ, out) {
				t.Errorf("%s op %d (%s): in %+v out %+v, want in %+v out %+v", name, i, op.Kind, op.InQ, op.OutQ, want[i], out)
			}
		}
	}
}

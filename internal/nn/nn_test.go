package nn

import (
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/tensor"
)

func randInput(rng *rand.Rand, shape ...int) *tensor.F32 {
	t := tensor.NewF32(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// lossOf computes a simple quadratic loss 0.5*sum(out^2) whose gradient
// w.r.t. the output is the output itself — convenient for grad checking.
func lossOf(out *tensor.F32) float64 {
	var s float64
	for _, v := range out.Data {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

// forward runs a layer's InferInto on in into a fresh tensor.
func forward(t testing.TB, l Layer, in *tensor.F32) *tensor.F32 {
	t.Helper()
	shape, err := l.OutShape(in.Shape)
	if err != nil {
		t.Fatalf("OutShape: %v", err)
	}
	out := tensor.NewF32(shape...)
	l.InferInto(in.Shape, in.Data, out.Data)
	return out
}

// checkGradients numerically verifies a layer's backward kernel,
// parameter and input gradients, for a given input.
func checkGradients(t *testing.T, layer Layer, in *tensor.F32, tol float64) {
	t.Helper()
	out := forward(t, layer, in)
	var grads []*tensor.F32
	for _, p := range layer.Params() {
		grads = append(grads, tensor.NewF32(p.Shape...))
	}
	gradIn := tensor.NewF32(in.Shape...)
	// dL/dout = out for the quadratic loss
	layer.(trainable).backward(in.Shape, in.Data, out.Data, out.Clone().Data, gradIn.Data, grads)

	const eps = 1e-3
	// Parameter gradients.
	for pi, p := range layer.Params() {
		g := grads[pi]
		for i := 0; i < len(p.Data); i += 1 + len(p.Data)/17 { // sample indices
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp := lossOf(forward(t, layer, in))
			p.Data[i] = orig - eps
			lm := lossOf(forward(t, layer, in))
			p.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			got := float64(g.Data[i])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("%s param %d[%d]: grad %g, numeric %g", layer.Kind(), pi, i, got, want)
			}
		}
	}
	// Input gradients.
	for i := 0; i < len(in.Data); i += 1 + len(in.Data)/17 {
		orig := in.Data[i]
		in.Data[i] = orig + eps
		lp := lossOf(forward(t, layer, in))
		in.Data[i] = orig - eps
		lm := lossOf(forward(t, layer, in))
		in.Data[i] = orig
		want := (lp - lm) / (2 * eps)
		got := float64(gradIn.Data[i])
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Errorf("%s input[%d]: grad %g, numeric %g", layer.Kind(), i, got, want)
		}
	}
}

func TestDenseKnownValues(t *testing.T) {
	d := NewDense(2, None)
	d.Build(3)
	// W[in][out]
	copy(d.W.Data, []float32{1, 2, 3, 4, 5, 6}) // row i: [i*2, i*2+1]
	copy(d.B.Data, []float32{0.5, -0.5})
	out := forward(t, d, tensor.MustFromSlice([]float32{1, 1, 1}, 3))
	// out0 = 1+3+5+0.5 = 9.5; out1 = 2+4+6-0.5 = 11.5
	if out.Data[0] != 9.5 || out.Data[1] != 11.5 {
		t.Fatalf("out = %v", out.Data)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, act := range []Activation{None, ReLU, Sigmoid} {
		d := NewDense(4, act)
		d.Build(6)
		initTensor(rng, d.W.Data, 6, act)
		checkGradients(t, d, randInput(rng, 6), 2e-2)
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, single channel, 2x2 kernel of ones, valid padding:
	// each output = sum of 2x2 window.
	c := NewConv2D(1, 2, 1, Valid, None)
	c.Build(1)
	for i := range c.W.Data {
		c.W.Data[i] = 1
	}
	in := tensor.MustFromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3, 1)
	out := forward(t, c, in)
	want := []float32{12, 16, 24, 28}
	if !out.Shape.Equal([]int{2, 2, 1}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("out[%d] = %g, want %g", i, out.Data[i], want[i])
		}
	}
}

func TestConv2DSamePaddingShape(t *testing.T) {
	c := NewConv2D(8, 3, 2, Same, ReLU)
	out, err := c.OutShape(tensor.Shape{49, 10, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal([]int{25, 5, 8}) {
		t.Fatalf("shape = %v, want [25x5x8]", out)
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, pad := range []Padding{Valid, Same} {
		for _, act := range []Activation{None, ReLU} {
			c := NewConv2D(3, 3, 2, pad, act)
			c.Build(2)
			initTensor(rng, c.W.Data, 18, act)
			checkGradients(t, c, randInput(rng, 6, 5, 2), 2e-2)
		}
	}
}

func TestDepthwiseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewDepthwiseConv2D(3, 1, Same, ReLU)
	c.Build(3)
	initTensor(rng, c.W.Data, 9, ReLU)
	checkGradients(t, c, randInput(rng, 5, 5, 3), 2e-2)
}

func TestDepthwiseChannelIsolation(t *testing.T) {
	// A depthwise conv must not mix channels: zero out channel 1's
	// weights and its output must be the bias only.
	c := NewDepthwiseConv2D(3, 1, Same, None)
	c.Build(2)
	for k := 0; k < 9; k++ {
		c.W.Data[k*2+0] = 1 // channel 0 passes
		c.W.Data[k*2+1] = 0 // channel 1 blocked
	}
	c.B.Data[1] = 7
	rng := rand.New(rand.NewSource(4))
	out := forward(t, c, randInput(rng, 4, 4, 2))
	for i := 0; i < 16; i++ {
		if out.Data[i*2+1] != 7 {
			t.Fatalf("channel 1 leaked: %g", out.Data[i*2+1])
		}
	}
}

func TestConv1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv1D(4, 3, 2, Same, ReLU)
	c.Build(3)
	initTensor(rng, c.W.Data, 9, ReLU)
	checkGradients(t, c, randInput(rng, 9, 3), 2e-2)
}

func TestPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	checkGradients(t, NewMaxPool2D(2, 2), randInput(rng, 4, 4, 2), 1e-2)
	checkGradients(t, NewAvgPool2D(2, 2), randInput(rng, 4, 4, 2), 1e-2)
	checkGradients(t, NewMaxPool1D(2, 2), randInput(rng, 8, 3), 1e-2)
	checkGradients(t, NewGlobalAvgPool2D(), randInput(rng, 3, 3, 4), 1e-2)
}

func TestMaxPoolKnownValues(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	in := tensor.MustFromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 4, 4, 1)
	out := forward(t, p, in)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("out[%d] = %g, want %g", i, out.Data[i], want[i])
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool2D()
	in := tensor.MustFromSlice([]float32{1, 10, 2, 20, 3, 30, 4, 40}, 2, 2, 2)
	out := forward(t, g, in)
	if out.Data[0] != 2.5 || out.Data[1] != 25 {
		t.Fatalf("out = %v", out.Data)
	}
}

func TestSoftmax(t *testing.T) {
	s := NewSoftmax()
	out := forward(t, s, tensor.MustFromSlice([]float32{1, 2, 3}, 3))
	var sum float32
	for _, v := range out.Data {
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-6 {
		t.Fatalf("softmax sum = %g", sum)
	}
	if !(out.Data[2] > out.Data[1] && out.Data[1] > out.Data[0]) {
		t.Fatal("softmax not monotone")
	}
	// Large logits must not overflow.
	out = forward(t, s, tensor.MustFromSlice([]float32{1000, 1000, 999}, 3))
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflow")
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bn := NewBatchNorm()
	bn.Build(3)
	for i := range bn.Mean.Data {
		bn.Mean.Data[i] = float32(rng.NormFloat64())
		bn.Var.Data[i] = float32(0.5 + rng.Float64())
	}
	checkGradients(t, bn, randInput(rng, 4, 4, 3), 1e-2)
}

func TestBatchNormIdentityDefaults(t *testing.T) {
	bn := NewBatchNorm()
	in := tensor.MustFromSlice([]float32{1, -2, 3}, 3)
	bn.Build(3)
	out := forward(t, bn, in)
	for i := range in.Data {
		if math.Abs(float64(out.Data[i]-in.Data[i])) > 5e-3 {
			t.Errorf("default BN not identity: %g -> %g", in.Data[i], out.Data[i])
		}
	}
}

func TestDropout(t *testing.T) {
	d := NewDropout(0.5)
	in := tensor.NewF32(1000)
	in.Fill(1)
	// Inference: identity.
	out := forward(t, d, in)
	for _, v := range out.Data {
		if v != 1 {
			t.Fatal("dropout not identity at inference")
		}
	}
	// Training: roughly half dropped, survivors scaled 2x.
	out = forward(t, &maskedDropout{Dropout: d, rng: rand.New(rand.NewSource(42)), mask: make([]bool, 1000)}, in)
	kept := 0
	for _, v := range out.Data {
		if v != 0 {
			if v != 2 {
				t.Fatalf("survivor = %g, want 2", v)
			}
			kept++
		}
	}
	if kept < 400 || kept > 600 {
		t.Fatalf("kept %d of 1000 at rate 0.5", kept)
	}
}

// fixedMask is a training dropout whose every forward draws the same
// mask, so a numeric gradient sees one function.
type fixedMask struct {
	*maskedDropout
}

func (d fixedMask) InferInto(in tensor.Shape, src, dst []float32) {
	d.rng.Seed(9)
	d.maskedDropout.InferInto(in, src, dst)
}

func TestDropoutGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := &maskedDropout{Dropout: NewDropout(0.3), mask: make([]bool, 20), rng: rand.New(rand.NewSource(0))}
	checkGradients(t, fixedMask{d}, randInput(rng, 4, 5), 1e-2)
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	in := randInput(rand.New(rand.NewSource(9)), 2, 3, 4)
	out := forward(t, f, in)
	if !out.Shape.Equal([]int{24}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("flatten moved element %d", i)
		}
	}
	if !Aliases(f.Kind()) {
		t.Fatal("flatten must alias its input in the arena")
	}
}

func TestModelEndToEnd(t *testing.T) {
	m := NewModel(8, 8, 1)
	m.NumClasses = 3
	m.Add(NewConv2D(4, 3, 1, Same, ReLU)).
		Add(NewMaxPool2D(2, 2)).
		Add(NewFlatten()).
		Add(NewDense(3, None)).
		Add(NewSoftmax())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := InitWeights(m, 42); err != nil {
		t.Fatal(err)
	}
	out := m.Forward(randInput(rand.New(rand.NewSource(10)), 8, 8, 1))
	if len(out.Data) != 3 {
		t.Fatalf("out len = %d", len(out.Data))
	}
	var sum float32
	for _, v := range out.Data {
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Fatalf("probabilities sum to %g", sum)
	}
	if m.ParamCount() == 0 || m.MACs() == 0 {
		t.Fatal("no params or MACs")
	}
}

func TestModelValidateMismatch(t *testing.T) {
	m := NewModel(4)
	m.NumClasses = 3
	m.Add(NewDense(2, None))
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted class mismatch")
	}
	bad := NewModel(0)
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted invalid input shape")
	}
}

func TestMACCounts(t *testing.T) {
	// conv2d: out 2x2, 1 filter, kernel 2x2x1 -> 4*4 = 16 MACs
	c := NewConv2D(1, 2, 1, Valid, None)
	if got := c.MACs(tensor.Shape{3, 3, 1}); got != 16 {
		t.Errorf("conv2d MACs = %d, want 16", got)
	}
	d := NewDense(10, None)
	if got := d.MACs(tensor.Shape{20}); got != 200 {
		t.Errorf("dense MACs = %d, want 200", got)
	}
	dw := NewDepthwiseConv2D(3, 1, Same, None)
	if got := dw.MACs(tensor.Shape{4, 4, 8}); got != 4*4*8*9 {
		t.Errorf("depthwise MACs = %d", got)
	}
	c1 := NewConv1D(16, 3, 1, Same, None)
	if got := c1.MACs(tensor.Shape{49, 13}); got != 49*16*3*13 {
		t.Errorf("conv1d MACs = %d", got)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	m := NewModel(16, 16, 3)
	m.NumClasses = 2
	m.Add(NewConv2D(4, 3, 2, Same, ReLU)).
		Add(NewBatchNorm()).
		Add(NewDepthwiseConv2D(3, 1, Same, ReLU6)).
		Add(NewGlobalAvgPool2D()).
		Add(NewDense(2, None)).
		Add(NewSoftmax())
	if err := InitWeights(m, 1); err != nil {
		t.Fatal(err)
	}
	specs, err := m.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("%d specs", len(specs))
	}
	m2, err := ModelFromSpecs(m.InputShape, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := copyWeights(m2, m); err != nil {
		t.Fatal(err)
	}
	in := randInput(rand.New(rand.NewSource(11)), 16, 16, 3)
	a := m.Forward(in)
	b := m2.Forward(in)
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > 1e-6 {
			t.Fatalf("reconstructed model diverges at %d: %g vs %g", i, a.Data[i], b.Data[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewModel(4)
	m.Add(NewDense(3, ReLU)).Add(NewDense(2, None)).Add(NewSoftmax())
	InitWeights(m, 3)
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate clone weights; original must not change.
	c.Params()[0].Data[0] += 100
	in := randInput(rand.New(rand.NewSource(12)), 4)
	a := m.Forward(in)
	b := c.Forward(in)
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("clone shares weights with original")
	}
}

func TestLayerFromSpecUnknown(t *testing.T) {
	if _, err := layerFromSpec(OpSpec{Kind: "warp_drive"}); err == nil {
		t.Fatal("accepted unknown kind")
	}
}

// TestForwardTo holds every boundary ForwardTo copies out of the
// executor, bit for bit and shape for shape, to a test-local walk of
// Layer.InferInto into fresh tensors, on models covering every layer kind that computes at
// inference and the aliasing ones between them.
func TestForwardTo(t *testing.T) {
	dense := NewModel(4)
	dense.Add(NewDense(8, ReLU)).Add(NewDense(2, None)).Add(NewSoftmax())
	conv := NewModel(10, 9, 3)
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
	audio.Add(NewConv1D(8, 3, 2, Same, ReLU)).
		Add(NewMaxPool1D(2, 2)).
		Add(NewReshape(5, 1, 8)).
		Add(NewGlobalAvgPool2D()).
		Add(NewDense(3, None)).
		Add(NewSoftmax())
	rng := rand.New(rand.NewSource(13))
	for mi, m := range []*Model{dense, conv, audio} {
		if err := InitWeights(m, int64(5+mi)); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			in := randInput(rng, m.InputShape...)
			for n := -1; n <= len(m.Layers)+1; n++ {
				want := in
				for i := 0; i < n && i < len(m.Layers); i++ {
					want = forward(t, m.Layers[i], want)
				}
				got := m.ForwardTo(in, n)
				if !got.Shape.Equal(want.Shape) || len(got.Data) != len(want.Data) {
					t.Fatalf("model %d n=%d: shape %v, want %v", mi, n, got.Shape, want.Shape)
				}
				for i := range got.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("model %d n=%d elem %d: %v, want %v", mi, n, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestInitClassifierBias(t *testing.T) {
	m := NewModel(4)
	m.Add(NewDense(8, ReLU)).Add(NewDense(2, None)).Add(NewSoftmax())
	InitWeights(m, 6)
	InitClassifierBias(m, []float64{0.9, 0.1})
	d := m.Layers[1].(*Dense)
	if math.Abs(float64(d.B.Data[0])-math.Log(0.9)) > 1e-6 {
		t.Errorf("bias[0] = %g", d.B.Data[0])
	}
	if d.B.Data[0] <= d.B.Data[1] {
		t.Error("majority class bias should be larger")
	}
}

func TestActivationStrings(t *testing.T) {
	if None.String() != "none" || ReLU.String() != "relu" || ReLU6.String() != "relu6" || Sigmoid.String() != "sigmoid" {
		t.Error("activation strings")
	}
	if Valid.String() != "valid" || Same.String() != "same" {
		t.Error("padding strings")
	}
}

func TestReLU6Clamps(t *testing.T) {
	if ReLU6.apply(10) != 6 || ReLU6.apply(-1) != 0 || ReLU6.apply(3) != 3 {
		t.Error("relu6 values")
	}
	if ReLU6.grad(6) != 0 || ReLU6.grad(3) != 1 {
		t.Error("relu6 grads")
	}
}

func BenchmarkConv2DForward32(b *testing.B) {
	c := NewConv2D(16, 3, 1, Same, ReLU)
	c.Build(8)
	rng := rand.New(rand.NewSource(1))
	initTensor(rng, c.W.Data, 72, ReLU)
	in := randInput(rng, 32, 32, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forward(b, c, in)
	}
}

func BenchmarkDenseForward256(b *testing.B) {
	d := NewDense(256, ReLU)
	d.Build(256)
	rng := rand.New(rand.NewSource(1))
	initTensor(rng, d.W.Data, 256, ReLU)
	in := randInput(rng, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forward(b, d, in)
	}
}

package quant

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/tensor"
)

func randTensor(rng *rand.Rand, shape ...int) *tensor.F32 {
	t := tensor.NewF32(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func TestQuantizeMultiplierRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		real := math.Exp(rng.Float64()*10 - 5) // 0.0067 .. 148
		mult, shift := quantizeMultiplier(real)
		// Check the decomposition approximates the real multiplier on a
		// sample accumulator.
		acc := int32(rng.Intn(1<<20) - 1<<19)
		got := float64(multiplyByQuantizedMultiplier(acc, mult, shift))
		want := float64(acc) * real
		return math.Abs(got-want) <= math.Abs(want)*1e-3+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeMultiplierEdge(t *testing.T) {
	if m, s := quantizeMultiplier(0); m != 0 || s != 0 {
		t.Error("zero multiplier")
	}
	if m, s := quantizeMultiplier(-1); m != 0 || s != 0 {
		t.Error("negative multiplier")
	}
	// Identity multiplier.
	mult, shift := quantizeMultiplier(1.0)
	if got := multiplyByQuantizedMultiplier(1000, mult, shift); got != 1000 {
		t.Errorf("identity requant: %d", got)
	}
}

func trainedDenseModel(t *testing.T) (*nn.Model, []*tensor.F32) {
	t.Helper()
	m := nn.NewModel(8)
	m.NumClasses = 3
	m.Add(nn.NewDense(16, nn.ReLU)).Add(nn.NewDense(3, nn.None)).Add(nn.NewSoftmax())
	if err := nn.InitWeights(m, 7); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var calib []*tensor.F32
	for i := 0; i < 32; i++ {
		calib = append(calib, randTensor(rng, 8))
	}
	return m, calib
}

func TestQuantizedDenseMatchesFloat(t *testing.T) {
	m, calib := trainedDenseModel(t)
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	agree := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		in := randTensor(rng, 8)
		fp := m.Forward(in)
		qp := qm.Forward(in)
		if fp.ArgMax() == qp.ArgMax() {
			agree++
		}
		// Probabilities should be roughly aligned.
		for c := range fp.Data {
			if math.Abs(float64(fp.Data[c]-qp.Data[c])) > 0.25 {
				t.Errorf("trial %d class %d: float %.3f int8 %.3f", i, c, fp.Data[c], qp.Data[c])
			}
		}
	}
	if agree < trials*9/10 {
		t.Fatalf("argmax agreement %d/%d", agree, trials)
	}
}

func TestQuantizedConvModelMatchesFloat(t *testing.T) {
	m := nn.NewModel(8, 8, 1)
	m.NumClasses = 2
	m.Add(nn.NewConv2D(4, 3, 1, nn.Same, nn.ReLU)).
		Add(nn.NewMaxPool2D(2, 2)).
		Add(nn.NewDepthwiseConv2D(3, 1, nn.Same, nn.ReLU6)).
		Add(nn.NewGlobalAvgPool2D()).
		Add(nn.NewDense(2, nn.None)).
		Add(nn.NewSoftmax())
	if err := nn.InitWeights(m, 11); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	var calib []*tensor.F32
	for i := 0; i < 16; i++ {
		calib = append(calib, randTensor(rng, 8, 8, 1))
	}
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		in := randTensor(rng, 8, 8, 1)
		if m.Forward(in).ArgMax() == qm.Forward(in).ArgMax() {
			agree++
		}
	}
	if agree < trials*8/10 {
		t.Fatalf("argmax agreement %d/%d", agree, trials)
	}
}

func TestQuantizeConv1DModel(t *testing.T) {
	m := nn.NewModel(16, 4)
	m.NumClasses = 2
	m.Add(nn.NewConv1D(8, 3, 1, nn.Same, nn.ReLU)).
		Add(nn.NewMaxPool1D(2, 2)).
		Add(nn.NewFlatten()).
		Add(nn.NewDense(2, nn.None)).
		Add(nn.NewSoftmax())
	nn.InitWeights(m, 13)
	rng := rand.New(rand.NewSource(14))
	var calib []*tensor.F32
	for i := 0; i < 16; i++ {
		calib = append(calib, randTensor(rng, 16, 4))
	}
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := 0; i < 30; i++ {
		in := randTensor(rng, 16, 4)
		if m.Forward(in).ArgMax() == qm.Forward(in).ArgMax() {
			agree++
		}
	}
	if agree < 24 {
		t.Fatalf("agreement %d/30", agree)
	}
}

func TestQuantizeDropsDropout(t *testing.T) {
	m := nn.NewModel(4)
	m.NumClasses = 2
	m.Add(nn.NewDense(8, nn.ReLU)).
		Add(nn.NewDropout(0.5)).
		Add(nn.NewDense(2, nn.None)).
		Add(nn.NewSoftmax())
	nn.InitWeights(m, 15)
	calib := []*tensor.F32{randTensor(rand.New(rand.NewSource(16)), 4)}
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range qm.Ops {
		if op.Kind == "dropout" {
			t.Fatal("dropout survived quantization")
		}
	}
}

func TestQuantizeValidation(t *testing.T) {
	m, _ := trainedDenseModel(t)
	if _, err := Quantize(m, nil); err == nil {
		t.Error("accepted empty calibration")
	}
	wrong := []*tensor.F32{tensor.NewF32(3)}
	if _, err := Quantize(m, wrong); err == nil {
		t.Error("accepted wrong calibration shape")
	}
	// Sigmoid fused activation unsupported.
	sg := nn.NewModel(4)
	sg.NumClasses = 2
	sg.Add(nn.NewDense(2, nn.Sigmoid)).Add(nn.NewSoftmax())
	nn.InitWeights(sg, 1)
	if _, err := Quantize(sg, []*tensor.F32{tensor.NewF32(4)}); err == nil {
		t.Error("accepted sigmoid")
	}
}

func TestWeightBytesAndMACs(t *testing.T) {
	m, calib := trainedDenseModel(t)
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	// dense1: 8*16 w + 16 bias*4; dense2: 16*3 w + 3 bias*4.
	want := int64(8*16+16*4) + int64(16*3+3*4)
	if qm.WeightBytes() != want {
		t.Fatalf("WeightBytes = %d, want %d", qm.WeightBytes(), want)
	}
	if qm.MACs() != m.MACs() {
		t.Fatalf("MACs %d != float %d", qm.MACs(), m.MACs())
	}
	// int8 weights are 4x smaller than float32 weights.
	floatBytes := int64(m.ParamCount()) * 4
	if qm.WeightBytes() >= floatBytes {
		t.Fatalf("int8 %d bytes not smaller than float %d", qm.WeightBytes(), floatBytes)
	}
}

func TestFoldBatchNormEquivalence(t *testing.T) {
	m := nn.NewModel(6, 6, 2)
	m.NumClasses = 2
	m.Add(nn.NewConv2D(4, 3, 1, nn.Same, nn.None)).
		Add(nn.NewBatchNorm()).
		Add(nn.NewGlobalAvgPool2D()).
		Add(nn.NewDense(2, nn.None)).
		Add(nn.NewSoftmax())
	nn.InitWeights(m, 20)
	// Give the BN non-trivial statistics.
	bn := m.Layers[1].(*nn.BatchNorm)
	bn.Build(4)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4; i++ {
		bn.Mean.Data[i] = float32(rng.NormFloat64())
		bn.Var.Data[i] = float32(0.5 + rng.Float64())
		bn.Gamma.Data[i] = float32(0.5 + rng.Float64())
		bn.Beta.Data[i] = float32(rng.NormFloat64())
	}
	folded, err := FoldBatchNorm(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(folded.Layers) != len(m.Layers)-1 {
		t.Fatalf("folded has %d layers", len(folded.Layers))
	}
	for i := 0; i < 10; i++ {
		in := randTensor(rng, 6, 6, 2)
		a := m.Forward(in)
		b := folded.Forward(in)
		for c := range a.Data {
			if math.Abs(float64(a.Data[c]-b.Data[c])) > 1e-4 {
				t.Fatalf("fold diverges: %v vs %v", a.Data, b.Data)
			}
		}
	}
}

func TestFoldBatchNormThroughReLU(t *testing.T) {
	// Positive gamma folds through ReLU exactly.
	m := nn.NewModel(4, 4, 1)
	m.NumClasses = 2
	m.Add(nn.NewConv2D(2, 3, 1, nn.Same, nn.ReLU)).
		Add(nn.NewBatchNorm()).
		Add(nn.NewGlobalAvgPool2D()).
		Add(nn.NewDense(2, nn.None)).
		Add(nn.NewSoftmax())
	nn.InitWeights(m, 22)
	if _, err := FoldBatchNorm(m); err != nil {
		t.Fatalf("positive-gamma fold through relu failed: %v", err)
	}
	// Negative gamma must be rejected for ReLU.
	bn := m.Layers[1].(*nn.BatchNorm)
	bn.Gamma.Data[0] = -1
	if _, err := FoldBatchNorm(m); err == nil {
		t.Fatal("negative gamma folded through relu")
	}
}

func TestFoldBatchNormLeadingBN(t *testing.T) {
	m := nn.NewModel(4)
	m.Add(nn.NewBatchNorm())
	m.Layers[0].(*nn.BatchNorm).Build(4)
	if _, err := FoldBatchNorm(m); err == nil {
		t.Fatal("accepted batchnorm with no preceding layer")
	}
}

func TestRoundDiv(t *testing.T) {
	cases := []struct{ a, b, want int32 }{
		{7, 2, 4}, {-7, 2, -4}, {6, 3, 2}, {5, 2, 3}, {-5, 2, -3}, {0, 4, 0},
	}
	for _, c := range cases {
		if got := roundDiv(c.a, c.b); got != c.want {
			t.Errorf("roundDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestQuantizedPoolingExactness(t *testing.T) {
	// Max pooling in the quantized domain must match float max pooling
	// exactly (same qparams in and out).
	m := nn.NewModel(4, 4, 1)
	m.NumClasses = 4
	m.Add(nn.NewMaxPool2D(2, 2)).Add(nn.NewFlatten()).Add(nn.NewSoftmax())
	rng := rand.New(rand.NewSource(23))
	calib := []*tensor.F32{randTensor(rng, 4, 4, 1)}
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	in := calib[0]
	qin := tensor.QuantizeF32(in, qm.InQ)
	pool := qm.RunOp(qm.Ops[0], qin)
	// Check each output equals max of quantized window.
	for oy := 0; oy < 2; oy++ {
		for ox := 0; ox < 2; ox++ {
			best := int8(-128)
			for ky := 0; ky < 2; ky++ {
				for kx := 0; kx < 2; kx++ {
					v := qin.Data[(oy*2+ky)*4+(ox*2+kx)]
					if v > best {
						best = v
					}
				}
			}
			if pool.Data[oy*2+ox] != best {
				t.Fatalf("pool mismatch at %d,%d", oy, ox)
			}
		}
	}
}

func BenchmarkQuantizedDense(b *testing.B) {
	m, calib := func() (*nn.Model, []*tensor.F32) {
		m := nn.NewModel(256)
		m.NumClasses = 10
		m.Add(nn.NewDense(128, nn.ReLU)).Add(nn.NewDense(10, nn.None)).Add(nn.NewSoftmax())
		nn.InitWeights(m, 1)
		rng := rand.New(rand.NewSource(2))
		return m, []*tensor.F32{randTensor(rng, 256)}
	}()
	qm, err := Quantize(m, calib)
	if err != nil {
		b.Fatal(err)
	}
	in := calib[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qm.Forward(in)
	}
}

// TestRoundToInt32Saturates pins the float64 -> int32 step of the
// quantizer where Go's own conversion is implementation-defined.
func TestRoundToInt32Saturates(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want int32
	}{
		{0, 0}, {0.5, 1}, {-0.5, -1}, {1.4999, 1}, {-2.5, -3},
		{2147483646.4, 2147483646}, {2147483646.5, math.MaxInt32}, {2147483648, math.MaxInt32},
		{-2147483646.5, -math.MaxInt32}, {-2147483648, -math.MaxInt32}, {-2147483649, -math.MaxInt32},
		{1e300, math.MaxInt32}, {-1e300, -math.MaxInt32},
		{math.Inf(1), math.MaxInt32}, {math.Inf(-1), -math.MaxInt32}, {math.NaN(), 0},
	} {
		if got := roundToInt32(c.x); got != c.want {
			t.Errorf("roundToInt32(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestQuantizeTinyScaleSaturatesBias is the regression test for the
// unsaturated bias conversion: a calibration range of 1e-30 makes
// InQ.Scale*WScale so small that bias/scale leaves int32, which used to
// convert to 0x80000000 on amd64 (a large negative bias for a positive
// float bias) and to something else elsewhere.
func TestQuantizeTinyScaleSaturatesBias(t *testing.T) {
	for _, c := range []struct {
		bias float32
		want int32
	}{
		{0.5, math.MaxInt32},
		{-0.5, -math.MaxInt32},
		{0, 0},
		{float32(math.Inf(1)), math.MaxInt32},
		{1e-20, math.MaxInt32},
		{-1e-20, -math.MaxInt32},
	} {
		m := nn.NewModel(2)
		m.NumClasses = 2
		d := nn.NewDense(2, nn.None)
		m.Add(d)
		if err := nn.InitWeights(m, 3); err != nil {
			t.Fatal(err)
		}
		d.B.Data[0], d.B.Data[1] = c.bias, 0
		calib := []*tensor.F32{{Shape: tensor.Shape{2}, Data: []float32{1e-30, -1e-30}}}
		qm, err := Quantize(m, calib)
		if err != nil {
			t.Fatal(err)
		}
		if got := qm.Ops[0].Bias; got[0] != c.want || got[1] != 0 {
			t.Errorf("bias %g at input scale %g: quantized to %v, want [%d 0]", c.bias, qm.Ops[0].InQ.Scale, got, c.want)
		}
		for _, w := range qm.Ops[0].W {
			if w < -127 || w > 127 {
				t.Errorf("weight %d outside the symmetric range", w)
			}
		}
	}
}

// weightsDigest hashes every serializable tensor of m, bit for bit.
func weightsDigest(m *nn.Model) [sha256.Size]byte {
	h := sha256.New()
	for _, p := range nn.SerializableTensors(m) {
		for _, v := range p.Data {
			binary.Write(h, binary.LittleEndian, math.Float32bits(v))
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestQuantizeSharesNothingItWrites quantizes models without BatchNorm,
// which Quantize does not copy, while two goroutines run Forward on
// them: under -race any write to a shared layer is reported (weight
// reads inside the amd64 assembly kernels are seen only with -tags
// noasm). The weights must come out unchanged and the QModel must
// equal, field by field, the one quantized from a deep copy.
func TestQuantizeSharesNothingItWrites(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *nn.Model
	}{
		{"kws_ds_cnn", models.KWSDSCNN(49, 10, 12)},
		{"cifar_cnn", models.CIFARCNN(32, 3, 10)},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.m
			if err := nn.InitWeights(m, 61); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(62))
			calib := []*tensor.F32{randTensor(rng, m.InputShape...), randTensor(rng, m.InputShape...)}
			before := weightsDigest(m)
			clone, err := m.Clone()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Quantize(clone, calib)
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var started, done sync.WaitGroup
			for g := 0; g < 2; g++ {
				in := randTensor(rng, m.InputShape...)
				started.Add(1)
				done.Add(1)
				go func() {
					defer done.Done()
					m.Forward(in)
					started.Done()
					for {
						select {
						case <-stop:
							return
						default:
							m.Forward(in)
						}
					}
				}()
			}
			started.Wait()
			got, err := Quantize(m, calib)
			close(stop)
			done.Wait()
			if err != nil {
				t.Fatal(err)
			}

			if weightsDigest(m) != before {
				t.Error("Quantize changed the model's weights")
			}
			if !got.InputShape.Equal(want.InputShape) || got.InQ != want.InQ ||
				got.NumClasses != want.NumClasses || len(got.Ops) != len(want.Ops) {
				t.Fatalf("QModel header %v %v %d (%d ops), from a copy %v %v %d (%d ops)",
					got.InputShape, got.InQ, got.NumClasses, len(got.Ops),
					want.InputShape, want.InQ, want.NumClasses, len(want.Ops))
			}
			for i := range want.Ops {
				if !reflect.DeepEqual(*got.Ops[i], *want.Ops[i]) {
					t.Errorf("op %d (%s) differs from the one quantized from a copy", i, want.Ops[i].Kind)
				}
			}
		})
	}
}

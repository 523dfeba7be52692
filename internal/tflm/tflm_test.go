package tflm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

func smallModel(t testing.TB, seed int64) *nn.Model {
	t.Helper()
	m := nn.NewModel(6, 6, 1)
	m.NumClasses = 3
	m.Add(nn.NewConv2D(4, 3, 1, nn.Same, nn.ReLU)).
		Add(nn.NewMaxPool2D(2, 2)).
		Add(nn.NewFlatten()).
		Add(nn.NewDense(3, nn.None)).
		Add(nn.NewSoftmax())
	if err := nn.InitWeights(m, seed); err != nil {
		t.Fatal(err)
	}
	return m
}

func randIn(rng *rand.Rand, shape ...int) *tensor.F32 {
	x := tensor.NewF32(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

func TestFloatMarshalRoundTrip(t *testing.T) {
	m := smallModel(t, 1)
	data, err := Marshal(ModelFileFromFloat(m))
	if err != nil {
		t.Fatal(err)
	}
	mf2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if mf2.Precision != Float32 || mf2.NumClasses != 3 {
		t.Fatalf("header: %+v", mf2)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		in := randIn(rng, 6, 6, 1)
		a := m.Forward(in)
		b := mf2.Float.Forward(in)
		for c := range a.Data {
			if math.Abs(float64(a.Data[c]-b.Data[c])) > 1e-6 {
				t.Fatalf("roundtrip diverges: %v vs %v", a.Data, b.Data)
			}
		}
	}
}

func TestInt8MarshalRoundTrip(t *testing.T) {
	m := smallModel(t, 3)
	rng := rand.New(rand.NewSource(4))
	calib := []*tensor.F32{randIn(rng, 6, 6, 1), randIn(rng, 6, 6, 1)}
	qm, err := quant.Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(ModelFileFromQuant(qm))
	if err != nil {
		t.Fatal(err)
	}
	mf2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if mf2.Precision != Int8 {
		t.Fatal("precision lost")
	}
	// Unmarshal is the other caller of Rebind: the interpreter must run
	// the deserialized ops on their pair layouts, bit for bit.
	it, err := NewInterpreter(mf2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		in := randIn(rng, 6, 6, 1)
		a := qm.Forward(in)
		b := mf2.Quant.Forward(in)
		c, err := it.Invoke(in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a.Data {
			if math.Float32bits(a.Data[j]) != math.Float32bits(b.Data[j]) || math.Float32bits(a.Data[j]) != math.Float32bits(c.Data[j]) {
				t.Fatalf("int8 roundtrip diverges: %v, forward %v, interpreter %v", a.Data, b.Data, c.Data)
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XX"),
		[]byte("NOPE1234"),
		[]byte("EPTM"),                     // truncated after magic
		[]byte("EPTM\x02\x00\x00\x00"),     // bad version
		[]byte("EPTM\x01\x00\x00\x00\x07"), // bad precision, truncated
		append([]byte("EPTM\x01\x00\x00\x00\x00"), 0xFF, 0xFF, 0xFF, 0xFF), // absurd count
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: Unmarshal accepted garbage", i)
		}
	}
}

func TestUnmarshalTruncationProperty(t *testing.T) {
	// No prefix of a valid model may crash the parser.
	m := smallModel(t, 5)
	data, err := Marshal(ModelFileFromFloat(m))
	if err != nil {
		t.Fatal(err)
	}
	f := func(cut uint16) bool {
		n := int(cut) % len(data)
		_, err := Unmarshal(data[:n])
		return err != nil // must error, not panic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInterpreterInvoke(t *testing.T) {
	m := smallModel(t, 6)
	it, err := NewInterpreter(ModelFileFromFloat(m))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	in := randIn(rng, 6, 6, 1)
	out, err := it.Invoke(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Data) != 3 {
		t.Fatalf("out = %v", out.Shape)
	}
	if it.Invocations() != 5 {
		t.Errorf("invocations = %d, want 5", it.Invocations())
	}
	// Wrong input shape rejected.
	if _, err := it.Invoke(tensor.NewF32(3, 3, 1)); err == nil {
		t.Error("accepted wrong shape")
	}
}

func TestInterpreterInt8(t *testing.T) {
	m := smallModel(t, 8)
	rng := rand.New(rand.NewSource(9))
	qm, err := quant.Quantize(m, []*tensor.F32{randIn(rng, 6, 6, 1)})
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewInterpreter(ModelFileFromQuant(qm))
	if err != nil {
		t.Fatal(err)
	}
	out, err := it.Invoke(randIn(rng, 6, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	var sum float32
	for _, v := range out.Data {
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-4 {
		t.Errorf("probabilities sum %g", sum)
	}
}

func TestNewInterpreterValidation(t *testing.T) {
	if _, err := NewInterpreter(&ModelFile{Precision: Float32}); err == nil {
		t.Error("accepted missing float model")
	}
	if _, err := NewInterpreter(&ModelFile{Precision: Int8}); err == nil {
		t.Error("accepted missing quant model")
	}
	if _, err := NewInterpreter(&ModelFile{Precision: 9}); err == nil {
		t.Error("accepted unknown precision")
	}
}

func TestMarshalValidation(t *testing.T) {
	if _, err := Marshal(&ModelFile{Precision: Float32}); err == nil {
		t.Error("marshalled missing float model")
	}
	if _, err := Marshal(&ModelFile{Precision: 9}); err == nil {
		t.Error("marshalled unknown precision")
	}
}

func TestBatchNormStateSerialized(t *testing.T) {
	m := nn.NewModel(4, 4, 2)
	m.NumClasses = 2
	m.Add(nn.NewConv2D(2, 3, 1, nn.Same, nn.None)).
		Add(nn.NewBatchNorm()).
		Add(nn.NewGlobalAvgPool2D()).
		Add(nn.NewDense(2, nn.None)).
		Add(nn.NewSoftmax())
	nn.InitWeights(m, 12)
	bn := m.Layers[1].(*nn.BatchNorm)
	bn.Build(2)
	bn.Mean.Data[0] = 3.5
	bn.Var.Data[1] = 0.25
	data, err := Marshal(ModelFileFromFloat(m))
	if err != nil {
		t.Fatal(err)
	}
	mf2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	bn2 := mf2.Float.Layers[1].(*nn.BatchNorm)
	if bn2.Mean.Data[0] != 3.5 || bn2.Var.Data[1] != 0.25 {
		t.Fatalf("BN stats lost: mean=%g var=%g", bn2.Mean.Data[0], bn2.Var.Data[1])
	}
}

func BenchmarkInterpreterDispatch(b *testing.B) {
	m := smallModel(b, 13)
	it, _ := NewInterpreter(ModelFileFromFloat(m))
	rng := rand.New(rand.NewSource(14))
	in := randIn(rng, 6, 6, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Invoke(in)
	}
}

// TestUnmarshalRefusesHostileOps: a model file whose ops are sized past
// the weights it carries, or whose geometry no layer can be built with,
// is refused before anything is allocated from its claims.
func TestUnmarshalRefusesHostileOps(t *testing.T) {
	float := func(kind string, attrs map[string]float64, in tensor.Shape) []byte {
		w := &writer{buf: []byte(magic)}
		w.u32(version)
		w.u8(uint8(Float32))
		w.u32(2)
		w.shape(in)
		w.u32(1)
		w.str(kind)
		w.attrs(attrs)
		w.shape(in)
		w.shape(in)
		w.i64(0)
		w.u32(0) // no weight tensors
		return w.buf
	}
	k3 := map[string]float64{"kernel": 3, "stride": 1}
	int8 := func(kind string, attrs map[string]float64, in, out tensor.Shape, weights int) []byte {
		op := &quant.QOp{OpSpec: nn.OpSpec{Kind: kind, InShape: in, OutShape: out, Attrs: attrs},
			W: make([]int8, weights), WScale: 1}
		op.InQ.Scale, op.OutQ.Scale = 1, 1
		qm := &quant.QModel{InputShape: in, NumClasses: 2, Ops: []*quant.QOp{op}}
		qm.InQ.Scale = 1
		b, err := Marshal(ModelFileFromQuant(qm))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, b := range map[string][]byte{
		"dense of 1e9 units":          float("dense", map[string]float64{"units": 1e9}, tensor.Shape{16}),
		"conv2d of kernel 0":          float("conv2d", map[string]float64{"filters": 1, "kernel": 0, "stride": 1}, tensor.Shape{4, 4, 1}),
		"maxpool2d of size 0":         float("maxpool2d", map[string]float64{"size": 0, "stride": 0}, tensor.Shape{4, 4, 1}),
		"reshape of rank 1e12":        float("reshape", map[string]float64{"rank": 1e12}, tensor.Shape{4}),
		"empty input shape":           float("flatten", nil, tensor.Shape{}),
		"int8 dense past its weights": int8("dense", map[string]float64{"units": 40000}, tensor.Shape{40000}, tensor.Shape{40000}, 9),
		"int8 conv2d of rank 1":       int8("conv2d", k3, tensor.Shape{4}, tensor.Shape{4}, 9),
		"int8 depthwise, new width":   int8("depthwise_conv2d", k3, tensor.Shape{4, 4, 1}, tensor.Shape{4, 4, 2}, 9),
		"int8 pool claiming 2^24 rows": int8("maxpool1d", map[string]float64{"size": 2, "stride": 2},
			tensor.Shape{8, 4}, tensor.Shape{1 << 24, 4}, 0),
		"int8 op without a kernel": int8("batchnorm", nil, tensor.Shape{8, 4}, tensor.Shape{8, 4}, 0),
	} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

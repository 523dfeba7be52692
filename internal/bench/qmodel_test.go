package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

// qmodelDigest is the SHA-256 of every field a QModel is deployed with:
// the input shape and quantization, the class count and, per op, its
// spec (kind, shapes, MACs, weight count, attributes in key order) and
// its int8 parameters. Floats enter as their bits, so a moved ulp or a
// flipped zero sign changes the digest.
func qmodelDigest(q *quant.QModel) string {
	h := sha256.New()
	word := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	str := func(s string) { word(uint64(len(s))); h.Write([]byte(s)) }
	shape := func(s tensor.Shape) {
		word(uint64(len(s)))
		for _, d := range s {
			word(uint64(d))
		}
	}
	qp := func(p tensor.QParams) { word(uint64(math.Float32bits(p.Scale))); word(uint64(uint32(p.ZeroPoint))) }
	shape(q.InputShape)
	qp(q.InQ)
	word(uint64(q.NumClasses))
	word(uint64(len(q.Ops)))
	for _, op := range q.Ops {
		str(op.Kind)
		shape(op.InShape)
		shape(op.OutShape)
		word(uint64(op.MACs))
		word(uint64(op.WeightElems))
		keys := make([]string, 0, len(op.Attrs))
		for k := range op.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		word(uint64(len(keys)))
		for _, k := range keys {
			str(k)
			word(math.Float64bits(op.Attrs[k]))
		}
		writeInts(h, op.W)
		word(uint64(math.Float32bits(op.WScale)))
		writeInts(h, op.Bias)
		qp(op.InQ)
		qp(op.OutQ)
		word(uint64(uint32(op.ActMin)))
		word(uint64(uint32(op.ActMax)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeInts[T int8 | int32](h hash.Hash, v []T) {
	binary.Write(h, binary.LittleEndian, uint64(len(v)))
	binary.Write(h, binary.LittleEndian, v)
}

// randomCalibration draws n calibration windows of the given shape from
// a seeded normal distribution, so activations and inputs take both
// signs (the reference workloads calibrate on [0,1) features only).
func randomCalibration(shape tensor.Shape, n int, seed int64) []*tensor.F32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.F32, n)
	for i := range out {
		out[i] = tensor.NewF32(shape...)
		for j := range out[i].Data {
			out[i].Data[j] = float32(rng.NormFloat64())
		}
	}
	return out
}

// foldedDropoutModel is a model Quantize must rewrite before it
// calibrates: a batchnorm with non-trivial statistics to fold into the
// conv before it, and a dropout to drop.
func foldedDropoutModel() *nn.Model {
	m := nn.NewModel(12, 10, 2)
	m.NumClasses = 3
	m.Add(nn.NewConv2D(6, 3, 1, nn.Same, nn.None)).
		Add(nn.NewBatchNorm()).
		Add(nn.NewDepthwiseConv2D(3, 2, nn.Same, nn.ReLU)).
		Add(nn.NewMaxPool2D(2, 2)).
		Add(nn.NewFlatten()).
		Add(nn.NewDropout(0.3)).
		Add(nn.NewDense(3, nn.None)).
		Add(nn.NewSoftmax())
	if err := nn.InitWeights(m, 41); err != nil {
		panic(err)
	}
	bn := m.Layers[1].(*nn.BatchNorm)
	rng := rand.New(rand.NewSource(42))
	for c := range bn.Mean.Data {
		bn.Mean.Data[c] = float32(rng.NormFloat64())
		bn.Var.Data[c] = float32(0.5 + rng.Float64())
		bn.Gamma.Data[c] = float32(0.5 + rng.Float64())
		bn.Beta.Data[c] = float32(rng.NormFloat64())
	}
	return m
}

// TestQModelDigests pins every quantized model bit for bit: the three
// reference workloads as the benchmark builds them, the model families
// the EON Tuner sweeps, and a model with a batchnorm to fold and a
// dropout to drop. A digest may only change in a change that says why.
func TestQModelDigests(t *testing.T) {
	conv1d, err := models.Conv1DStack(49, 13, 4, 16, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	seeded := func(m *nn.Model, seed int64) *nn.Model {
		if err := nn.InitWeights(m, seed); err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name  string
		build func() (*quant.QModel, error)
		want  string
	}{
		{"kws", workloadQModel(KWSWorkload), "9023e4ffb75a6a6c11d86d063a644ed8cabe417294ffafcc70cd165b19511576"},
		{"vww", workloadQModel(VWWWorkload), "30dd51a50c46898cb3ae741bad2b3d21d8409416988d9c66830a410224d32a92"},
		{"ic", workloadQModel(ICWorkload), "409f2baf11b27dca4fa2c33974069edbe80f5054432355d24c4eb01459114aae"},
		{"conv1d_stack", quantizeWith(seeded(conv1d, 51), 52), "ab6afabfd4aaef6924bf8ce9cd7491251f5b605a41eb417ad1577e68f2b395a5"},
		{"mobilenetv2_audio", quantizeWith(seeded(models.MobileNetV2Audio(32, 24, 0.35, 4), 53), 54), "133cf63a9cdf37fb7388a477550c1c09515e6c55cb3587342210382493cbb65f"},
		{"tiny_mlp", quantizeWith(seeded(models.TinyMLP(33, 20, 3), 55), 56), "1cd07af00682ce0bf359c207c9397e55c0f9095bcfb593067b522876c061a07f"},
		{"cifar_cnn", quantizeWith(seeded(models.CIFARCNN(32, 3, 10), 57), 58), "5812b0b14b7f2a8d42585770581f55b301a907fe286aa11823c5e1f5d7c45d88"},
		{"batchnorm_dropout", quantizeWith(foldedDropoutModel(), 59), "939860d30a3d9040b51b36d48b194db03ae39b191628372965c359f4f1292138"},
	}
	for _, c := range cases {
		q, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := qmodelDigest(q); got != c.want {
			t.Errorf("%s: QModel digest %s, want %s", c.name, got, c.want)
		}
	}
}

func workloadQModel(build func() (Workload, error)) func() (*quant.QModel, error) {
	return func() (*quant.QModel, error) {
		w, err := build()
		return w.QModel, err
	}
}

func quantizeWith(m *nn.Model, seed int64) func() (*quant.QModel, error) {
	return func() (*quant.QModel, error) {
		return quant.Quantize(m, randomCalibration(m.InputShape, 8, seed))
	}
}

// TestQuantizeCalibrationAllocs holds calibration to no allocation per
// sample: quantizing KWS with 64 calibration windows allocates what
// quantizing it with 8 does, give or take the executor's pooled arena.
func TestQuantizeCalibrationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	w, err := KWSWorkload()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		calib := calibrationSet(w.Model.InputShape, n, 5)
		return testing.AllocsPerRun(5, func() {
			if _, err := quant.Quantize(w.Model, calib); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a8, a64 := allocs(8), allocs(64); math.Abs(a64-a8) > 2 {
		t.Fatalf("Quantize allocates %.0f times with 8 calibration windows, %.0f with 64", a8, a64)
	}
}

// BenchmarkQuantize times quant.Quantize on each reference model as the
// workloads build it (8 calibration windows), so a set-up can be
// attributed without the benchmark module.
func BenchmarkQuantize(b *testing.B) {
	for _, build := range []func() (Workload, error){KWSWorkload, VWWWorkload, ICWorkload} {
		w, err := build()
		if err != nil {
			b.Fatal(err)
		}
		calib := calibrationSet(w.Model.InputShape, 8, 1)
		b.Run(w.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := quant.Quantize(w.Model, calib); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

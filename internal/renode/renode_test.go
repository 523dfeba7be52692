package renode

import (
	"math/rand"
	"testing"

	"edgepulse/internal/device"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

func kwsSetup(t testing.TB) ([]nn.OpSpec, *quant.QModel, dsp.Cost) {
	t.Helper()
	m := models.KWSDSCNN(49, 10, 12)
	if err := nn.InitWeights(m, 1); err != nil {
		t.Fatal(err)
	}
	specs, err := m.Spec()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	calib := make([]*tensor.F32, 4)
	for i := range calib {
		c := tensor.NewF32(49, 10)
		for j := range c.Data {
			c.Data[j] = float32(rng.NormFloat64())
		}
		calib[i] = c
	}
	qm, err := quant.Quantize(m, calib)
	if err != nil {
		t.Fatal(err)
	}
	mfcc, _ := dsp.NewMFCC(map[string]float64{"num_cepstral": 10})
	sig := dsp.Signal{Data: make([]float32, 16000), Rate: 16000, Axes: 1}
	return specs, qm, mfcc.Cost(sig)
}

func TestInt8FasterThanFloatOnM4(t *testing.T) {
	specs, qm, _ := kwsSetup(t)
	nano := device.MustGet("nano-33-ble-sense")
	f := nnCyclesFloat(nano, specs, TFLM)
	i := nnCyclesInt8(nano, qm, TFLM)
	ratio := float64(f) / float64(i)
	// Paper Table 2: KWS inference 2866ms float vs 323ms int8 (~8.9x).
	if ratio < 4 || ratio > 15 {
		t.Errorf("M4 float/int8 ratio = %.1f, want ~9", ratio)
	}
}

func TestESP32ModestInt8Speedup(t *testing.T) {
	specs, qm, _ := kwsSetup(t)
	esp := device.MustGet("esp-eye")
	f := nnCyclesFloat(esp, specs, TFLM)
	i := nnCyclesInt8(esp, qm, TFLM)
	ratio := float64(f) / float64(i)
	// Paper: 648ms float vs 314ms int8 (~2.1x).
	if ratio < 1.2 || ratio > 4 {
		t.Errorf("ESP32 float/int8 ratio = %.1f, want ~2", ratio)
	}
}

func TestPicoSoftFloatPenalty(t *testing.T) {
	specs, _, _ := kwsSetup(t)
	nano := device.MustGet("nano-33-ble-sense")
	pico := device.MustGet("pi-pico")
	nanoMs := nano.Millis(nnCyclesFloat(nano, specs, TFLM))
	picoMs := pico.Millis(nnCyclesFloat(pico, specs, TFLM))
	// Despite double the clock, the FPU-less Pico is ~2x slower (paper:
	// 5700ms vs 2866ms).
	if picoMs < nanoMs*1.3 {
		t.Errorf("pico %.0fms not slower than nano %.0fms", picoMs, nanoMs)
	}
}

func TestEONRemovesDispatchOverhead(t *testing.T) {
	specs, qm, _ := kwsSetup(t)
	for _, tgt := range device.EvaluationBoards() {
		if EON.String() != "eon" || TFLM.String() != "tflm" {
			t.Fatal("engine strings")
		}
		f1 := nnCyclesFloat(tgt, specs, TFLM)
		f2 := nnCyclesFloat(tgt, specs, EON)
		if f2 >= f1 {
			t.Errorf("%s: EON float %d not cheaper than TFLM %d", tgt.ID, f2, f1)
		}
		i1 := nnCyclesInt8(tgt, qm, TFLM)
		i2 := nnCyclesInt8(tgt, qm, EON)
		if i2 >= i1 {
			t.Errorf("%s: EON int8 %d not cheaper than TFLM %d", tgt.ID, i2, i1)
		}
	}
}

func TestDSPDominatesForKWSInt8(t *testing.T) {
	// Paper Sec 5.2: preprocessing can equal or exceed optimized (int8)
	// inference time for KWS.
	_, qm, dspCost := kwsSetup(t)
	nano := device.MustGet("nano-33-ble-sense")
	est := EstimateInt8(nano, dspCost, qm, TFLM)
	if est.DSPMillis < est.InferenceMillis*0.2 {
		t.Errorf("DSP %.1fms negligible vs int8 inference %.1fms", est.DSPMillis, est.InferenceMillis)
	}
}

func TestEstimateTotalsConsistent(t *testing.T) {
	specs, qm, dspCost := kwsSetup(t)
	nano := device.MustGet("nano-33-ble-sense")
	ef := EstimateFloat(nano, dspCost, specs, TFLM)
	ei := EstimateInt8(nano, dspCost, qm, TFLM)
	for _, e := range []Estimate{ef, ei} {
		if e.TotalMillis < e.DSPMillis+e.InferenceMillis {
			t.Errorf("total %.2f < dsp %.2f + infer %.2f", e.TotalMillis, e.DSPMillis, e.InferenceMillis)
		}
		if e.TotalMillis > (e.DSPMillis+e.InferenceMillis)*1.05 {
			t.Errorf("overhead too large: total %.2f", e.TotalMillis)
		}
	}
	if ef.Precision != Float32 || ei.Precision != Int8 {
		t.Error("precision labels")
	}
	if Float32.String() != "float32" || Int8.String() != "int8" {
		t.Error("precision strings")
	}
	// Preprocessing should be roughly equal between float and int8
	// deployments (paper Table 2 shows near-identical values).
	if ei.DSPMillis < ef.DSPMillis || ei.DSPMillis > ef.DSPMillis*1.2 {
		t.Errorf("int8 DSP %.2f vs float DSP %.2f", ei.DSPMillis, ef.DSPMillis)
	}
}

func TestKWSLatencyBallpark(t *testing.T) {
	// Our absolute numbers are calibrated, not measured; they should land
	// within the right order of magnitude of the paper's Table 2.
	specs, qm, dspCost := kwsSetup(t)
	nano := device.MustGet("nano-33-ble-sense")
	f := EstimateFloat(nano, dspCost, specs, TFLM)
	if f.InferenceMillis < 1000 || f.InferenceMillis > 9000 {
		t.Errorf("KWS float inference %.0fms, paper ~2866ms", f.InferenceMillis)
	}
	i := EstimateInt8(nano, dspCost, qm, TFLM)
	if i.InferenceMillis < 100 || i.InferenceMillis > 1200 {
		t.Errorf("KWS int8 inference %.0fms, paper ~323ms", i.InferenceMillis)
	}
	if f.DSPMillis < 30 || f.DSPMillis > 600 {
		t.Errorf("KWS preprocessing %.0fms, paper ~142ms", f.DSPMillis)
	}
}

func TestOpCyclesKinds(t *testing.T) {
	nano := device.MustGet("nano-33-ble-sense")
	if opCycles(nano, "flatten", 0, 100, 1) != 0 {
		t.Error("flatten should be free")
	}
	if opCycles(nano, "softmax", 0, 10, 1) <= 0 {
		t.Error("softmax should cost cycles")
	}
	if opCycles(nano, "maxpool2d", 0, 100, 1) <= 0 {
		t.Error("pool should cost cycles")
	}
	if opCycles(nano, "unknown_op", 0, 100, 1) <= 0 {
		t.Error("unknown ops should default to element cost")
	}
}

func BenchmarkEstimateKWS(b *testing.B) {
	specs, qm, dspCost := kwsSetup(b)
	nano := device.MustGet("nano-33-ble-sense")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateFloat(nano, dspCost, specs, TFLM)
		EstimateInt8(nano, dspCost, qm, EON)
	}
}

package profiler

import (
	"math/rand"
	"testing"

	"edgepulse/internal/device"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/renode"
	"edgepulse/internal/tensor"
)

func kwsModels(t testing.TB) (*nn.Model, *quant.QModel) {
	t.Helper()
	m := models.KWSDSCNN(49, 10, 12)
	if err := nn.InitWeights(m, 1); err != nil {
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
	return m, qm
}

func TestEONBeatsTFLMOnMemory(t *testing.T) {
	// Table 4's central claim: EON reduces both RAM and flash, for both
	// precisions.
	m, qm := kwsModels(t)
	fpTFLM, err := EstimateFloat(m, renode.TFLM)
	if err != nil {
		t.Fatal(err)
	}
	fpEON, err := EstimateFloat(m, renode.EON)
	if err != nil {
		t.Fatal(err)
	}
	i8TFLM, err := EstimateInt8(qm, renode.TFLM)
	if err != nil {
		t.Fatal(err)
	}
	i8EON, err := EstimateInt8(qm, renode.EON)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, tflm, eon Memory) {
		if eon.RAMBytes >= tflm.RAMBytes {
			t.Errorf("%s: EON RAM %d >= TFLM %d", name, eon.RAMBytes, tflm.RAMBytes)
		}
		if eon.FlashBytes >= tflm.FlashBytes {
			t.Errorf("%s: EON flash %d >= TFLM %d", name, eon.FlashBytes, tflm.FlashBytes)
		}
	}
	check("float", fpTFLM, fpEON)
	check("int8", i8TFLM, i8EON)

	// Quantization shrinks both RAM (1-byte activations) and flash.
	if i8TFLM.RAMBytes >= fpTFLM.RAMBytes {
		t.Error("int8 RAM not smaller than float")
	}
	if i8TFLM.FlashBytes >= fpTFLM.FlashBytes {
		t.Error("int8 flash not smaller than float")
	}
}

func TestKWSMemoryBallpark(t *testing.T) {
	// Paper Table 4 KWS column: FP TFLM 115.8/148.0 kB, Int8 EON 36.4/65.3 kB.
	// Our estimates should land within ~2x of those magnitudes.
	m, qm := kwsModels(t)
	fp, err := EstimateFloat(m, renode.TFLM)
	if err != nil {
		t.Fatal(err)
	}
	if kb := fp.RAMBytes >> 10; kb < 30 || kb > 300 {
		t.Errorf("KWS FP TFLM RAM = %d kB, paper 115.8", kb)
	}
	if kb := fp.FlashBytes >> 10; kb < 60 || kb > 350 {
		t.Errorf("KWS FP TFLM flash = %d kB, paper 148", kb)
	}
	i8, err := EstimateInt8(qm, renode.EON)
	if err != nil {
		t.Fatal(err)
	}
	if kb := i8.RAMBytes >> 10; kb < 5 || kb > 100 {
		t.Errorf("KWS Int8 EON RAM = %d kB, paper 36.4", kb)
	}
	if kb := i8.FlashBytes >> 10; kb < 15 || kb > 150 {
		t.Errorf("KWS Int8 EON flash = %d kB, paper 65.3", kb)
	}
}

func TestVWWFloatDoesNotFitNano(t *testing.T) {
	// Paper Table 2: the float VWW model shows '-' on the Nano 33 and
	// Pico (flash/RAM constrained) but runs on the ESP-EYE.
	m := models.VWWMobileNetV1(96, 3, 0.25, 2)
	if err := nn.InitWeights(m, 3); err != nil {
		t.Fatal(err)
	}
	fp, err := EstimateFloat(m, renode.TFLM)
	if err != nil {
		t.Fatal(err)
	}
	const dspRAM = 36 << 10 // image block working RAM
	if Fits(fp, dspRAM, device.MustGet("nano-33-ble-sense")) {
		t.Errorf("VWW float (%d kB flash, %d kB RAM) should not fit the Nano",
			fp.FlashBytes>>10, fp.RAMBytes>>10)
	}
	if !Fits(fp, dspRAM, device.MustGet("esp-eye")) {
		t.Errorf("VWW float should fit the ESP-EYE (8MB RAM)")
	}
}

func TestKWSFitsEverywhere(t *testing.T) {
	m, qm := kwsModels(t)
	fp, err := EstimateFloat(m, renode.TFLM)
	if err != nil {
		t.Fatal(err)
	}
	i8, err := EstimateInt8(qm, renode.TFLM)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range device.EvaluationBoards() {
		if !Fits(fp, 14<<10, tgt) {
			t.Errorf("KWS float does not fit %s", tgt.ID)
		}
		if !Fits(i8, 14<<10, tgt) {
			t.Errorf("KWS int8 does not fit %s", tgt.ID)
		}
	}
}

func TestMemoryComponentsAddUp(t *testing.T) {
	m, _ := kwsModels(t)
	est, err := EstimateFloat(m, renode.TFLM)
	if err != nil {
		t.Fatal(err)
	}
	if est.RAMBytes != est.ArenaBytes+est.TensorRAM+est.RuntimeRAM {
		t.Error("RAM components do not sum")
	}
	if est.FlashBytes != est.WeightBytes+est.KernelBytes+est.RuntimeFlash+est.MetadataBytes {
		t.Error("flash components do not sum")
	}
}

func TestKernelCodeDedup(t *testing.T) {
	// Two conv2d layers must share one kernel implementation.
	one := nn.NewModel(8, 8, 1)
	one.Add(nn.NewConv2D(2, 3, 1, nn.Same, nn.ReLU))
	two := nn.NewModel(8, 8, 1)
	two.Add(nn.NewConv2D(2, 3, 1, nn.Same, nn.ReLU)).Add(nn.NewConv2D(2, 3, 1, nn.Same, nn.ReLU))
	e1, err := EstimateFloat(one, renode.EON)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := EstimateFloat(two, renode.EON)
	if err != nil {
		t.Fatal(err)
	}
	if e2.KernelBytes != e1.KernelBytes {
		t.Errorf("kernel code grew with duplicate ops: %d vs %d", e1.KernelBytes, e2.KernelBytes)
	}
}

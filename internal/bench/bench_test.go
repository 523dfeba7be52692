package bench

import (
	"math/rand"
	"strings"
	"testing"

	"edgepulse/internal/simd/simdtest"
	"edgepulse/internal/tensor"
)

func TestTable2Shape(t *testing.T) {
	out, cells, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3*3*2 {
		t.Fatalf("%d cells, want 18", len(cells))
	}
	byKey := map[string]Table2Cell{}
	for _, c := range cells {
		byKey[c.Workload+"/"+c.Board+"/"+c.Precision] = c
	}
	// Shape checks against the paper's Table 2 relationships.
	nanoF := byKey["kws/nano-33-ble-sense/float32"]
	nanoI := byKey["kws/nano-33-ble-sense/int8"]
	if !nanoF.Fits || !nanoI.Fits {
		t.Fatal("KWS should fit the Nano")
	}
	// CMSIS-NN-style int8 speedup on the M4 (paper: 2866 -> 323 ms).
	if ratio := nanoF.InferMillis / nanoI.InferMillis; ratio < 4 || ratio > 15 {
		t.Errorf("M4 KWS float/int8 inference ratio %.1f, paper ~8.9", ratio)
	}
	// Preprocessing roughly equal across precisions (paper: 141.65 vs 138.76).
	if nanoI.DSPMillis < nanoF.DSPMillis*0.8 || nanoI.DSPMillis > nanoF.DSPMillis*1.25 {
		t.Errorf("KWS preprocessing differs too much: %.1f vs %.1f", nanoF.DSPMillis, nanoI.DSPMillis)
	}
	// VWW float doesn't fit the Nano or Pico, fits the ESP-EYE (paper '-').
	if byKey["vww/nano-33-ble-sense/float32"].Fits {
		t.Error("VWW float should not fit the Nano")
	}
	if byKey["vww/pi-pico/float32"].Fits {
		t.Error("VWW float should not fit the Pico")
	}
	if !byKey["vww/esp-eye/float32"].Fits {
		t.Error("VWW float should fit the ESP-EYE")
	}
	// Pico float soft-float penalty: slower than the Nano despite 2x clock
	// (paper: 5700 vs 2866 ms).
	picoF := byKey["kws/pi-pico/float32"]
	if picoF.InferMillis < nanoF.InferMillis {
		t.Errorf("Pico float %.0fms not slower than Nano %.0fms", picoF.InferMillis, nanoF.InferMillis)
	}
	// ESP32 float beats the M4 on inference (paper: 648 vs 2866 ms).
	espF := byKey["kws/esp-eye/float32"]
	if espF.InferMillis > nanoF.InferMillis {
		t.Errorf("ESP float %.0fms not faster than Nano %.0fms", espF.InferMillis, nanoF.InferMillis)
	}
	// Rendered table contains the '-' markers.
	if !strings.Contains(out, "-") {
		t.Error("no '-' markers in rendered table")
	}
}

func TestTable4Shape(t *testing.T) {
	out, cells, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3*4 {
		t.Fatalf("%d cells", len(cells))
	}
	get := func(w, p, e string) Table4Cell {
		for _, c := range cells {
			if c.Workload == w && c.Precision == p && c.Engine == e {
				return c
			}
		}
		t.Fatalf("missing cell %s/%s/%s", w, p, e)
		return Table4Cell{}
	}
	for _, w := range []string{"kws", "vww", "ic"} {
		// EON < TFLM on both axes, both precisions (the Table 4 claim).
		for _, p := range []string{"float32", "int8"} {
			tflm := get(w, p, "tflm")
			eon := get(w, p, "eon")
			if eon.RAMKB >= tflm.RAMKB {
				t.Errorf("%s/%s: EON RAM %.1f >= TFLM %.1f", w, p, eon.RAMKB, tflm.RAMKB)
			}
			if eon.FlashKB >= tflm.FlashKB {
				t.Errorf("%s/%s: EON flash %.1f >= TFLM %.1f", w, p, eon.FlashKB, tflm.FlashKB)
			}
		}
		// Int8 < float on both axes.
		if get(w, "int8", "tflm").RAMKB >= get(w, "float32", "tflm").RAMKB {
			t.Errorf("%s: int8 RAM not smaller", w)
		}
		if get(w, "int8", "tflm").FlashKB >= get(w, "float32", "tflm").FlashKB {
			t.Errorf("%s: int8 flash not smaller", w)
		}
	}
	if !strings.Contains(out, "Preprocessing") {
		t.Error("missing preprocessing row")
	}
}

func TestAccuracyProxies(t *testing.T) {
	accs, rendered, err := AccuracyProxies(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 3 {
		t.Fatalf("%d workloads", len(accs))
	}
	for _, a := range accs {
		if a.Float < 0.6 {
			t.Errorf("%s float accuracy %.2f too low", a.Workload, a.Float)
		}
		// Int8 within 20 points of float (paper: within ~2 points, but
		// our proxies are tiny).
		if a.Int8 < a.Float-0.2 {
			t.Errorf("%s int8 %.2f collapsed vs float %.2f", a.Workload, a.Int8, a.Float)
		}
	}
	if !strings.Contains(rendered, "Float32") {
		t.Error("rendered accuracy table")
	}
}

func TestKWSWorkloadBudget(t *testing.T) {
	w, err := KWSWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if w.Model.MACs() < 1_500_000 {
		t.Errorf("KWS MACs %d", w.Model.MACs())
	}
	if w.DSPCost.FFTButterflies == 0 {
		t.Error("no DSP cost")
	}
	if w.QModel == nil {
		t.Error("no quantized model")
	}
}

// BenchmarkForward times one forward pass of each reference model in
// each precision on one core, as on the paper's MCUs, on every simd
// tier: the number the conv kernels move, without DSP, engines or HTTP
// around it.
func BenchmarkForward(b *testing.B) {
	workloads, err := AllWorkloads()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workloads {
		in := tensor.NewF32(w.Model.InputShape...)
		rng := rand.New(rand.NewSource(1))
		for i := range in.Data {
			in.Data[i] = rng.Float32()
		}
		b.Run(w.ID+"/f32", func(b *testing.B) {
			simdtest.ForEachTier(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.Model.Forward(in)
				}
			})
		})
		b.Run(w.ID+"/i8", func(b *testing.B) {
			simdtest.ForEachTier(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.QModel.Forward(in)
				}
			})
		})
	}
}

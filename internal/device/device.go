// Package device models the embedded hardware targets of the paper's
// evaluation (Table 1). Each Target carries the board's memory capacities
// and a calibrated cycle-cost model that encodes its architectural
// features: hardware FPU (or lack of it — the Pi Pico's Cortex-M0+ pays a
// large soft-float penalty), DSP/SIMD extensions usable by CMSIS-NN-style
// int8 kernels, and clock speed.
//
// The cycle model stands in for the physical boards and for the Renode
// emulation the platform uses for its estimates (paper Sec. 4.4); see
// "Stand-ins" in docs/ARCHITECTURE.md for why.
package device

import (
	"fmt"
	"sort"
)

// Target describes one deployment platform.
type Target struct {
	// ID is the stable identifier used by APIs and CLIs.
	ID string
	// Name is the marketing name shown in tables.
	Name string
	// CPU is the processor core.
	CPU string
	// ClockHz is the core clock.
	ClockHz int64
	// FlashBytes and RAMBytes are the capacities from Table 1.
	FlashBytes int64
	RAMBytes   int64
	// HasFPU indicates hardware single-precision float support.
	HasFPU bool
	// HasDSPExt indicates SIMD/DSP instructions exploitable by int8
	// kernels (CMSIS-NN on Cortex-M4).
	HasDSPExt bool

	// Cycle cost model. All values are cycles per unit of work.
	CyclesPerMACF32    float64 // float32 multiply-accumulate (NN kernels)
	CyclesPerMACI8     float64 // int8 MAC with int32 accumulate
	CyclesPerFloatOp   float64 // scalar float add/mul/compare (DSP)
	CyclesPerButterfly float64 // complex FFT butterfly
	CyclesPerTransc    float64 // log/exp/cos/sqrt call
	// KernelCallCycles is fixed overhead per op invocation (loop set-up,
	// bounds computation).
	KernelCallCycles float64
	// InterpreterDispatchCycles is the extra per-op cost of walking the
	// TFLM interpreter graph; the EON compiler eliminates it.
	InterpreterDispatchCycles float64
}

// Millis converts a cycle count to milliseconds on this target.
func (t Target) Millis(cycles int64) float64 {
	return float64(cycles) / float64(t.ClockHz) * 1000
}

// String implements fmt.Stringer.
func (t Target) String() string {
	return fmt.Sprintf("%s (%s @ %d MHz, %d kB flash, %d kB RAM)",
		t.Name, t.CPU, t.ClockHz/1_000_000, t.FlashBytes/1024, t.RAMBytes/1024)
}

// The paper's three evaluation platforms (Table 1), with cycle models
// calibrated so that the latency relationships of Table 2 reproduce:
// CMSIS-NN int8 gives ~9× over float on the M4, the ESP32's FPU and
// clock make float competitive (and int8 barely 2× float), and the
// FPU-less M0+ pays a ~5× soft-float penalty.
var builtins = []Target{
	{
		ID: "nano-33-ble-sense", Name: "Nano 33 BLE Sense", CPU: "Arm Cortex-M4",
		ClockHz: 64_000_000, FlashBytes: 1 << 20, RAMBytes: 256 << 10,
		HasFPU: true, HasDSPExt: true,
		CyclesPerMACF32: 68, CyclesPerMACI8: 7.6,
		CyclesPerFloatOp: 2.5, CyclesPerButterfly: 78, CyclesPerTransc: 90,
		KernelCallCycles: 800, InterpreterDispatchCycles: 1800,
	},
	{
		ID: "esp-eye", Name: "ESP-EYE (ESP32)", CPU: "Tensilica LX6",
		ClockHz: 160_000_000, FlashBytes: 4 << 20, RAMBytes: 8 << 20,
		HasFPU: true, HasDSPExt: false,
		CyclesPerMACF32: 38, CyclesPerMACI8: 18,
		CyclesPerFloatOp: 6, CyclesPerButterfly: 420, CyclesPerTransc: 150,
		KernelCallCycles: 1000, InterpreterDispatchCycles: 2200,
	},
	{
		ID: "pi-pico", Name: "Ras. Pi Pico (RP2040)", CPU: "Arm Cortex-M0+",
		ClockHz: 133_000_000, FlashBytes: 16 << 20, RAMBytes: 264 << 10,
		HasFPU: false, HasDSPExt: false,
		CyclesPerMACF32: 290, CyclesPerMACI8: 56,
		CyclesPerFloatOp: 18, CyclesPerButterfly: 620, CyclesPerTransc: 400,
		KernelCallCycles: 900, InterpreterDispatchCycles: 2000,
	},
	{
		ID: "linux-x86", Name: "Linux x86-64", CPU: "x86-64",
		ClockHz: 2_400_000_000, FlashBytes: 1 << 33, RAMBytes: 1 << 33,
		HasFPU: true, HasDSPExt: true,
		CyclesPerMACF32: 1.2, CyclesPerMACI8: 0.8,
		CyclesPerFloatOp: 0.7, CyclesPerButterfly: 4, CyclesPerTransc: 12,
		KernelCallCycles: 200, InterpreterDispatchCycles: 400,
	},
}

// Get returns the target with the given ID.
func Get(id string) (Target, error) {
	for _, t := range builtins {
		if t.ID == id {
			return t, nil
		}
	}
	return Target{}, fmt.Errorf("device: unknown target %q", id)
}

// MustGet is Get but panics on unknown IDs (for static tables in benches).
func MustGet(id string) Target {
	t, err := Get(id)
	if err != nil {
		panic(err)
	}
	return t
}

// All returns the registered targets sorted by ID.
func All() []Target {
	out := append([]Target(nil), builtins...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// EvaluationBoards returns the paper's three Table 1 platforms in paper
// order.
func EvaluationBoards() []Target {
	return []Target{
		MustGet("nano-33-ble-sense"),
		MustGet("esp-eye"),
		MustGet("pi-pico"),
	}
}

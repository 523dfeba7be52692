// Package renode estimates on-device latency by replaying an impulse's
// operation stream against a device cycle model, standing in for the
// Renode emulation and device-specific benchmarking the platform uses for
// its latency estimates (paper Sec. 4.4).
//
// The simulator is a cost model, not an instruction-set emulator: every
// DSP and NN operation is decomposed into unit work (MACs, FFT
// butterflies, scalar float ops, transcendental calls) which the target's
// calibrated per-unit cycle costs convert into cycles. This is the same
// estimation strategy the platform exposes in its UI.
package renode

import (
	"edgepulse/internal/device"
	"edgepulse/internal/dsp"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
)

// Engine selects the inference runtime being simulated.
type Engine int

// Supported engines.
const (
	// TFLM walks the op graph through an interpreter, paying a dispatch
	// cost per op.
	TFLM Engine = iota
	// EON runs compiler-generated code that calls kernels directly.
	EON
)

func (e Engine) String() string {
	if e == EON {
		return "eon"
	}
	return "tflm"
}

// Precision selects the numeric type of NN inference.
type Precision int

// Supported precisions.
const (
	Float32 Precision = iota
	Int8
)

func (p Precision) String() string {
	if p == Int8 {
		return "int8"
	}
	return "float32"
}

// dspCycles estimates the cycles of one feature extraction.
func dspCycles(t device.Target, c dsp.Cost) int64 {
	cycles := float64(c.FloatOps)*t.CyclesPerFloatOp +
		float64(c.MACs)*t.CyclesPerFloatOp*2 + // DSP MACs are float mul+add
		float64(c.FFTButterflies)*t.CyclesPerButterfly +
		float64(c.TranscOps)*t.CyclesPerTransc
	return int64(cycles)
}

// nnCyclesFloat estimates the cycles of one float32 inference from the
// model's op specs.
func nnCyclesFloat(t device.Target, specs []nn.OpSpec, engine Engine) int64 {
	return nnCycles(t, specs, engine, t.CyclesPerMACF32)
}

// nnCyclesInt8 estimates the cycles of one int8 inference.
func nnCyclesInt8(t device.Target, qm *quant.QModel, engine Engine) int64 {
	return nnCycles(t, qm.Specs(), engine, t.CyclesPerMACI8)
}

func nnCycles(t device.Target, specs []nn.OpSpec, engine Engine, perMAC float64) int64 {
	var cycles float64
	for _, s := range specs {
		cycles += opCycles(t, s.Kind, s.MACs, int64(s.OutShape.Elems()), perMAC)
		cycles += t.KernelCallCycles
		if engine == TFLM {
			cycles += t.InterpreterDispatchCycles
		}
	}
	return int64(cycles)
}

// opCycles decomposes one op into unit work. MAC-dominated ops charge the
// per-MAC cost plus an output-write pass; memory-bound ops (pooling,
// reshapes, softmax) charge element-wise float costs.
func opCycles(t device.Target, kind string, macs, outElems int64, perMAC float64) float64 {
	switch kind {
	case "conv2d", "depthwise_conv2d", "conv1d", "dense", "batchnorm":
		return float64(macs)*perMAC + float64(outElems)*t.CyclesPerFloatOp
	case "maxpool2d", "avgpool2d", "maxpool1d", "gap2d":
		// Pooling reads a window per output; approximate 4 reads/compares.
		return float64(outElems) * 4 * t.CyclesPerFloatOp
	case "softmax":
		return float64(outElems) * (t.CyclesPerTransc + 2*t.CyclesPerFloatOp)
	case "flatten", "reshape", "dropout":
		return 0
	default:
		return float64(outElems) * t.CyclesPerFloatOp
	}
}

// Estimate is a full on-device timing estimate for one impulse window.
type Estimate struct {
	Target    device.Target
	Engine    Engine
	Precision Precision

	DSPCycles int64
	NNCycles  int64

	// DSPMillis, InferenceMillis and TotalMillis mirror the three rows
	// the paper reports per workload in Table 2. Total includes a small
	// SDK overhead outside both stages, as in the paper's measurement.
	DSPMillis       float64
	InferenceMillis float64
	TotalMillis     float64
}

// overheadCycles is the run_classifier glue outside DSP and inference
// (buffer management, result marshalling).
const overheadFraction = 0.005

// EstimateFloat produces the timing estimate for a float32 deployment.
func EstimateFloat(t device.Target, dspCost dsp.Cost, specs []nn.OpSpec, engine Engine) Estimate {
	e := Estimate{Target: t, Engine: engine, Precision: Float32}
	e.DSPCycles = dspCycles(t, dspCost)
	e.NNCycles = nnCyclesFloat(t, specs, engine)
	fill(&e, t)
	return e
}

// EstimateInt8 produces the timing estimate for an int8 deployment. The
// DSP stage still runs in float (as on the real platform) plus a feature
// quantization pass.
func EstimateInt8(t device.Target, dspCost dsp.Cost, qm *quant.QModel, engine Engine) Estimate {
	e := Estimate{Target: t, Engine: engine, Precision: Int8}
	quantizePass := dsp.Cost{FloatOps: int64(qm.InputShape.Elems()) * 2}
	e.DSPCycles = dspCycles(t, dspCost.Add(quantizePass))
	e.NNCycles = nnCyclesInt8(t, qm, engine)
	fill(&e, t)
	return e
}

func fill(e *Estimate, t device.Target) {
	e.DSPMillis = t.Millis(e.DSPCycles)
	e.InferenceMillis = t.Millis(e.NNCycles)
	total := float64(e.DSPCycles+e.NNCycles) * (1 + overheadFraction)
	e.TotalMillis = t.Millis(int64(total))
}

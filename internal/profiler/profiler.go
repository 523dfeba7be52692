// Package profiler estimates the RAM and flash consumption of a deployed
// model (paper Sec. 4.4, Table 4). RAM is dominated by the activation
// tensor arena, which nn.PlanArena plans with a liveness-based allocator
// like the one in TFLM, as every executor's arena is; flash is weights +
// kernel code + runtime. The TFLM engine model pays interpreter overheads
// (flatbuffer metadata, per-tensor bookkeeping, arena padding) that the
// EON compiler model eliminates, reproducing the paper's Table 4 deltas.
package profiler

import (
	"edgepulse/internal/device"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/renode"
	"edgepulse/internal/tensor"
)

// Memory is a RAM/flash estimate for one (engine, precision) deployment.
type Memory struct {
	Engine    renode.Engine
	Precision renode.Precision

	// RAM components (bytes).
	ArenaBytes int64
	TensorRAM  int64 // per-tensor bookkeeping structures
	RuntimeRAM int64 // interpreter / generated-code state
	RAMBytes   int64 // total
	// Flash components (bytes).
	WeightBytes   int64
	KernelBytes   int64 // kernel code for the ops actually used
	RuntimeFlash  int64 // interpreter + schema parser, or EON glue
	MetadataBytes int64 // flatbuffer model metadata (TFLM only)
	FlashBytes    int64 // total
}

// Engine cost constants, calibrated against the paper's Table 4 deltas.
const (
	tflmRuntimeFlash = 36 << 10 // interpreter + flatbuffer parser + allocator
	eonRuntimeFlash  = 4 << 10  // generated dispatch code
	tflmTensorRAM    = 64       // TfLiteTensor-style struct per tensor
	eonTensorRAM     = 16       // static descriptor per tensor
	tflmRuntimeRAM   = 2 << 10  // interpreter state
	eonRuntimeRAM    = 256      // none to speak of
	tflmOpMetadata   = 96       // flatbuffer op entry
	// tflmArenaPad models the interpreter's alignment and scratch
	// padding as a fraction of the arena.
	tflmArenaPad = 0.17
)

// kernelCode returns the code size of one kernel implementation.
func kernelCode(kind string, p renode.Precision) int64 {
	var f32, i8 int64
	switch kind {
	case "conv2d":
		f32, i8 = 2800, 4600
	case "depthwise_conv2d":
		f32, i8 = 2400, 4100
	case "conv1d":
		f32, i8 = 2200, 3400
	case "dense":
		f32, i8 = 1200, 2100
	case "maxpool2d", "maxpool1d":
		f32, i8 = 900, 1100
	case "avgpool2d", "gap2d":
		f32, i8 = 800, 1000
	case "softmax":
		f32, i8 = 1400, 2200
	case "batchnorm":
		f32, i8 = 900, 1200
	default:
		f32, i8 = 200, 200
	}
	if p == renode.Int8 {
		return i8
	}
	return f32
}

// estimate assembles a Memory from component measurements.
func estimate(input tensor.Shape, specs []nn.OpSpec, weightBytes int64, engine renode.Engine, p renode.Precision) Memory {
	elem := int64(4)
	if p == renode.Int8 {
		elem = 1
	}
	bufs, _ := nn.ActivationAssignments(input, specs, elem)
	arena, _ := nn.PlanArena(bufs)

	m := Memory{Engine: engine, Precision: p, WeightBytes: weightBytes}
	// Dead kernel elimination: both engines link only used kernels, but
	// TFLM's op resolver carries registration glue per op.
	seen := map[string]bool{}
	for _, s := range specs {
		if nn.Aliases(s.Kind) {
			continue
		}
		if !seen[s.Kind] {
			seen[s.Kind] = true
			m.KernelBytes += kernelCode(s.Kind, p)
		}
	}
	nTensors := int64(len(specs) + 1)
	switch engine {
	case renode.TFLM:
		m.ArenaBytes = int64(float64(arena) * (1 + tflmArenaPad))
		m.TensorRAM = nTensors * tflmTensorRAM
		m.RuntimeRAM = tflmRuntimeRAM
		m.RuntimeFlash = tflmRuntimeFlash
		m.MetadataBytes = int64(len(specs)) * tflmOpMetadata
		m.KernelBytes += int64(len(seen)) * 300 // op resolver entries
	case renode.EON:
		m.ArenaBytes = arena
		m.TensorRAM = nTensors * eonTensorRAM
		m.RuntimeRAM = eonRuntimeRAM
		m.RuntimeFlash = eonRuntimeFlash
	}
	m.RAMBytes = m.ArenaBytes + m.TensorRAM + m.RuntimeRAM
	m.FlashBytes = m.WeightBytes + m.KernelBytes + m.RuntimeFlash + m.MetadataBytes
	return m
}

// EstimateFloat profiles a float32 deployment of the model.
func EstimateFloat(m *nn.Model, engine renode.Engine) (Memory, error) {
	specs, err := m.Spec()
	if err != nil {
		return Memory{}, err
	}
	var weightBytes int64
	for _, s := range specs {
		weightBytes += int64(s.WeightElems) * 4
	}
	return estimate(m.InputShape, specs, weightBytes, engine, renode.Float32), nil
}

// EstimateInt8 profiles an int8 deployment of a quantized model.
func EstimateInt8(qm *quant.QModel, engine renode.Engine) Memory {
	return estimate(qm.InputShape, qm.Specs(), qm.WeightBytes(), engine, renode.Int8)
}

// Fits reports whether a deployment (model memory plus DSP working RAM)
// fits the target's capacities, leaving headroom for the application
// stack and globals.
func Fits(m Memory, dspRAM int64, t device.Target) bool {
	const appHeadroomRAM = 20 << 10   // stack + firmware globals
	const appHeadroomFlash = 48 << 10 // firmware, HAL, drivers
	return m.RAMBytes+dspRAM+appHeadroomRAM <= t.RAMBytes &&
		m.FlashBytes+appHeadroomFlash <= t.FlashBytes
}

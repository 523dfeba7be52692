// Package profiler estimates the RAM and flash consumption of a deployed
// model (paper Sec. 4.4, Table 4) from the engine that runs it: each
// estimate builds the row's engine from one tflm.ModelFile
// (tflm.NewInterpreter for TFLM, eon.Compile for EON). Measured: the
// arena is the engine's ArenaBytes(), weights are the tensor data of the
// serialised model file, and TFLM's metadata is the rest of that file
// (EON compiles it away). Assumed: per-tensor bookkeeping, runtime RAM
// and flash, kernel code and Fits' headroom, from the device model's
// table (assumed below), since nothing here links firmware.
package profiler

import (
	"edgepulse/internal/device"
	"edgepulse/internal/eon"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/renode"
	"edgepulse/internal/tflm"
)

// Memory is a RAM/flash estimate for one (engine, precision) deployment.
type Memory struct {
	Engine    renode.Engine
	Precision renode.Precision

	// RAM components (bytes).
	ArenaBytes int64 // measured: the engine's activation arena
	TensorRAM  int64 // assumed: per-tensor bookkeeping structures
	RuntimeRAM int64 // assumed: interpreter / generated-code state
	RAMBytes   int64 // total
	// Flash components (bytes).
	WeightBytes   int64 // measured: tensor data of the model file
	KernelBytes   int64 // assumed: kernel code for the ops actually used
	RuntimeFlash  int64 // assumed: interpreter + schema parser, or EON glue
	MetadataBytes int64 // measured: the rest of the model file (TFLM only)
	FlashBytes    int64 // total
}

// engineCosts is what the device model assumes an engine costs beyond
// the model it runs.
type engineCosts struct {
	runtimeFlash  int64 // interpreter + flatbuffer parser + allocator, or EON dispatch glue
	runtimeRAM    int64 // interpreter state
	tensorRAM     int64 // per tensor: a TfLiteTensor-style struct, or a static descriptor
	resolverEntry int64 // op-resolver registration glue per distinct op kind
}

// assumed is the device model's assumptions: every cost of a deployment
// that no artefact in this repository can measure, in one table. The
// figures are typical magnitudes of an MCU build, not measurements.
var assumed = struct {
	tflm, eon engineCosts
	// kernelCode is the code size of one kernel per op kind, float32
	// then int8; a kind not listed costs otherKernel.
	kernelCode  map[string][2]int64
	otherKernel int64
	// Fits leaves room for the application: stack and globals in RAM;
	// firmware, HAL and drivers in flash.
	headroomRAM, headroomFlash int64
}{
	tflm: engineCosts{runtimeFlash: 36 << 10, runtimeRAM: 2 << 10, tensorRAM: 64, resolverEntry: 300},
	eon:  engineCosts{runtimeFlash: 4 << 10, runtimeRAM: 256, tensorRAM: 16},
	kernelCode: map[string][2]int64{
		"conv2d": {2800, 4600}, "depthwise_conv2d": {2400, 4100}, "conv1d": {2200, 3400},
		"dense": {1200, 2100}, "maxpool2d": {900, 1100}, "maxpool1d": {900, 1100},
		"avgpool2d": {800, 1000}, "gap2d": {800, 1000}, "softmax": {1400, 2200},
		"batchnorm": {900, 1200},
	},
	otherKernel:   200,
	headroomRAM:   20 << 10,
	headroomFlash: 48 << 10,
}

// estimate builds the named engine from the model file and reads the
// deployment's memory off it and off the file's serialised form.
func estimate(mf *tflm.ModelFile, engine renode.Engine) (Memory, error) {
	specs, err := mf.Specs()
	if err != nil {
		return Memory{}, err
	}
	weights, metadata, err := tflm.Sizes(mf)
	if err != nil {
		return Memory{}, err
	}
	var run interface{ ArenaBytes() int64 }
	costs := assumed.tflm
	if engine == renode.TFLM {
		run, err = tflm.NewInterpreter(mf)
	} else {
		costs, metadata = assumed.eon, 0 // compiled into the program
		run, err = eon.Compile(mf)
	}
	if err != nil {
		return Memory{}, err
	}
	p, kernel := renode.Float32, 0
	if mf.Precision == tflm.Int8 {
		p, kernel = renode.Int8, 1
	}
	m := Memory{
		Engine: engine, Precision: p,
		ArenaBytes:    run.ArenaBytes(),
		TensorRAM:     int64(len(specs)+1) * costs.tensorRAM,
		RuntimeRAM:    costs.runtimeRAM,
		WeightBytes:   weights,
		RuntimeFlash:  costs.runtimeFlash,
		MetadataBytes: metadata,
	}
	// Dead kernel elimination: both engines link only used kernels, but
	// TFLM's op resolver carries registration glue per op.
	seen := map[string]bool{}
	for _, s := range specs {
		if nn.Aliases(s.Kind) || seen[s.Kind] {
			continue
		}
		seen[s.Kind] = true
		code, ok := assumed.kernelCode[s.Kind]
		if !ok {
			code = [2]int64{assumed.otherKernel, assumed.otherKernel}
		}
		m.KernelBytes += code[kernel] + costs.resolverEntry
	}
	m.RAMBytes = m.ArenaBytes + m.TensorRAM + m.RuntimeRAM
	m.FlashBytes = m.WeightBytes + m.KernelBytes + m.RuntimeFlash + m.MetadataBytes
	return m, nil
}

// EstimateFloat profiles a float32 deployment of the model.
func EstimateFloat(m *nn.Model, engine renode.Engine) (Memory, error) {
	return estimate(tflm.ModelFileFromFloat(m), engine)
}

// EstimateInt8 profiles an int8 deployment of a quantized model.
func EstimateInt8(qm *quant.QModel, engine renode.Engine) (Memory, error) {
	return estimate(tflm.ModelFileFromQuant(qm), engine)
}

// Fits reports whether a deployment (model memory plus DSP working RAM)
// fits the target's capacities, leaving the device model's headroom for
// the application.
func Fits(m Memory, dspRAM int64, t device.Target) bool {
	return m.RAMBytes+dspRAM+assumed.headroomRAM <= t.RAMBytes &&
		m.FlashBytes+assumed.headroomFlash <= t.FlashBytes
}

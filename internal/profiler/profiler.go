// Package profiler estimates the RAM and flash consumption of a deployed
// model (paper Sec. 4.4, Table 4). RAM is dominated by the activation
// tensor arena, which is planned with a liveness-based allocator like the
// one in TFLM; flash is weights + kernel code + runtime. The TFLM engine
// model pays interpreter overheads (flatbuffer metadata, per-tensor
// bookkeeping, arena padding) that the EON compiler model eliminates,
// reproducing the paper's Table 4 deltas.
package profiler

import (
	"sort"

	"edgepulse/internal/device"
	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/renode"
)

// Buffer is one allocation interval for the arena planner: a byte size
// live over [Start, End] op indices inclusive.
type Buffer struct {
	Size       int64
	Start, End int
}

// PlanArena assigns non-overlapping offsets to buffers whose lifetimes
// intersect, using the greedy size-ordered first-fit strategy of the TFLM
// memory planner. It returns the arena size and per-buffer offsets.
func PlanArena(bufs []Buffer) (int64, []int64) {
	type placed struct {
		idx    int
		offset int64
	}
	order := make([]int, len(bufs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bufs[order[a]].Size > bufs[order[b]].Size })
	offsets := make([]int64, len(bufs))
	var placedBufs []placed
	var arena int64
	overlaps := func(a, b Buffer) bool { return a.Start <= b.End && b.Start <= a.End }
	for _, i := range order {
		b := bufs[i]
		// Collect forbidden intervals from already placed, time-overlapping buffers.
		type iv struct{ lo, hi int64 }
		var busy []iv
		for _, p := range placedBufs {
			if overlaps(b, bufs[p.idx]) {
				busy = append(busy, iv{p.offset, p.offset + bufs[p.idx].Size})
			}
		}
		sort.Slice(busy, func(x, y int) bool { return busy[x].lo < busy[y].lo })
		var off int64
		for _, s := range busy {
			if off+b.Size <= s.lo {
				break
			}
			if s.hi > off {
				off = s.hi
			}
		}
		offsets[i] = off
		placedBufs = append(placedBufs, placed{i, off})
		if off+b.Size > arena {
			arena = off + b.Size
		}
	}
	return arena, offsets
}

// NaiveArena returns the arena size without buffer reuse (every
// activation gets its own allocation) — the baseline for the arena
// ablation bench.
func NaiveArena(bufs []Buffer) int64 {
	var total int64
	for _, b := range bufs {
		total += b.Size
	}
	return total
}

// aliasing ops reuse their input buffer rather than allocating. The
// predicate is shared with the nn package's arena-backed executors so
// plans and profiles agree on buffer lifetimes.
func aliases(kind string) bool { return nn.Aliases(kind) }

// ActivationBuffers derives arena buffers from a model's op specs for the
// given element size (4 for float32, 1 for int8). Buffer 0 is the input.
func ActivationBuffers(specs []nn.OpSpec, elemSize int64) []Buffer {
	bufs, _ := ActivationAssignments(specs, elemSize)
	return bufs
}

// ActivationAssignments derives arena buffers plus the op-to-buffer map:
// bufOf[i] is the buffer index holding the output of op i-1 (bufOf[0] is
// the input, always buffer 0). Aliasing ops share their input's buffer.
// The EON compiler uses the assignment to bind compiled kernel outputs
// to the planner's offsets.
func ActivationAssignments(specs []nn.OpSpec, elemSize int64) ([]Buffer, []int) {
	if len(specs) == 0 {
		return nil, nil
	}
	bufs := []Buffer{{Size: int64(specs[0].InShape.Elems()) * elemSize, Start: 0, End: 0}}
	bufOf := make([]int, len(specs)+1)
	bufOf[0] = 0
	for i, s := range specs {
		in := bufOf[i]
		if aliases(s.Kind) {
			bufOf[i+1] = in
			if bufs[in].End < i+1 {
				bufs[in].End = i + 1
			}
			continue
		}
		// Input must stay live through this op.
		if bufs[in].End < i {
			bufs[in].End = i
		}
		out := Buffer{Size: int64(s.OutShape.Elems()) * elemSize, Start: i, End: i}
		bufs = append(bufs, out)
		bufOf[i+1] = len(bufs) - 1
	}
	// The final output is read by the application after the last op.
	last := bufOf[len(specs)]
	bufs[last].End = len(specs) + 1
	return bufs, bufOf
}

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
func estimate(specs []nn.OpSpec, weightBytes int64, engine renode.Engine, p renode.Precision) Memory {
	elem := int64(4)
	if p == renode.Int8 {
		elem = 1
	}
	bufs := ActivationBuffers(specs, elem)
	arena, _ := PlanArena(bufs)

	m := Memory{Engine: engine, Precision: p, WeightBytes: weightBytes}
	// Dead kernel elimination: both engines link only used kernels, but
	// TFLM's op resolver carries registration glue per op.
	seen := map[string]bool{}
	for _, s := range specs {
		if aliases(s.Kind) {
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
	return estimate(specs, weightBytes, engine, renode.Float32), nil
}

// EstimateInt8 profiles an int8 deployment of a quantized model.
func EstimateInt8(qm *quant.QModel, engine renode.Engine) Memory {
	return estimate(qm.Specs(), qm.WeightBytes(), engine, renode.Int8)
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

// Package eon implements the EON Compiler (paper Sec. 4.5): it compiles a
// model into a static execution program whose kernels are resolved at
// compile time — eliminating the TFLM interpreter's runtime graph walk
// and dispatch — and emits equivalent C++ source code in which weights
// are constant arrays and kernels are called directly, so the linker can
// strip everything unused.
//
// Two artifacts come out of a compilation:
//
//   - Program: a runnable in-process plan (the configuration
//     Model.Forward and QModel.Forward run, so core.Impulse.Run and the
//     EIM runner run it too) with no per-op kernel lookups. Its activation arena is the
//     interpreter's: every engine plans its arena with the same
//     liveness planner.
//   - C++ source (EmitCPP): the deployable library the real platform
//     ships, reproduced here as generated text with the same structure.
package eon

import (
	"slices"

	"edgepulse/internal/nn"
	"edgepulse/internal/tensor"
	"edgepulse/internal/tflm"
)

// Program is a compiled model: a static, arena-backed execution plan.
type Program struct {
	exec    tflm.Runner
	kernels []string
}

// Compile builds a static execution plan for the model: the shared
// executor with every kernel bound now. Its activations are placed by
// the executor's liveness planner (nn.PlanArena, the plan Table 4's RAM
// estimates are built on), as the interpreter's are. Run therefore
// executes the interpreter's kernels in the interpreter's arena; what
// compiling removes is the per-op kernel table lookup.
func Compile(mf *tflm.ModelFile) (*Program, error) {
	specs, err := mf.Specs()
	if err != nil {
		return nil, err
	}
	exec, err := mf.NewExecutor(nn.BindAtBuild)
	if err != nil {
		return nil, err
	}
	p := &Program{exec: exec}
	for _, s := range specs {
		p.kernels = append(p.kernels, s.Kind)
	}
	slices.Sort(p.kernels)
	p.kernels = slices.Compact(p.kernels)
	return p, nil
}

// Run executes one inference through the compiled plan. It is safe for
// concurrent use: the arena is pooled per call.
func (p *Program) Run(in *tensor.F32) (*tensor.F32, error) { return p.exec.Run(in) }

// ArenaBytes returns the program's liveness-planned activation arena
// size, float32 or int8.
func (p *Program) ArenaBytes() int64 { return p.exec.ArenaBytes() }

// KernelsUsed returns the sorted set of kernel kinds linked into the
// program — everything else is eliminated, the "linker can strip unused
// instructions" effect the paper describes.
func (p *Program) KernelsUsed() []string {
	return append([]string(nil), p.kernels...)
}

package nn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"edgepulse/internal/tensor"
)

// Aliases reports whether an op kind is an identity over its input data
// at inference time (flatten, reshape, dropout): the executor gives such
// ops a view of the input buffer instead of output storage, and the arena
// planner (ActivationAssignments) gives them no buffer of their own.
func Aliases(kind string) bool {
	switch kind {
	case "flatten", "reshape", "dropout":
		return true
	}
	return false
}

// Elem is an activation element type the executor runs.
type Elem interface{ float32 | int8 }

// Op is one entry of an executor's op list: the precision-agnostic spec
// plus its kernels' payload (a Layer for float32, a *quant.QOp for int8).
type Op[N any] struct {
	OpSpec
	Node N
}

// Kernel computes one op. in and out are flat views into the run's
// arena, shaped per op.InShape and op.OutShape; sc is the run's scratch.
type Kernel[T Elem, N, S any] func(op *Op[N], in, out []T, sc *S)

// Binding fixes when an op's kernel is looked up in its precision's
// kernel table: once when the executor is built (what the EON compiler
// does) or by op kind on every run (what the TFLM interpreter does).
type Binding bool

const (
	BindAtBuild    Binding = false
	ResolvePerCall Binding = true
)

// Precision is everything the executor does not share between element
// types: the kernel table, what per-run scratch the kernels use, and how
// a float tensor enters and leaves the T-typed arena.
type Precision[T Elem, N, S any] struct {
	// Kernels maps every op kind that computes to its kernel; the
	// aliasing kinds need none.
	Kernels    map[string]Kernel[T, N, S]
	NewScratch func() *S
	// Stage writes the caller's input into the arena's input slot.
	Stage func(dst []T, src []float32)
	// Result fills the freshly allocated result from the last activation.
	Result func(res *tensor.F32, x []T)
}

type step[T Elem, N, S any] struct {
	op     Op[N]
	kernel Kernel[T, N, S] // nil under ResolvePerCall
	// off and elems locate the output in the arena; off is -1 for
	// aliasing ops, whose output is their input.
	off, elems int
}

type runState[T Elem, S any] struct {
	arena   []T
	scratch *S
}

// Executor runs an op list over a pooled arena. It is the one inference
// loop of the repo: Model.Forward and ForwardTo, quant.QModel.Forward,
// quant.Quantize's calibration, eon.Program and tflm.Interpreter differ
// only in the element type and Binding they construct it with; every one
// places its activations with the liveness planner.
// Run returns the result; Observe hands a caller every activation on the
// way (ForwardTo copies one out, calibration reduces each to its range).
// An Executor is immutable and safe for concurrent Run and Observe
// calls: each run draws its own arena and scratch from a pool, and the
// tensor Run returns never aliases them.
type Executor[T Elem, N, S any] struct {
	p             Precision[T, N, S]
	input, output tensor.Shape
	inOff         int
	steps         []step[T, N, S]
	arenaLen      int
	binding       Binding
	walked        atomic.Int64
	pool          sync.Pool
}

// NewExecutor validates the op list (known kernels, chained shapes),
// places every activation with the liveness planner (PlanArena) and
// builds the executor. It refuses a plan in which an op's output overlaps
// its input — in a sequential model the only other buffer live while an
// op writes.
func NewExecutor[T Elem, N, S any](input tensor.Shape, ops []Op[N], binding Binding, p Precision[T, N, S]) (*Executor[T, N, S], error) {
	if !input.Valid() {
		return nil, fmt.Errorf("nn: invalid input shape %v", input)
	}
	specs := make([]OpSpec, len(ops))
	for i := range ops {
		specs[i] = ops[i].OpSpec
	}
	bufs, bufOf := ActivationAssignments(input, specs, 1)
	arenaLen, offs := PlanArena(bufs)
	at := make([]int, len(bufOf))
	for b, buf := range bufOf {
		at[b] = int(offs[buf])
		if b > 0 && buf == bufOf[b-1] {
			at[b] = -1
		}
	}
	return placedExecutor(input, ops, binding, p, int(arenaLen), at)
}

// placedExecutor builds an executor on an arena of arenaLen elements:
// at[0] is the input's offset and at[i+1] that of op i's output, or -1
// where op i hands on its input instead.
func placedExecutor[T Elem, N, S any](input tensor.Shape, ops []Op[N], binding Binding, p Precision[T, N, S], arenaLen int, at []int) (*Executor[T, N, S], error) {
	e := &Executor[T, N, S]{p: p, input: input.Clone(), inOff: at[0], arenaLen: arenaLen, binding: binding}
	e.output = e.input
	inOff, inElems := e.inOff, input.Elems()
	for i, op := range ops {
		st := step[T, N, S]{op: op, off: at[i+1], elems: op.OutShape.Elems()}
		alias := st.off < 0
		if !op.InShape.Equal(e.output) || !op.OutShape.Valid() || alias && st.elems != inElems {
			return nil, fmt.Errorf("nn: op %d (%s): shapes %v -> %v do not follow %v", i, op.Kind, op.InShape, op.OutShape, e.output)
		}
		if !alias {
			if st.kernel = p.Kernels[op.Kind]; st.kernel == nil {
				return nil, fmt.Errorf("nn: op %d: no kernel for %q", i, op.Kind)
			}
			if binding == ResolvePerCall {
				st.kernel = nil
			}
			if st.off < inOff+inElems && inOff < st.off+st.elems {
				return nil, fmt.Errorf("nn: op %d (%s): output [%d,%d) overlaps its input [%d,%d)",
					i, op.Kind, st.off, st.off+st.elems, inOff, inOff+inElems)
			}
			inOff, inElems = st.off, st.elems
		}
		e.steps = append(e.steps, st)
		e.output = op.OutShape
	}
	e.pool.New = func() any {
		return &runState[T, S]{arena: make([]T, e.arenaLen), scratch: p.NewScratch()}
	}
	return e, nil
}

// ArenaBytes returns the activation arena footprint of one run.
func (e *Executor[T, N, S]) ArenaBytes() int64 {
	var z T
	return int64(e.arenaLen) * int64(unsafe.Sizeof(z))
}

// NumOps returns the length of the op list.
func (e *Executor[T, N, S]) NumOps() int { return len(e.steps) }

// Invocations returns how many ops ResolvePerCall runs have walked; a
// BindAtBuild executor dispatches nothing at run time and stays at zero.
func (e *Executor[T, N, S]) Invocations() int64 { return e.walked.Load() }

// Run executes one inference. It is safe to call concurrently.
func (e *Executor[T, N, S]) Run(in *tensor.F32) (*tensor.F32, error) {
	var res *tensor.F32
	last := len(e.steps)
	err := e.walk(in, func(b int, x []T) {
		if b == last {
			res = tensor.NewF32(e.output...)
			e.p.Result(res, x)
		}
	})
	return res, err
}

// Observe runs one inference as Run does and hands fn every activation
// in order: b 0 is the staged input, b i+1 the output of op i, and an
// aliasing op hands on its input. x is a view into the run's arena, valid
// only during the call. Observe allocates nothing once the pool holds an
// arena, and is safe to call concurrently.
func (e *Executor[T, N, S]) Observe(in *tensor.F32, fn func(b int, x []T)) error {
	return e.walk(in, fn)
}

// walk is the executor's one loop: it stages in into a pooled arena,
// runs every op and hands fn each activation while the arena is held.
func (e *Executor[T, N, S]) walk(in *tensor.F32, fn func(b int, x []T)) error {
	s := e.pool.Get().(*runState[T, S])
	err := e.walkOn(s, in, fn)
	e.pool.Put(s)
	return err
}

// walkOn is walk on a caller-owned arena, which keeps every activation
// once the walk returns (a training state's).
func (e *Executor[T, N, S]) walkOn(s *runState[T, S], in *tensor.F32, fn func(b int, x []T)) error {
	if !in.Shape.Equal(e.input) || len(in.Data) != e.input.Elems() {
		return fmt.Errorf("nn: input %v (%d elems) != model input %v", in.Shape, len(in.Data), e.input)
	}
	x := s.arena[e.inOff : e.inOff+len(in.Data)]
	e.p.Stage(x, in.Data)
	fn(0, x)
	for i := range e.steps {
		st := &e.steps[i]
		if st.off >= 0 { // an aliasing op (off -1) hands on its input
			k := st.kernel
			if k == nil {
				k = e.p.Kernels[st.op.Kind]
			}
			out := s.arena[st.off : st.off+st.elems]
			k(&st.op, x, out, s.scratch)
			x = out
		}
		fn(i+1, x)
	}
	if e.binding == ResolvePerCall {
		e.walked.Add(int64(len(e.steps)))
	}
	return nil
}

// FloatExecutor is the float32 instantiation; its kernels need no
// scratch.
type FloatExecutor = Executor[float32, Layer, struct{}]

// floatKernels is the float32 kernel table: every layer kind that
// computes runs the layer's own stateless InferInto. Dropout computes
// only in a training plan, where its node is the run's maskedDropout.
var floatKernels = map[string]Kernel[float32, Layer, struct{}]{
	"dense": inferLayer, "conv2d": inferLayer, "depthwise_conv2d": inferLayer, "conv1d": inferLayer,
	"maxpool2d": inferLayer, "avgpool2d": inferLayer, "maxpool1d": inferLayer, "gap2d": inferLayer,
	"softmax": inferLayer, "batchnorm": inferLayer, "dropout": inferLayer,
}

func inferLayer(op *Op[Layer], src, dst []float32, _ *struct{}) {
	op.Node.InferInto(op.InShape, src, dst)
}

var floatPrecision = Precision[float32, Layer, struct{}]{
	Kernels:    floatKernels,
	NewScratch: func() *struct{} { return new(struct{}) },
	Stage:      func(dst, src []float32) { copy(dst, src) },
	Result:     func(res *tensor.F32, x []float32) { copy(res.Data, x) },
}

// floatOps is a model's op list, each op's node its layer.
func floatOps(m *Model) ([]Op[Layer], error) {
	specs, err := m.Spec()
	if err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	ops := make([]Op[Layer], len(specs))
	for i, s := range specs {
		ops[i] = Op[Layer]{OpSpec: s, Node: m.Layers[i]}
	}
	return ops, nil
}

// NewFloatExecutor builds the float32 executor of a model.
func NewFloatExecutor(m *Model, binding Binding) (*FloatExecutor, error) {
	ops, err := floatOps(m)
	if err != nil {
		return nil, err
	}
	return NewExecutor(m.InputShape, ops, binding, floatPrecision)
}

package nn

import (
	"fmt"
	"math/rand"

	"edgepulse/internal/tensor"
)

// trainable is a layer with a backward kernel. Given the layer's input x
// of shape in, its output y and the gradient gy of the loss with respect
// to y, backward writes the gradient with respect to x into gx and adds
// the parameter gradients into grads, which is shaped like Params(). It
// writes no layer field.
type trainable interface {
	backward(in tensor.Shape, x, y, gy, gx []float32, grads []*tensor.F32)
}

// maskedDropout is a dropout layer as one training run sees it: its
// forward draws a fresh keep mask from the run's stream and writes the
// masked, rescaled copy; its backward applies the same mask.
type maskedDropout struct {
	*Dropout
	rng  *rand.Rand
	mask []bool
}

// InferInto implements Layer for the training forward.
func (d *maskedDropout) InferInto(_ tensor.Shape, src, dst []float32) {
	if d.Rate <= 0 {
		copy(dst, src)
		return
	}
	scale := 1 / (1 - d.Rate)
	for i, v := range src {
		d.mask[i] = d.rng.Float32() >= d.Rate
		dst[i] = 0
		if d.mask[i] {
			dst[i] = v * scale
		}
	}
}

func (d *maskedDropout) backward(_ tensor.Shape, _, _, gy, gx []float32, _ []*tensor.F32) {
	if d.Rate <= 0 {
		copy(gx, gy)
		return
	}
	scale := 1 / (1 - d.Rate)
	for i, keep := range d.mask {
		gx[i] = 0
		if keep {
			gx[i] = gy[i] * scale
		}
	}
}

// backStep is one op's backward, bound to its views of the state's arena.
type backStep struct {
	layer        trainable
	in           tensor.Shape
	x, y, gy, gx []float32
	grads        []*tensor.F32
}

// TrainState is the working memory of one training run on a model whose
// last layer is a Softmax: the model's own float executor walks the
// forward on an arena the state owns, planned so that every activation
// stays live until its op's backward and every activation gradient is
// placed on the same time axis; the gradient set, shaped like the
// model's Params, accumulates until ZeroGrads. The loss is categorical
// cross-entropy, whose gradient is fused with the final Softmax.
//
// Each dropout layer draws its masks from its own rand.NewSource(42)
// stream, started by NewTrainState. The state writes no layer field, so
// one model may be trained through several states at once and serve
// Forward meanwhile; parameters change only when the caller steps them.
// A TrainState is not safe for concurrent use.
type TrainState struct {
	exec           *FloatExecutor
	run            runState[float32, struct{}]
	back           []backStep
	grads          []*tensor.F32
	probs, dlogits []float32
}

// NewTrainState plans a training run on m.
//
// Op i's forward runs at time i, the fused loss gradient at time n (the
// op count) and op i's backward at time 2n-1-i; PlanArena places the
// buffers. Flatten and reshape share their input's activation and
// gradient; a dropout writes its masked copy to a buffer of its own.
func NewTrainState(m *Model) (*TrainState, error) {
	ops, err := floatOps(m)
	if err != nil {
		return nil, err
	}
	n := len(ops)
	if n == 0 || ops[n-1].Kind != "softmax" {
		return nil, fmt.Errorf("nn: training needs a model that ends with a softmax")
	}
	var bufs []Buffer
	newBuf := func(elems, t int) int {
		bufs = append(bufs, Buffer{Size: int64(elems), Start: t, End: t})
		return len(bufs) - 1
	}
	use := func(b, t int) { bufs[b].End = max(bufs[b].End, t) }
	aliases := func(i int) bool { return ops[i].Kind != "dropout" && Aliases(ops[i].Kind) }
	act := make([]int, n+1) // act[b]: the buffer of activation b
	act[0] = newBuf(m.InputShape.Elems(), 0)
	for i := range ops {
		if act[i+1] = act[i]; !aliases(i) {
			act[i+1] = newBuf(ops[i].OutShape.Elems(), i)
		}
		use(act[i], i)
	}
	grad := make([]int, n) // grad[b]: the buffer of the gradient of activation b
	for b := n - 1; b >= 0; b-- {
		t := 2*n - 1 - b // written by op b's backward
		if b < n-1 && aliases(b) {
			grad[b] = grad[b+1]
		} else {
			grad[b] = newBuf(ops[b].InShape.Elems(), t)
		}
		use(act[b+1], t)
		if b < n-1 {
			use(act[b], t)
			use(grad[b+1], t)
		}
	}
	arenaLen, offs := PlanArena(bufs)
	at := make([]int, n+1)
	for b := range at {
		at[b] = int(offs[act[b]])
		if b > 0 && act[b] == act[b-1] {
			at[b] = -1
		}
	}

	s := &TrainState{run: runState[float32, struct{}]{arena: make([]float32, arenaLen)}}
	view := func(buf, elems int) []float32 { return s.run.arena[offs[buf]:][:elems] }
	for _, p := range m.Params() {
		s.grads = append(s.grads, tensor.NewF32(p.Shape...))
	}
	grads := s.grads
	for i := range ops {
		op := &ops[i]
		np := len(op.Node.Params())
		if d, ok := op.Node.(*Dropout); ok {
			op.Node = &maskedDropout{Dropout: d, rng: rand.New(rand.NewSource(42)), mask: make([]bool, op.InShape.Elems())}
		}
		if i < n-1 && !aliases(i) {
			l, ok := op.Node.(trainable)
			if !ok {
				return nil, fmt.Errorf("nn: op %d: no backward kernel for %q", i, op.Kind)
			}
			s.back = append(s.back, backStep{layer: l, in: op.InShape,
				x: view(act[i], op.InShape.Elems()), y: view(act[i+1], op.OutShape.Elems()),
				gy: view(grad[i+1], op.OutShape.Elems()), gx: view(grad[i], op.InShape.Elems()),
				grads: grads[:np]})
		}
		grads = grads[np:]
	}
	s.probs = view(act[n], ops[n-1].OutShape.Elems())
	s.dlogits = view(grad[n-1], ops[n-1].InShape.Elems())
	if s.exec, err = placedExecutor(m.InputShape, ops, BindAtBuild, floatPrecision, int(arenaLen), at); err != nil {
		return nil, err
	}
	return s, nil
}

// Forward runs one sample's training forward and returns the class
// probabilities, a view valid until the next Backward or Forward.
func (s *TrainState) Forward(x *tensor.F32) ([]float32, error) {
	if err := s.exec.walkOn(&s.run, x, func(int, []float32) {}); err != nil {
		return nil, err
	}
	return s.probs, nil
}

// Backward backpropagates the cross-entropy loss of class label from the
// last Forward, adding every parameter's gradient into Grads.
func (s *TrainState) Backward(label int) {
	copy(s.dlogits, s.probs)
	s.dlogits[label] -= 1
	for i := len(s.back) - 1; i >= 0; i-- {
		b := &s.back[i]
		b.layer.backward(b.in, b.x, b.y, b.gy, b.gx, b.grads)
	}
}

// Grads returns the gradient set, shaped like the model's Params.
func (s *TrainState) Grads() []*tensor.F32 { return s.grads }

// ZeroGrads clears the gradient set.
func (s *TrainState) ZeroGrads() {
	for _, g := range s.grads {
		g.Zero()
	}
}

package nn

import (
	"fmt"
	"math"

	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// Dense is a fully connected layer: out = act(W·x + b), W is [in][out].
type Dense struct {
	Units int
	Act   Activation

	W, B *tensor.F32
}

// NewDense creates a dense layer; its weights are allocated when it
// joins a model, or by Build.
func NewDense(units int, act Activation) *Dense {
	return &Dense{Units: units, Act: act}
}

// Build allocates parameters for a known input size.
func (d *Dense) Build(in int) {
	if d.W != nil && d.W.Shape[0] == in {
		return
	}
	d.W = tensor.NewF32(in, d.Units)
	d.B = tensor.NewF32(d.Units)
}

// Kind implements Layer.
func (d *Dense) Kind() string { return "dense" }

// OutShape implements Layer.
func (d *Dense) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("dense: want rank-1 input, got %v (add Flatten first)", in)
	}
	return tensor.Shape{d.Units}, nil
}

// InferInto implements Layer. The whole matrix-vector product is one
// single-pixel simd.ConvTileF32 reduction over Units-contiguous weight
// rows, so per output unit the addition order is the output-major
// scalar loop's.
func (d *Dense) InferInto(_ tensor.Shape, src, dst []float32) {
	simd.ConvTileF32(dst, d.B.Data, d.W.Data, src, simd.Tile{P: 1, N: len(src), Rows: 1})
	d.Act.applyTo(dst)
}

func (d *Dense) backward(_ tensor.Shape, x, y, gy, gx []float32, grads []*tensor.F32) {
	gw, gb := grads[0].Data, grads[1].Data
	clear(gx)
	for j := 0; j < d.Units; j++ {
		g := gy[j] * d.Act.grad(y[j])
		gb[j] += g
		for i := range x {
			gw[i*d.Units+j] += g * x[i]
			gx[i] += g * d.W.Data[i*d.Units+j]
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.F32 {
	if d.W == nil {
		return nil
	}
	return []*tensor.F32{d.W, d.B}
}

// MACs implements Layer.
func (d *Dense) MACs(in tensor.Shape) int64 {
	return int64(in.Elems()) * int64(d.Units)
}

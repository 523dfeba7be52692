package nn

import (
	"fmt"

	"edgepulse/internal/tensor"
)

// Reshape reinterprets the input as a new shape with the same element
// count, e.g. MFCC [49, 13] features into a conv2d [49, 13, 1] image.
type Reshape struct {
	Target tensor.Shape
}

// NewReshape creates a reshape layer to the target shape.
func NewReshape(target ...int) *Reshape {
	return &Reshape{Target: tensor.Shape(target).Clone()}
}

// Kind implements Layer.
func (r *Reshape) Kind() string { return "reshape" }

// OutShape implements Layer.
func (r *Reshape) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if in.Elems() != r.Target.Elems() {
		return nil, fmt.Errorf("reshape: %v (%d elems) incompatible with %v (%d elems)",
			in, in.Elems(), r.Target, r.Target.Elems())
	}
	return r.Target.Clone(), nil
}

// InferInto implements Layer. Arena drivers alias instead (see Aliases).
func (r *Reshape) InferInto(_ tensor.Shape, src, dst []float32) {
	copy(dst, src)
}

// Params implements Layer.
func (r *Reshape) Params() []*tensor.F32 { return nil }

// MACs implements Layer.
func (r *Reshape) MACs(in tensor.Shape) int64 { return 0 }

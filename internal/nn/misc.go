package nn

import (
	"fmt"
	"math"

	"edgepulse/internal/tensor"
)

// Flatten reshapes any input to rank 1.
type Flatten struct{}

// NewFlatten creates a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Kind implements Layer.
func (f *Flatten) Kind() string { return "flatten" }

// OutShape implements Layer.
func (f *Flatten) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if !in.Valid() {
		return nil, fmt.Errorf("flatten: invalid input shape %v", in)
	}
	return tensor.Shape{in.Elems()}, nil
}

// InferInto implements Layer. Arena drivers alias instead (see Aliases).
func (f *Flatten) InferInto(_ tensor.Shape, src, dst []float32) {
	copy(dst, src)
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.F32 { return nil }

// MACs implements Layer.
func (f *Flatten) MACs(in tensor.Shape) int64 { return 0 }

// Softmax converts logits to a probability distribution.
type Softmax struct{}

// NewSoftmax creates a softmax layer.
func NewSoftmax() *Softmax { return &Softmax{} }

// Kind implements Layer.
func (s *Softmax) Kind() string { return "softmax" }

// OutShape implements Layer.
func (s *Softmax) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("softmax: want rank-1 input, got %v", in)
	}
	return in.Clone(), nil
}

// InferInto implements Layer.
func (s *Softmax) InferInto(_ tensor.Shape, src, dst []float32) {
	max := src[0]
	for _, v := range src {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - max))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// Params implements Layer.
func (s *Softmax) Params() []*tensor.F32 { return nil }

// MACs implements Layer.
func (s *Softmax) MACs(in tensor.Shape) int64 { return 0 }

// Dropout randomly zeroes inputs during training, with the masks a
// TrainState holds; it is the identity at inference.
type Dropout struct {
	Rate float32
}

// NewDropout creates a dropout layer with the given drop probability.
func NewDropout(rate float32) *Dropout {
	return &Dropout{Rate: rate}
}

// Kind implements Layer.
func (d *Dropout) Kind() string { return "dropout" }

// OutShape implements Layer.
func (d *Dropout) OutShape(in tensor.Shape) (tensor.Shape, error) {
	return in.Clone(), nil
}

// InferInto implements Layer: dropout is the identity at inference.
// Arena drivers alias instead (see Aliases).
func (d *Dropout) InferInto(_ tensor.Shape, src, dst []float32) {
	copy(dst, src)
}

// Params implements Layer.
func (d *Dropout) Params() []*tensor.F32 { return nil }

// MACs implements Layer.
func (d *Dropout) MACs(in tensor.Shape) int64 { return 0 }

// BatchNorm applies per-channel affine normalization using frozen moving
// statistics: y = gamma * (x - mean) / sqrt(var + eps) + beta.
//
// Statistics are frozen (set from calibration data or a pretrained
// checkpoint); gamma and beta remain trainable. At deployment the whole
// layer folds into the preceding convolution (operator fusion, paper
// Sec. 4.5) — see quant.FoldBatchNorm.
type BatchNorm struct {
	Eps float32

	Gamma, Beta *tensor.F32
	Mean, Var   *tensor.F32
}

// NewBatchNorm creates a batch normalization layer.
func NewBatchNorm() *BatchNorm { return &BatchNorm{Eps: 1e-3} }

// Build allocates parameters for a known channel count.
func (b *BatchNorm) Build(ch int) {
	if b.Gamma != nil && len(b.Gamma.Data) == ch {
		return
	}
	b.Gamma = tensor.NewF32(ch)
	b.Gamma.Fill(1)
	b.Beta = tensor.NewF32(ch)
	b.Mean = tensor.NewF32(ch)
	b.Var = tensor.NewF32(ch)
	b.Var.Fill(1)
}

func channels(s tensor.Shape) int { return s[len(s)-1] }

// Kind implements Layer.
func (b *BatchNorm) Kind() string { return "batchnorm" }

// OutShape implements Layer.
func (b *BatchNorm) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("batchnorm: empty shape")
	}
	return in.Clone(), nil
}

// InferInto implements Layer.
func (b *BatchNorm) InferInto(in tensor.Shape, src, dst []float32) {
	ch := channels(in)
	for i, v := range src {
		c := i % ch
		inv := float32(1 / math.Sqrt(float64(b.Var.Data[c]+b.Eps)))
		dst[i] = b.Gamma.Data[c]*(v-b.Mean.Data[c])*inv + b.Beta.Data[c]
	}
}

// backward is an affine map's: the statistics are frozen.
func (b *BatchNorm) backward(in tensor.Shape, x, _, gy, gx []float32, grads []*tensor.F32) {
	ch := channels(in)
	gGamma, gBeta := grads[0].Data, grads[1].Data
	for i, g := range gy {
		c := i % ch
		inv := float32(1 / math.Sqrt(float64(b.Var.Data[c]+b.Eps)))
		norm := (x[i] - b.Mean.Data[c]) * inv
		gGamma[c] += g * norm
		gBeta[c] += g
		gx[i] = g * b.Gamma.Data[c] * inv
	}
}

// Params implements Layer.
func (b *BatchNorm) Params() []*tensor.F32 {
	if b.Gamma == nil {
		return nil
	}
	return []*tensor.F32{b.Gamma, b.Beta}
}

// MACs implements Layer: one multiply-add per element.
func (b *BatchNorm) MACs(in tensor.Shape) int64 { return int64(in.Elems()) }

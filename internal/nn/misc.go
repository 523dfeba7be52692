package nn

import (
	"fmt"
	"math"
	"math/rand"

	"edgepulse/internal/tensor"
)

// Flatten reshapes any input to rank 1.
type Flatten struct {
	lastShape tensor.Shape
}

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

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.F32) *tensor.F32 {
	f.lastShape = in.Shape
	return &tensor.F32{Shape: tensor.Shape{len(in.Data)}, Data: in.Data}
}

// InferInto implements Layer. Arena drivers alias instead (see Aliases).
func (f *Flatten) InferInto(_ tensor.Shape, src, dst []float32) {
	copy(dst, src)
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.F32) *tensor.F32 {
	return &tensor.F32{Shape: f.lastShape, Data: gradOut.Data}
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.F32 { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.F32 { return nil }

// MACs implements Layer.
func (f *Flatten) MACs(in tensor.Shape) int64 { return 0 }

// Softmax converts logits to a probability distribution.
type Softmax struct {
	lastOut *tensor.F32
}

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

// Forward implements Layer.
func (s *Softmax) Forward(in *tensor.F32) *tensor.F32 {
	out := tensor.NewF32(in.Shape...)
	s.InferInto(in.Shape, in.Data, out.Data)
	s.lastOut = out
	return out
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

// Backward implements Layer: full softmax Jacobian-vector product.
// Trainers using fused softmax+cross-entropy pass (p - y) directly to the
// preceding layer instead.
func (s *Softmax) Backward(gradOut *tensor.F32) *tensor.F32 {
	p := s.lastOut
	n := len(p.Data)
	gradIn := tensor.NewF32(n)
	var dot float32
	for i := 0; i < n; i++ {
		dot += gradOut.Data[i] * p.Data[i]
	}
	for i := 0; i < n; i++ {
		gradIn.Data[i] = p.Data[i] * (gradOut.Data[i] - dot)
	}
	return gradIn
}

// Params implements Layer.
func (s *Softmax) Params() []*tensor.F32 { return nil }

// Grads implements Layer.
func (s *Softmax) Grads() []*tensor.F32 { return nil }

// MACs implements Layer.
func (s *Softmax) MACs(in tensor.Shape) int64 { return 0 }

// Dropout randomly zeroes inputs during training; identity at inference.
type Dropout struct {
	Rate float32
	// Training toggles the stochastic behavior.
	Training bool
	// Rng drives mask sampling; defaults to a fixed-seed source.
	Rng *rand.Rand

	mask []bool
}

// NewDropout creates a dropout layer with the given drop probability.
func NewDropout(rate float32) *Dropout {
	return &Dropout{Rate: rate, Rng: rand.New(rand.NewSource(42))}
}

// Kind implements Layer.
func (d *Dropout) Kind() string { return "dropout" }

// OutShape implements Layer.
func (d *Dropout) OutShape(in tensor.Shape) (tensor.Shape, error) {
	return in.Clone(), nil
}

// Forward implements Layer.
func (d *Dropout) Forward(in *tensor.F32) *tensor.F32 {
	if !d.Training || d.Rate <= 0 {
		d.mask = nil
		return in
	}
	out := tensor.NewF32(in.Shape...)
	d.mask = make([]bool, len(in.Data))
	scale := 1 / (1 - d.Rate)
	for i, v := range in.Data {
		if d.Rng.Float32() >= d.Rate {
			d.mask[i] = true
			out.Data[i] = v * scale
		}
	}
	return out
}

// InferInto implements Layer: dropout is the identity at inference.
// Arena drivers alias instead (see Aliases).
func (d *Dropout) InferInto(_ tensor.Shape, src, dst []float32) {
	copy(dst, src)
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.F32) *tensor.F32 {
	if d.mask == nil {
		return gradOut
	}
	gradIn := tensor.NewF32(gradOut.Shape...)
	scale := 1 / (1 - d.Rate)
	for i, keep := range d.mask {
		if keep {
			gradIn.Data[i] = gradOut.Data[i] * scale
		}
	}
	return gradIn
}

// Params implements Layer.
func (d *Dropout) Params() []*tensor.F32 { return nil }

// Grads implements Layer.
func (d *Dropout) Grads() []*tensor.F32 { return nil }

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

	Gamma, Beta  *tensor.F32
	Mean, Var    *tensor.F32
	GGamma, GBta *tensor.F32

	lastIn *tensor.F32
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
	b.GGamma = tensor.NewF32(ch)
	b.GBta = tensor.NewF32(ch)
}

func channels(s tensor.Shape) int { return s[len(s)-1] }

// Kind implements Layer.
func (b *BatchNorm) Kind() string { return "batchnorm" }

// OutShape implements Layer.
func (b *BatchNorm) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("batchnorm: empty shape")
	}
	b.Build(channels(in))
	return in.Clone(), nil
}

// Forward implements Layer.
func (b *BatchNorm) Forward(in *tensor.F32) *tensor.F32 {
	b.Build(channels(in.Shape))
	out := tensor.NewF32(in.Shape...)
	b.InferInto(in.Shape, in.Data, out.Data)
	b.lastIn = in
	return out
}

// InferInto implements Layer.
func (b *BatchNorm) InferInto(in tensor.Shape, src, dst []float32) {
	ch := channels(in)
	b.Build(ch)
	for i, v := range src {
		c := i % ch
		inv := float32(1 / math.Sqrt(float64(b.Var.Data[c]+b.Eps)))
		dst[i] = b.Gamma.Data[c]*(v-b.Mean.Data[c])*inv + b.Beta.Data[c]
	}
}

// Backward implements Layer (statistics frozen, so this is an affine map).
func (b *BatchNorm) Backward(gradOut *tensor.F32) *tensor.F32 {
	ch := channels(b.lastIn.Shape)
	gradIn := tensor.NewF32(b.lastIn.Shape...)
	for i, g := range gradOut.Data {
		c := i % ch
		inv := float32(1 / math.Sqrt(float64(b.Var.Data[c]+b.Eps)))
		norm := (b.lastIn.Data[i] - b.Mean.Data[c]) * inv
		b.GGamma.Data[c] += g * norm
		b.GBta.Data[c] += g
		gradIn.Data[i] = g * b.Gamma.Data[c] * inv
	}
	return gradIn
}

// Params implements Layer.
func (b *BatchNorm) Params() []*tensor.F32 {
	if b.Gamma == nil {
		return nil
	}
	return []*tensor.F32{b.Gamma, b.Beta}
}

// Grads implements Layer.
func (b *BatchNorm) Grads() []*tensor.F32 {
	if b.GGamma == nil {
		return nil
	}
	return []*tensor.F32{b.GGamma, b.GBta}
}

// MACs implements Layer: one multiply-add per element.
func (b *BatchNorm) MACs(in tensor.Shape) int64 { return int64(in.Elems()) }

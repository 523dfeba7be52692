// Package tensor provides the dense tensor types used throughout edgepulse:
// float32 tensors for training and float inference, and int8 tensors with
// affine quantization parameters for quantized inference.
//
// Tensors are row-major and dense. Shapes follow the channels-last
// convention used by TFLite: a conv2d activation is [H, W, C] (batch
// dimensions are handled by the caller; all kernels in this repository are
// single-sample, as on a microcontroller).
package tensor

import (
	"fmt"
	"math"

	"edgepulse/internal/simd"
	"strings"
)

// Shape describes tensor dimensions, outermost first.
type Shape []int

// Elems returns the total number of elements, or 0 for an empty shape.
func (s Shape) Elems() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool {
	if len(s) == 0 {
		return false
	}
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, "x") + "]"
}

// F32 is a dense float32 tensor.
type F32 struct {
	Shape Shape
	Data  []float32
}

// NewF32 allocates a zeroed float32 tensor with the given shape.
func NewF32(shape ...int) *F32 {
	s := Shape(shape).Clone()
	return &F32{Shape: s, Data: make([]float32, s.Elems())}
}

// fromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly Shape.Elems() elements.
func fromSlice(data []float32, shape ...int) (*F32, error) {
	s := Shape(shape).Clone()
	if s.Elems() != len(data) {
		return nil, fmt.Errorf("tensor: shape %v wants %d elems, slice has %d", s, s.Elems(), len(data))
	}
	return &F32{Shape: s, Data: data}, nil
}

// MustFromSlice is fromSlice but panics on shape mismatch. Use in tests and
// static model construction where the shape is known correct.
func MustFromSlice(data []float32, shape ...int) *F32 {
	t, err := fromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Clone returns a deep copy.
func (t *F32) Clone() *F32 {
	c := NewF32(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at the given multi-dimensional index.
func (t *F32) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-dimensional index.
func (t *F32) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *F32) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", ix, i, t.Shape[i]))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Fill sets every element to v.
func (t *F32) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *F32) Zero() { t.Fill(0) }

// Scale multiplies every element by v in place.
func (t *F32) Scale(v float32) {
	for i := range t.Data {
		t.Data[i] *= v
	}
}

// MinMax returns the minimum and maximum element. Empty tensors return
// 0,0. A NaN first element makes both NaN; a later NaN never wins (see
// simd.MinMaxF32).
func (t *F32) MinMax() (lo, hi float32) { return simd.MinMaxF32(t.Data) }

// AbsMax returns the maximum absolute element value, ignoring NaNs.
func (t *F32) AbsMax() float32 { return simd.AbsMaxF32(t.Data) }

// ArgMax returns the index of the largest element (first on ties), or -1
// for an empty tensor.
func (t *F32) ArgMax() int {
	if len(t.Data) == 0 {
		return -1
	}
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}

func (t *F32) String() string {
	return fmt.Sprintf("F32%v", t.Shape)
}

// QParams holds per-tensor affine quantization parameters:
// real = Scale * (q - ZeroPoint).
type QParams struct {
	Scale     float32
	ZeroPoint int32
}

// Quantize maps a real value to its int8 representation under p, saturating
// to the int8 range.
func (p QParams) Quantize(v float32) int8 {
	if p.Scale == 0 {
		return int8(clampI32(p.ZeroPoint, -128, 127))
	}
	q := int32(math.Round(float64(v)/float64(p.Scale))) + p.ZeroPoint
	return int8(clampI32(q, -128, 127))
}

// QuantizeInto quantizes src into dst[:len(src)], element for element
// what Quantize returns: the same float64 quotient, the same
// round-half-away-from-zero, the same conversion and saturation (see
// simd.QuantizeI8, which vectorizes it).
func (p QParams) QuantizeInto(dst []int8, src []float32) {
	dst = dst[:len(src)]
	if p.Scale == 0 {
		zp := p.Quantize(0)
		for i := range dst {
			dst[i] = zp
		}
		return
	}
	simd.QuantizeI8(dst, src, p.Scale, p.ZeroPoint)
}

// Dequantize maps an int8 value back to its real approximation.
func (p QParams) Dequantize(q int8) float32 {
	return p.Scale * float32(int32(q)-p.ZeroPoint)
}

func clampI32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// I8 is a dense int8 tensor with per-tensor affine quantization parameters.
type I8 struct {
	Shape Shape
	Data  []int8
	Q     QParams
}

// NewI8 allocates a zeroed int8 tensor with the given shape and params.
func NewI8(q QParams, shape ...int) *I8 {
	s := Shape(shape).Clone()
	return &I8{Shape: s, Data: make([]int8, s.Elems()), Q: q}
}

// Clone returns a deep copy.
func (t *I8) Clone() *I8 {
	c := NewI8(t.Q, t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Dequantize converts the tensor to float32 under its params.
func (t *I8) Dequantize() *F32 {
	out := NewF32(t.Shape...)
	for i, q := range t.Data {
		out.Data[i] = t.Q.Dequantize(q)
	}
	return out
}

// QuantizeF32 converts a float tensor to int8 under the given params.
func QuantizeF32(t *F32, q QParams) *I8 {
	out := NewI8(q, t.Shape...)
	q.QuantizeInto(out.Data, t.Data)
	return out
}

// ChooseQParams picks affine parameters covering [lo, hi] with the int8
// range [-128, 127], always including zero (required so that zero padding
// is exactly representable, as in TFLite).
func ChooseQParams(lo, hi float32) QParams {
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if lo == hi {
		return QParams{Scale: 1, ZeroPoint: 0}
	}
	scale := (hi - lo) / 255
	zp := int32(math.Round(float64(-128 - lo/scale)))
	return QParams{Scale: scale, ZeroPoint: clampI32(zp, -128, 127)}
}

// Package tflm reimplements the interpreter-style inference engine that
// the paper's EON Compiler is compared against (Sec. 4.5, Table 4): a
// serialized flat model format and an interpreter that looks every op's
// kernel up by kind at runtime.
//
// The on-disk format ("EPTM") plays the role of the TFLite flatbuffer: a
// self-contained binary holding the graph topology, attributes and
// weights for either a float32 or an int8 model.
package tflm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"edgepulse/internal/nn"
	"edgepulse/internal/quant"
	"edgepulse/internal/tensor"
)

// Precision of a serialized model.
type Precision uint8

// Model precisions.
const (
	Float32 Precision = 0
	Int8    Precision = 1
)

// ModelFile is the in-memory form of a serialized model: exactly one of
// Float or Quant is set.
type ModelFile struct {
	Precision  Precision
	NumClasses int
	Float      *nn.Model
	Quant      *quant.QModel
}

// InputShape returns the model's input tensor shape.
func (mf *ModelFile) InputShape() tensor.Shape {
	if mf.Precision == Int8 {
		return mf.Quant.InputShape
	}
	return mf.Float.InputShape
}

// Specs returns the model's op list, whichever precision it holds.
func (mf *ModelFile) Specs() ([]nn.OpSpec, error) {
	switch {
	case mf.Precision == Float32 && mf.Float != nil:
		return mf.Float.Spec()
	case mf.Precision == Int8 && mf.Quant != nil:
		return mf.Quant.Specs(), nil
	}
	return nil, fmt.Errorf("tflm: no model of precision %d", mf.Precision)
}

// Runner is the model's nn.Executor with its element type erased.
type Runner interface {
	Run(in *tensor.F32) (*tensor.F32, error)
	ArenaBytes() int64
	Invocations() int64
}

// NewExecutor builds the shared executor in the model's precision, on
// package nn's float32 or package quant's int8 kernel table.
func (mf *ModelFile) NewExecutor(binding nn.Binding) (Runner, error) {
	switch {
	case mf.Precision == Float32 && mf.Float != nil:
		return nn.NewFloatExecutor(mf.Float, binding)
	case mf.Precision == Int8 && mf.Quant != nil:
		return quant.NewExecutor(mf.Quant, binding)
	}
	return nil, fmt.Errorf("tflm: no model of precision %d", mf.Precision)
}

const magic = "EPTM"
const version = 1

// writer appends the EPTM encoding of a model, counting the bytes of
// tensor data (weights and biases) apart from the rest.
type writer struct {
	buf     []byte
	weights int64
}

func (w *writer) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) i32(v int32)   { w.u32(uint32(v)) }
func (w *writer) i64(v int64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *writer) f32(v float32) { w.u32(math.Float32bits(v)) }
func (w *writer) f64(v float64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v)) }
func (w *writer) u8(v uint8)    { w.buf = append(w.buf, v) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) shape(s tensor.Shape) {
	w.u32(uint32(len(s)))
	for _, d := range s {
		w.u32(uint32(d))
	}
}

func (w *writer) f32s(v []float32) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.f32(x)
	}
	w.weights += int64(len(v)) * 4
}

func (w *writer) i8s(v []int8) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.buf = append(w.buf, byte(x))
	}
	w.weights += int64(len(v))
}

func (w *writer) i32s(v []int32) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.i32(x)
	}
	w.weights += int64(len(v)) * 4
}

func (w *writer) attrs(a map[string]float64) {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.u32(uint32(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.f64(a[k])
	}
}

type reader struct {
	r   *bytes.Reader
	err error
}

func (r *reader) bin(v any) {
	if r.err != nil {
		return
	}
	r.err = binary.Read(r.r, binary.LittleEndian, v)
}

func (r *reader) u32() uint32 {
	var v uint32
	r.bin(&v)
	return v
}

func (r *reader) i64() int64 {
	var v int64
	r.bin(&v)
	return v
}

func (r *reader) u8() uint8 {
	var v uint8
	r.bin(&v)
	return v
}

func (r *reader) f32() float32 {
	var v uint32
	r.bin(&v)
	return math.Float32frombits(v)
}

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil || n > uint32(r.r.Len()) {
		if r.err == nil {
			r.err = fmt.Errorf("tflm: corrupt string length %d", n)
		}
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return ""
	}
	return string(b)
}

func (r *reader) count(elemSize int) int {
	n := r.u32()
	if r.err == nil && int(n)*elemSize > r.r.Len() {
		r.err = fmt.Errorf("tflm: corrupt count %d", n)
		return 0
	}
	return int(n)
}

func (r *reader) shape() tensor.Shape {
	n := r.count(4)
	s := make(tensor.Shape, n)
	for i := range s {
		s[i] = int(r.u32())
	}
	return s
}

func (r *reader) f32s() []float32 {
	n := r.count(4)
	v := make([]float32, n)
	for i := range v {
		v[i] = r.f32()
	}
	return v
}

func (r *reader) i8s() []int8 {
	n := r.count(1)
	b := make([]byte, n)
	if r.err == nil {
		if _, err := io.ReadFull(r.r, b); err != nil {
			r.err = err
		}
	}
	v := make([]int8, n)
	for i := range v {
		v[i] = int8(b[i])
	}
	return v
}

func (r *reader) i32s() []int32 {
	n := r.count(4)
	v := make([]int32, n)
	for i := range v {
		r.bin(&v[i])
	}
	return v
}

func (r *reader) attrs() map[string]float64 {
	n := r.count(8)
	a := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := r.str()
		var v float64
		r.bin(&v)
		a[k] = v
	}
	return a
}

// Marshal serializes a model file to the EPTM binary format.
func Marshal(mf *ModelFile) ([]byte, error) {
	w, err := marshal(mf)
	if err != nil {
		return nil, err
	}
	return w.buf, nil
}

// Sizes splits len(Marshal(mf)) into the tensor data the file holds
// (float32 weights, or int8 weights and int32 biases) and its metadata:
// everything else, from the header and op kinds to attributes, shapes,
// length prefixes and quantization parameters.
func Sizes(mf *ModelFile) (weights, metadata int64, err error) {
	w, err := marshal(mf)
	if err != nil {
		return 0, 0, err
	}
	return w.weights, int64(len(w.buf)) - w.weights, nil
}

func marshal(mf *ModelFile) (*writer, error) {
	specs, err := mf.Specs()
	if err != nil {
		return nil, err
	}
	w := &writer{}
	w.buf = append(w.buf, magic...)
	w.u32(version)
	w.u8(uint8(mf.Precision))
	w.u32(uint32(mf.NumClasses))
	w.shape(mf.InputShape())
	if mf.Precision == Float32 {
		w.u32(uint32(len(specs)))
		tensors := nn.SerializableTensors(mf.Float)
		ti := 0
		for i, s := range specs {
			w.str(s.Kind)
			w.attrs(s.Attrs)
			w.shape(s.InShape)
			w.shape(s.OutShape)
			w.i64(s.MACs)
			nT := tensorCount(mf.Float.Layers[i])
			w.u32(uint32(nT))
			for j := 0; j < nT; j++ {
				w.f32s(tensors[ti].Data)
				w.shape(tensors[ti].Shape)
				ti++
			}
		}
	} else {
		w.f32(mf.Quant.InQ.Scale)
		w.i32(mf.Quant.InQ.ZeroPoint)
		w.u32(uint32(len(mf.Quant.Ops)))
		for _, op := range mf.Quant.Ops {
			w.str(op.Kind)
			w.attrs(op.Attrs)
			w.shape(op.InShape)
			w.shape(op.OutShape)
			w.i64(op.MACs)
			w.i8s(op.W)
			w.f32(op.WScale)
			w.i32s(op.Bias)
			w.f32(op.InQ.Scale)
			w.i32(op.InQ.ZeroPoint)
			w.f32(op.OutQ.Scale)
			w.i32(op.OutQ.ZeroPoint)
			w.i32(op.ActMin)
			w.i32(op.ActMax)
		}
	}
	return w, nil
}

// tensorCount returns how many serializable tensors a layer owns.
func tensorCount(l nn.Layer) int {
	n := len(l.Params())
	if _, ok := l.(*nn.BatchNorm); ok {
		n += 2 // moving mean and variance
	}
	return n
}

// Unmarshal parses an EPTM binary back into a model file.
func Unmarshal(data []byte) (*ModelFile, error) {
	if len(data) < 4 || string(data[:4]) != magic {
		return nil, fmt.Errorf("tflm: bad magic")
	}
	r := &reader{r: bytes.NewReader(data[4:])}
	if v := r.u32(); v != version {
		return nil, fmt.Errorf("tflm: unsupported version %d", v)
	}
	mf := &ModelFile{Precision: Precision(r.u8())}
	mf.NumClasses = int(r.u32())
	switch mf.Precision {
	case Float32:
		inShape := r.shape()
		nOps := r.count(1)
		specs := make([]nn.OpSpec, 0, nOps)
		var weights [][]float32
		var wShapes []tensor.Shape
		var counts []int
		for i := 0; i < nOps && r.err == nil; i++ {
			s := nn.OpSpec{Kind: r.str(), Attrs: r.attrs(), InShape: r.shape(), OutShape: r.shape(), MACs: r.i64()}
			nT := r.count(1)
			counts = append(counts, nT)
			for j := 0; j < nT; j++ {
				weights = append(weights, r.f32s())
				wShapes = append(wShapes, r.shape())
				s.WeightElems += len(weights[len(weights)-1])
			}
			specs = append(specs, s)
		}
		if r.err != nil {
			return nil, r.err
		}
		m, err := nn.ModelFromSpecs(inShape, specs, mf.NumClasses)
		if err != nil {
			return nil, err
		}
		tensors := nn.SerializableTensors(m)
		if len(tensors) != len(weights) {
			return nil, fmt.Errorf("tflm: weight tensor count %d != model %d", len(weights), len(tensors))
		}
		for i, t := range tensors {
			if len(t.Data) != len(weights[i]) {
				return nil, fmt.Errorf("tflm: weight tensor %d size %d != model %d", i, len(weights[i]), len(t.Data))
			}
			copy(t.Data, weights[i])
		}
		mf.Float = m
	case Int8:
		qm := &quant.QModel{NumClasses: mf.NumClasses}
		qm.InputShape = r.shape()
		qm.InQ.Scale = r.f32()
		r.bin(&qm.InQ.ZeroPoint)
		nOps := r.count(1)
		for i := 0; i < nOps && r.err == nil; i++ {
			op := &quant.QOp{OpSpec: nn.OpSpec{Kind: r.str(), Attrs: r.attrs(), InShape: r.shape(), OutShape: r.shape(), MACs: r.i64()}}
			op.W = r.i8s()
			op.WScale = r.f32()
			op.Bias = r.i32s()
			op.InQ.Scale = r.f32()
			r.bin(&op.InQ.ZeroPoint)
			op.OutQ.Scale = r.f32()
			r.bin(&op.OutQ.ZeroPoint)
			r.bin(&op.ActMin)
			r.bin(&op.ActMax)
			if r.err == nil {
				r.err = errors.Join(nn.CheckSpec(op.OpSpec), op.CheckWeights())
			}
			if r.err != nil {
				break
			}
			op.Rebind()
			qm.Ops = append(qm.Ops, op)
		}
		if r.err != nil {
			return nil, r.err
		}
		mf.Quant = qm
	default:
		return nil, fmt.Errorf("tflm: unknown precision %d", mf.Precision)
	}
	// Forward builds this executor on first use and panics if it cannot:
	// build it here, so a model whose ops do not chain is refused at load.
	if _, err := mf.NewExecutor(nn.BindAtBuild); err != nil {
		return nil, err
	}
	return mf, nil
}

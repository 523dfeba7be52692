package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestShapeElems(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 0},
		{Shape{5}, 5},
		{Shape{2, 3}, 6},
		{Shape{4, 4, 3}, 48},
	}
	for _, c := range cases {
		if got := c.s.Elems(); got != c.want {
			t.Errorf("%v.Elems() = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqualCloneValid(t *testing.T) {
	a := Shape{2, 3}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b[0] = 9
	if a[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if a.Equal(Shape{2}) || a.Equal(Shape{2, 4}) {
		t.Fatal("Equal false positives")
	}
	if !a.Valid() || (Shape{}).Valid() || (Shape{0, 2}).Valid() || (Shape{-1}).Valid() {
		t.Fatal("Valid misclassifies")
	}
}

func TestShapeString(t *testing.T) {
	if got := (Shape{49, 10}).String(); got != "[49x10]" {
		t.Errorf("String = %q", got)
	}
}

func TestNewAndIndex(t *testing.T) {
	m := NewF32(2, 3)
	m.Set(7, 1, 2)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if m.Data[5] != 7 {
		t.Fatal("row-major layout violated")
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewF32(2, 3)
	for _, idx := range [][]int{{0}, {2, 0}, {0, 3}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", idx)
				}
			}()
			m.At(idx...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	if _, err := fromSlice([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("fromSlice accepted wrong length")
	}
	m, err := fromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 1) != 4 {
		t.Fatal("wrong layout")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFromSlice did not panic")
		}
	}()
	MustFromSlice([]float32{1}, 3)
}

func TestFillScaleZero(t *testing.T) {
	a := NewF32(4)
	a.Fill(8)
	a.Scale(0.5) // 4
	for _, v := range a.Data {
		if v != 4 {
			t.Fatalf("got %g, want 4", v)
		}
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestMinMaxAbsMaxArgMax(t *testing.T) {
	m := MustFromSlice([]float32{-3, 1, 2, -5, 4}, 5)
	lo, hi := m.MinMax()
	if lo != -5 || hi != 4 {
		t.Fatalf("MinMax = %g,%g", lo, hi)
	}
	if m.AbsMax() != 5 {
		t.Fatalf("AbsMax = %g", m.AbsMax())
	}
	if m.ArgMax() != 4 {
		t.Fatalf("ArgMax = %d", m.ArgMax())
	}
	empty := &F32{}
	if lo, hi := empty.MinMax(); lo != 0 || hi != 0 {
		t.Fatal("empty MinMax not 0,0")
	}
	if empty.ArgMax() != -1 {
		t.Fatal("empty ArgMax not -1")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] == 9 {
		t.Fatal("clone aliases data")
	}
}

func TestQuantizeDequantizeKnown(t *testing.T) {
	q := QParams{Scale: 0.5, ZeroPoint: 10}
	if q.Quantize(0) != 10 {
		t.Fatalf("q(0) = %d", q.Quantize(0))
	}
	if q.Quantize(1) != 12 {
		t.Fatalf("q(1) = %d", q.Quantize(1))
	}
	if q.Dequantize(12) != 1 {
		t.Fatalf("dq(12) = %g", q.Dequantize(12))
	}
	// Saturation.
	if q.Quantize(1e9) != 127 || q.Quantize(-1e9) != -128 {
		t.Fatal("no saturation")
	}
	// Zero scale degenerate.
	z := QParams{Scale: 0, ZeroPoint: 3}
	if z.Quantize(123) != 3 {
		t.Fatal("zero-scale quantize should pin to zero point")
	}
}

func TestChooseQParamsIncludesZero(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		// Constrain magnitudes to a sane calibration range.
		a = float32(math.Mod(float64(a), 1e6))
		b = float32(math.Mod(float64(b), 1e6))
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		q := ChooseQParams(lo, hi)
		// Zero must be exactly representable.
		return q.Dequantize(q.Quantize(0)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizationErrorBound(t *testing.T) {
	// For values inside the calibration range, |dq(q(v)) - v| <= scale/2.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lo := float32(-rng.Float64() * 10)
		hi := float32(rng.Float64() * 10)
		q := ChooseQParams(lo, hi)
		for i := 0; i < 50; i++ {
			v := lo + float32(rng.Float64())*(hi-lo)
			got := q.Dequantize(q.Quantize(v))
			if math.Abs(float64(got-v)) > float64(q.Scale)/2+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeF32RoundTrip(t *testing.T) {
	src := MustFromSlice([]float32{-1, -0.5, 0, 0.5, 1}, 5)
	lo, hi := src.MinMax()
	q := ChooseQParams(lo, hi)
	i8 := QuantizeF32(src, q)
	back := i8.Dequantize()
	for i := range src.Data {
		if math.Abs(float64(back.Data[i]-src.Data[i])) > float64(q.Scale) {
			t.Errorf("elem %d: %g -> %g", i, src.Data[i], back.Data[i])
		}
	}
	if !back.Shape.Equal(src.Shape) {
		t.Error("shape not preserved")
	}
}

func TestI8Clone(t *testing.T) {
	a := NewI8(QParams{Scale: 1}, 3)
	a.Data[0] = 42
	b := a.Clone()
	b.Data[0] = 7
	if a.Data[0] != 42 {
		t.Fatal("I8 clone aliases data")
	}
	if b.Q.Scale != 1 {
		t.Fatal("qparams not copied")
	}
}

func TestChooseQParamsDegenerate(t *testing.T) {
	q := ChooseQParams(0, 0)
	if q.Scale != 1 || q.ZeroPoint != 0 {
		t.Fatalf("degenerate params = %+v", q)
	}
	// All-positive range must be widened to include zero.
	q = ChooseQParams(5, 10)
	if q.Dequantize(q.Quantize(0)) != 0 {
		t.Fatal("positive range does not represent zero")
	}
}

// TestQuantizeIntoMatchesQuantize pins the slice form to the per-element
// form on everything that can differ between two roundings or two
// saturations: exact halves of both signs at every magnitude int8 can
// see, the floats next to them, values far out of range, infinities,
// NaN and both zeros, under positive, negative and degenerate params.
func TestQuantizeIntoMatchesQuantize(t *testing.T) {
	inf := float32(math.Inf(1))
	src := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), inf, -inf,
		1e9, -1e9, 3e38, -3e38, 1e-40, -1e-40, 2147483520, 2147483648, -2147483648, -2147483904}
	for k := -300; k <= 300; k++ {
		h := float32(k) + 0.5
		src = append(src, h, math.Nextafter32(h, inf), math.Nextafter32(h, -inf), h/2, h/3, h*0.1)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		src = append(src, math.Float32frombits(rng.Uint32()), float32(rng.NormFloat64()*60))
	}
	for _, p := range []QParams{
		{Scale: 1, ZeroPoint: 0}, {Scale: 0.5, ZeroPoint: 10}, {Scale: 0.1, ZeroPoint: -128},
		{Scale: 1.0 / 3, ZeroPoint: 127}, {Scale: 0.003921569, ZeroPoint: -128},
		{Scale: 1e-30, ZeroPoint: -7}, {Scale: 3e38, ZeroPoint: 5}, {Scale: 0, ZeroPoint: 3},
		{Scale: 0, ZeroPoint: 300}, {Scale: 2, ZeroPoint: math.MaxInt32}, {Scale: 2, ZeroPoint: math.MinInt32},
	} {
		got := make([]int8, len(src)+1)
		got[len(src)] = 77
		p.QuantizeInto(got, src)
		for i, v := range src {
			if want := p.Quantize(v); got[i] != want {
				t.Fatalf("%+v: QuantizeInto(%g [%#x]) = %d, Quantize = %d", p, v, math.Float32bits(v), got[i], want)
			}
		}
		if got[len(src)] != 77 {
			t.Fatalf("%+v: QuantizeInto wrote past len(src)", p)
		}
		if q := QuantizeF32(&F32{Shape: Shape{len(src)}, Data: src}, p); !slices.Equal(q.Data, got[:len(src)]) {
			t.Fatalf("%+v: QuantizeF32 differs from QuantizeInto", p)
		}
	}
}

package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withSIMD runs f twice, once with the assembly path forced on (when the
// host supports it) and once forced off, restoring the previous state.
func withSIMD(t *testing.T, f func(t *testing.T, simdOn bool)) {
	t.Helper()
	prev := Enabled()
	defer SetEnabled(prev)
	SetEnabled(true)
	f(t, Enabled())
	SetEnabled(false)
	f(t, false)
}

func randF32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func randI8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(256) - 128)
	}
	return out
}

// randTile draws a tile geometry and slice lengths for a kernel that
// reads step input elements and nf weight lanes per reduction step; the
// strides carry random slack so nothing depends on a dense layout.
func randTile(rng *rand.Rand, nf, step, maxN int) (t Tile, wLen, inLen int) {
	t = Tile{P: 1 + rng.Intn(9), N: 1 + rng.Intn(maxN), Rows: 1 + rng.Intn(4)}
	t.PixStride = rng.Intn(3 * step)
	t.InRowStride = t.N*step + rng.Intn(5)
	t.WRowStride = t.N*nf + rng.Intn(5)
	inLen = (t.P-1)*t.PixStride + (t.Rows-1)*t.InRowStride + t.N*step
	wLen = (t.Rows-1)*t.WRowStride + t.N*nf
	return t, wLen, inLen
}

// naiveConvF32 is the filter-major triple loop: one scalar accumulator
// per output, bias first, then rows, then steps.
func naiveConvF32(bias, w, in []float32, t Tile) []float32 {
	nf := len(bias)
	out := make([]float32, t.P*nf)
	for p := 0; p < t.P; p++ {
		for f := 0; f < nf; f++ {
			s := bias[f]
			for r := 0; r < t.Rows; r++ {
				for j := 0; j < t.N; j++ {
					s += in[p*t.PixStride+r*t.InRowStride+j] * w[r*t.WRowStride+j*nf+f]
				}
			}
			out[p*nf+f] = s
		}
	}
	return out
}

// sameF32 requires identical bits, except that any NaN matches any NaN:
// when two NaNs meet in an add, x86 keeps the first operand's sign and
// payload and the Go compiler is free to order the operands, so which
// NaN survives is not even stable between two scalar Go loops.
func sameF32(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) && (got[i] == got[i] || want[i] == want[i]) {
			t.Fatalf("%s: elem %d = %x, want %x (simd=%v)", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]), Enabled())
		}
	}
}

// TestConvTileF32MatchesNaive asserts both paths are bitwise identical
// to the naive loop across lane counts that exercise the 16-wide
// blocks, the 8-wide block and the scalar tail, and across run lengths
// that exercise the 4-pixel groups and the single-pixel remainder.
func TestConvTileF32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nf := range []int{1, 3, 8, 12, 16, 24, 31, 40, 64, 65} {
		for trial := 0; trial < 8; trial++ {
			tile, wLen, inLen := randTile(rng, nf, 1, 20)
			bias, w, in := randF32(rng, nf), randF32(rng, wLen), randF32(rng, inLen)
			want := naiveConvF32(bias, w, in, tile)
			withSIMD(t, func(t *testing.T, _ bool) {
				got := randF32(rng, tile.P*nf) // stale output must be overwritten
				ConvTileF32(got, bias, w, in, tile)
				sameF32(t, fmt.Sprintf("nf=%d %+v", nf, tile), got, want)
			})
		}
	}
}

// TestConvTileF32SpecialValues checks NaN/Inf/-0 propagate identically.
func TestConvTileF32SpecialValues(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	w := []float32{1, nan, -2, inf, 3, 0.5, negZero, 7, 2, 1, 0, -1, 5, 6, 7, 8}
	in := []float32{2, inf, negZero, nan, 0, -inf, 1, 2}
	bias := []float32{negZero, 0, 1, -inf, inf, nan, 2, -1}
	tile := Tile{P: 7, N: 2, Rows: 1, PixStride: 1}
	want := naiveConvF32(bias, w, in, tile)
	withSIMD(t, func(t *testing.T, _ bool) {
		got := make([]float32, len(want))
		ConvTileF32(got, bias, w, in, tile)
		sameF32(t, "special values", got, want)
	})
}

func TestConvTileEmptyReductionIsBias(t *testing.T) {
	bias := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	withSIMD(t, func(t *testing.T, _ bool) {
		got := make([]float32, 18)
		ConvTileF32(got, bias, nil, nil, Tile{P: 2, Rows: 3})
		sameF32(t, "empty", got, append(append([]float32(nil), bias...), bias...))
	})
}

// TestTileBoundsPanic pins the wrappers' refusal to hand the assembly a
// geometry that leaves its slices.
func TestTileBoundsPanic(t *testing.T) {
	bias := make([]float32, 8)
	ok := Tile{P: 2, N: 3, Rows: 2, PixStride: 3, InRowStride: 6, WRowStride: 24}
	for name, c := range map[string]struct {
		dst, w, in int
		t          Tile
	}{
		"dst":      {15, 48, 12, ok},
		"w":        {16, 47, 12, ok},
		"in":       {16, 48, 11, ok},
		"negative": {16, 48, 12, Tile{P: 2, N: 3, Rows: 2, PixStride: -1, InRowStride: 6, WRowStride: 24}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			ConvTileF32(make([]float32, c.dst), bias, make([]float32, c.w), make([]float32, c.in), c.t)
		}()
	}
	ConvTileF32(make([]float32, 16), bias, make([]float32, 48), make([]float32, 12), ok)
}

func TestDepthwiseF32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, ch := range []int{1, 5, 8, 16, 24, 32, 40, 64, 71, 128} {
		for trial := 0; trial < 6; trial++ {
			tile, wLen, inLen := randTile(rng, ch, ch, 5)
			bias, w, in := randF32(rng, ch), randF32(rng, wLen), randF32(rng, inLen)
			in[0] = float32(math.NaN())
			want := make([]float32, tile.P*ch)
			for p := 0; p < tile.P; p++ {
				for c := 0; c < ch; c++ {
					s := bias[c]
					for r := 0; r < tile.Rows; r++ {
						for k := 0; k < tile.N; k++ {
							s += in[p*tile.PixStride+r*tile.InRowStride+k*ch+c] * w[r*tile.WRowStride+k*ch+c]
						}
					}
					want[p*ch+c] = s
				}
			}
			withSIMD(t, func(t *testing.T, _ bool) {
				got := randF32(rng, tile.P*ch)
				DepthwiseF32(got, bias, w, in, tile)
				sameF32(t, fmt.Sprintf("ch=%d %+v", ch, tile), got, want)
			})
		}
	}
}

func TestReLUF32MatchesScalar(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	base := []float32{-1, 0, negZero, 1, nan, 6.5, -6.5, 5.999, 7, -0.001, 2, 3, 4, 5, 6, 100, -100}
	scalar := func(x []float32, six bool) {
		for i, v := range x {
			if v < 0 {
				x[i] = 0
			} else if six && v > 6 {
				x[i] = 6
			}
		}
	}
	for _, six := range []bool{false, true} {
		want := append([]float32(nil), base...)
		scalar(want, six)
		withSIMD(t, func(t *testing.T, _ bool) {
			g := append([]float32(nil), base...)
			if six {
				ReLU6F32(g)
			} else {
				ReLUF32(g)
			}
			for i := range g {
				if math.Float32bits(g[i]) != math.Float32bits(want[i]) {
					t.Fatalf("six=%v lane %d: %x want %x (simd=%v)", six, i, math.Float32bits(g[i]), math.Float32bits(want[i]), Enabled())
				}
			}
		})
	}
}

// TestConvTileI8MatchesNaive covers extreme zero points and weights so
// any VPMADDWD range assumption violation would surface. The expected
// values come from a direct per-lane scalar accumulation over the raw
// int8 inputs — independent of the pair packing.
func TestConvTileI8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, zp := range []int32{-128, -1, 0, 5, 127} {
		for _, s := range []struct{ nf, cin, pix, rows int }{
			{1, 1, 1, 1}, {1, 2, 3, 1}, {8, 1, 4, 2}, {8, 2, 5, 1}, {8, 6, 9, 3}, {12, 4, 2, 1},
			{16, 8, 4, 1}, {24, 9, 7, 2}, {32, 64, 6, 1}, {40, 12, 8, 1}, {64, 64, 5, 1}, {67, 31, 3, 2},
		} {
			// rows weight panels of [cin x nf], and pix*rows input
			// pixels of cin lanes; pixel p's row r is input pixel p+r.
			pairs := (s.cin + 1) / 2
			w := randI8(rng, s.rows*s.cin*s.nf)
			w[0] = 127
			if len(w) > 1 {
				w[1] = -127
			}
			var wPair []int16
			for r := 0; r < s.rows; r++ {
				wPair = append(wPair, PairWeights(w[r*s.cin*s.nf:(r+1)*s.cin*s.nf], s.cin, s.nf)...)
			}
			in := randI8(rng, (s.pix+s.rows-1)*s.cin)
			in[0] = -128
			vp := make([]uint32, (s.pix+s.rows-1)*pairs)
			for px := 0; px < s.pix+s.rows-1; px++ {
				if got := PackPairs(vp[px*pairs:], in[px*s.cin:(px+1)*s.cin], zp); got != pairs {
					t.Fatalf("PackPairs returned %d pairs, want %d", got, pairs)
				}
			}
			bias := make([]int32, s.nf)
			for i := range bias {
				bias[i] = int32(rng.Uint32())>>8 - 1<<22
			}
			want := make([]int32, s.pix*s.nf)
			for p := 0; p < s.pix; p++ {
				for f := 0; f < s.nf; f++ {
					a := bias[f]
					for r := 0; r < s.rows; r++ {
						for ci := 0; ci < s.cin; ci++ {
							a += (int32(in[(p+r)*s.cin+ci]) - zp) * int32(w[(r*s.cin+ci)*s.nf+f])
						}
					}
					want[p*s.nf+f] = a
				}
			}
			tile := Tile{P: s.pix, N: pairs, Rows: s.rows, PixStride: pairs, InRowStride: pairs, WRowStride: pairs * s.nf}
			withSIMD(t, func(t *testing.T, _ bool) {
				got := make([]int32, len(want))
				ConvTileI8(got, bias, wPair, vp, tile)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("zp=%d %+v elem %d: %d want %d (simd=%v)", zp, s, i, got[i], want[i], Enabled())
					}
				}
			})
		}
	}
}

// requantCases sweeps multiplier/shift/zero-point/clamp combinations,
// one of them a left shift (reference path only).
func requantCases() []Requant {
	var out []Requant
	for _, c := range []Requant{
		{Mult: 1412090957, Shift: -6, ZP: -4},
		{Mult: 2147483647, Shift: 0, ZP: 0},
		{Mult: 1073741824, Shift: -1, ZP: 127},
		{Mult: 1999999999, Shift: -10, ZP: -128},
		{Mult: 1082196484, Shift: -3, ZP: 17},
		{Mult: 1500000000, Shift: 2, ZP: 5},
	} {
		for _, clamp := range [][2]int32{{-128, 127}, {-4, 127}, {0, 64}} {
			c.Lo, c.Hi = clamp[0], clamp[1]
			out = append(out, c)
		}
	}
	return out
}

func TestDepthwiseI8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i, q := range requantCases() {
		zp := []int32{-128, 0, 127}[i%3]
		for _, ch := range []int{1, 5, 8, 16, 31, 32, 40, 72, 128} {
			tile, wLen, inLen := randTile(rng, ch, ch, 5)
			w, in := randI8(rng, wLen), randI8(rng, inLen)
			bias := make([]int32, ch)
			for c := range bias {
				bias[c] = int32(rng.Uint32()) >> uint(rng.Intn(24))
			}
			want := make([]int8, tile.P*ch)
			for p := 0; p < tile.P; p++ {
				for c := 0; c < ch; c++ {
					a := bias[c]
					for r := 0; r < tile.Rows; r++ {
						for k := 0; k < tile.N; k++ {
							a += (int32(in[p*tile.PixStride+r*tile.InRowStride+k*ch+c]) - zp) * int32(w[r*tile.WRowStride+k*ch+c])
						}
					}
					want[p*ch+c] = q.Apply(a)
				}
			}
			withSIMD(t, func(t *testing.T, _ bool) {
				got := make([]int8, len(want))
				DepthwiseI8(got, bias, w, in, tile, zp, q)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%+v zp=%d ch=%d %+v elem %d: %d want %d (simd=%v avx512=%v)",
							q, zp, ch, tile, i, got[i], want[i], Enabled(), haveAVX512)
					}
				}
			})
		}
	}
}

// TestRequantI8MatchesScalar holds the vector path to Requant.Apply on
// accumulator extremes where saturation and wrap matter.
func TestRequantI8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	accs := make([]int32, 131)
	for i := range accs {
		accs[i] = int32(rng.Uint32())
	}
	// Deterministic edge cases up front.
	edge := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 1 << 30, -(1 << 30), 12345, -99999}
	copy(accs, edge)
	for _, q := range requantCases() {
		withSIMD(t, func(t *testing.T, _ bool) {
			got := make([]int8, len(accs))
			RequantI8(got, accs, q)
			for i := range got {
				if want := q.Apply(accs[i]); got[i] != want {
					t.Fatalf("%+v acc=%d: got %d want %d (simd=%v avx512=%v)", q, accs[i], got[i], want, Enabled(), haveAVX512)
				}
			}
		})
	}
}

// TestRequantApplyKnownValues pins the reference itself to hand-worked
// values, so the tests above are not circular. They are TFLite's except
// the negative accumulator at Shift 0, where Apply floors (see Requant).
func TestRequantApplyKnownValues(t *testing.T) {
	for _, c := range []struct {
		q    Requant
		acc  int32
		want int8
	}{
		{Requant{Mult: 1 << 30, Shift: 0, Lo: -128, Hi: 127}, 100, 50},
		{Requant{Mult: 1 << 30, Shift: 0, Lo: -128, Hi: 127}, -101, -51}, // -50.5 floors to -51; TFLite truncates to -50
		{Requant{Mult: 1 << 30, Shift: -1, Lo: -128, Hi: 127}, 102, 26},  // 25.5 rounds up
		{Requant{Mult: 1 << 30, Shift: 1, ZP: 3, Lo: -128, Hi: 127}, 20, 23},
		{Requant{Mult: math.MaxInt32, Shift: 0, Lo: -128, Hi: 127}, math.MaxInt32, 127},
		{Requant{Mult: math.MaxInt32, Shift: 0, Lo: -7, Hi: 127}, math.MinInt32, -7},
		{Requant{Mult: math.MaxInt32, Shift: 0, ZP: -5, Lo: -7, Hi: 127}, math.MinInt32, 127}, // zero point wraps int32
	} {
		if got := c.q.Apply(c.acc); got != c.want {
			t.Errorf("%+v.Apply(%d) = %d, want %d", c.q, c.acc, got, c.want)
		}
	}
}

// TestMaxMatchesScalar holds both paths to the scalar comparison,
// including a NaN that must not win and the two zeros.
func TestMaxMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	for _, n := range []int{1, 7, 8, 24, 31, 32, 33, 64, 100} {
		dstF, srcF := randF32(rng, n), randF32(rng, n)
		dstF[0], srcF[0] = float32(math.Inf(-1)), nan
		if n > 2 {
			dstF[1], srcF[1] = 0, negZero
			dstF[2], srcF[2] = negZero, 0
		}
		wantF := append([]float32(nil), dstF...)
		for i, v := range srcF {
			if v > wantF[i] {
				wantF[i] = v
			}
		}
		dstI, srcI := randI8(rng, n), randI8(rng, n)
		wantI := append([]int8(nil), dstI...)
		for i, v := range srcI {
			wantI[i] = max(wantI[i], v)
		}
		withSIMD(t, func(t *testing.T, _ bool) {
			gotF := append([]float32(nil), dstF...)
			MaxF32(gotF, srcF)
			for i := range gotF {
				if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
					t.Fatalf("MaxF32 n=%d lane %d: %x want %x (simd=%v)", n, i, math.Float32bits(gotF[i]), math.Float32bits(wantF[i]), Enabled())
				}
			}
			gotI := append([]int8(nil), dstI...)
			MaxI8(gotI, srcI)
			for i := range gotI {
				if gotI[i] != wantI[i] {
					t.Fatalf("MaxI8 n=%d lane %d: %d want %d (simd=%v)", n, i, gotI[i], wantI[i], Enabled())
				}
			}
		})
	}
}

// TestQuantizeI8MatchesRound holds both paths to the textbook form —
// math.Round of the float64 quotient, Go's int32 conversion, wrapping
// zero-point add, clamp — on halves, their neighbours, NaN, infinities,
// both zeros and values far outside int32.
func TestQuantizeI8MatchesRound(t *testing.T) {
	inf := float32(math.Inf(1))
	src := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), inf, -inf,
		1e9, -1e9, 3e38, -3e38, 1e-40, -1e-40, 2147483520, 2147483648, -2147483648, -2147483904}
	for k := -300; k <= 300; k++ {
		h := float32(k) + 0.5
		src = append(src, h, math.Nextafter32(h, inf), math.Nextafter32(h, -inf), h/2, h/3, h*0.1)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		src = append(src, math.Float32frombits(rng.Uint32()), float32(rng.NormFloat64()*60))
	}
	for _, c := range []struct {
		scale float32
		zp    int32
	}{{1, 0}, {0.5, 10}, {0.1, -128}, {1.0 / 3, 127}, {0.003921569, -128}, {1e-30, -7}, {3e38, 5}, {2, math.MaxInt32}, {2, math.MinInt32}} {
		want := make([]int8, len(src))
		for i, v := range src {
			q := int32(math.Round(float64(v)/float64(c.scale))) + c.zp
			want[i] = int8(max(-128, min(127, q)))
		}
		withSIMD(t, func(t *testing.T, _ bool) {
			got := make([]int8, len(src))
			QuantizeI8(got, src, c.scale, c.zp)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("scale=%g zp=%d: q(%g [%#x]) = %d, want %d (simd=%v)", c.scale, c.zp, src[i], math.Float32bits(src[i]), got[i], want[i], Enabled())
				}
			}
		})
	}
}

// TestPackPairsMatchesScalar checks the vector widen/subtract path
// against the scalar packer across tail lengths and zero points.
func TestPackPairsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, zp := range []int32{-128, -7, 0, 127} {
		for _, n := range []int{1, 2, 15, 16, 17, 31, 32, 33, 64, 100} {
			in := randI8(rng, n)
			in[0] = -128
			want := make([]uint32, (n+1)/2)
			for cp := 0; cp < n/2; cp++ {
				v0 := uint32(uint16(int32(in[2*cp]) - zp))
				v1 := uint32(uint16(int32(in[2*cp+1]) - zp))
				want[cp] = v0 | v1<<16
			}
			if n%2 == 1 {
				want[n/2] = uint32(uint16(int32(in[n-1]) - zp))
			}
			withSIMD(t, func(t *testing.T, _ bool) {
				got := make([]uint32, (n+1)/2)
				if k := PackPairs(got, in, zp); k != (n+1)/2 {
					t.Fatalf("n=%d: %d pairs, want %d", n, k, (n+1)/2)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("zp=%d n=%d pair %d: %08x want %08x (simd=%v)", zp, n, i, got[i], want[i], Enabled())
					}
				}
			})
		}
	}
}

func TestPairWeights(t *testing.T) {
	w := []int8{ // cin=5 (odd), nf=3
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
		10, 11, 12,
		13, 14, 15, // odd trailing lane: paired with zero phantom weights
	}
	got := PairWeights(w, 5, 3)
	want := []int16{1, 4, 2, 5, 3, 6, 7, 10, 8, 11, 9, 12, 13, 0, 14, 0, 15, 0}
	if len(got) != len(want) {
		t.Fatalf("len=%d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("at %d: %d want %d", i, got[i], want[i])
		}
	}
}

// benchShapes are the conv tile benchmark's reductions: input channels
// by output lanes, as in the reference models' pointwise layers.
var benchShapes = []struct{ cin, nf int }{{8, 16}, {64, 16}, {64, 64}, {256, 64}}

// BenchmarkConvTileF32 times one 4-pixel run as one tile (P=4) and as
// four single-pixel calls (P=1): the difference is what register tiling
// buys over reloading the weights per pixel.
func BenchmarkConvTileF32(b *testing.B) {
	for _, s := range benchShapes {
		rng := rand.New(rand.NewSource(1))
		bias, w, in := randF32(rng, s.nf), randF32(rng, s.cin*s.nf), randF32(rng, 4*s.cin)
		dst := make([]float32, 4*s.nf)
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("cin=%d/nf=%d/P=%d", s.cin, s.nf, p), func(b *testing.B) {
				tile := Tile{P: p, N: s.cin, Rows: 1, PixStride: s.cin}
				b.SetBytes(int64(4 * s.cin * s.nf)) // MACs, so MB/s reads as MMAC/s
				for i := 0; i < b.N; i++ {
					for px := 0; px < 4; px += p {
						ConvTileF32(dst[px*s.nf:], bias, w, in[px*s.cin:], tile)
					}
				}
			})
		}
	}
}

func BenchmarkConvTileI8(b *testing.B) {
	for _, s := range benchShapes {
		rng := rand.New(rand.NewSource(1))
		pairs := s.cin / 2
		wPair := PairWeights(randI8(rng, s.cin*s.nf), s.cin, s.nf)
		vp := make([]uint32, 4*pairs)
		PackPairs(vp, randI8(rng, 4*s.cin), 5)
		bias := make([]int32, s.nf)
		acc := make([]int32, 4*s.nf)
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("cin=%d/nf=%d/P=%d", s.cin, s.nf, p), func(b *testing.B) {
				tile := Tile{P: p, N: pairs, Rows: 1, PixStride: pairs}
				b.SetBytes(int64(4 * s.cin * s.nf))
				for i := 0; i < b.N; i++ {
					for px := 0; px < 4; px += p {
						ConvTileI8(acc[px*s.nf:], bias, wPair, vp[px*pairs:], tile)
					}
				}
			})
		}
	}
}

// depthwiseBench is a 3x3 stride-1 window over a row of 24 pixels.
func depthwiseBench(ch int) (t Tile, wLen, inLen int) {
	const w = 26
	return Tile{P: 24, N: 3, Rows: 3, PixStride: ch, InRowStride: w * ch, WRowStride: 3 * ch}, 9 * ch, 3 * w * ch
}

func BenchmarkDepthwisePixelF32(b *testing.B) {
	for _, ch := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("ch=%d", ch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tile, wLen, inLen := depthwiseBench(ch)
			bias, w, in := randF32(rng, ch), randF32(rng, wLen), randF32(rng, inLen)
			dst := make([]float32, tile.P*ch)
			b.SetBytes(int64(tile.P * 9 * ch))
			for i := 0; i < b.N; i++ {
				DepthwiseF32(dst, bias, w, in, tile)
			}
		})
	}
}

func BenchmarkDepthwisePixelI8(b *testing.B) {
	for _, ch := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("ch=%d", ch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tile, wLen, inLen := depthwiseBench(ch)
			w, in := randI8(rng, wLen), randI8(rng, inLen)
			bias := make([]int32, ch)
			dst := make([]int8, tile.P*ch)
			q := Requant{Mult: 1412090957, Shift: -6, ZP: -4, Lo: -128, Hi: 127}
			b.SetBytes(int64(tile.P * 9 * ch))
			for i := 0; i < b.N; i++ {
				DepthwiseI8(dst, bias, w, in, tile, 3, q)
			}
		})
	}
}

func benchRequant(b *testing.B, on bool) {
	prev := Enabled()
	defer SetEnabled(prev)
	SetEnabled(on)
	acc := make([]int32, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range acc {
		acc[i] = rng.Int31n(1<<24) - 1<<23
	}
	dst := make([]int8, 64)
	q := Requant{Mult: 1412090957, Shift: -6, ZP: -4, Lo: -128, Hi: 127}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RequantI8(dst, acc, q)
	}
}

func BenchmarkRequantI8SIMD(b *testing.B)   { benchRequant(b, true) }
func BenchmarkRequantI8Scalar(b *testing.B) { benchRequant(b, false) }

// TestRoundHalfAwayTrick checks the Trunc form QuantizeI8 uses against
// math.Round on doubles around every half and on random bit patterns.
func TestRoundHalfAwayTrick(t *testing.T) {
	round := func(x float64) float64 { return math.Trunc(x + math.Copysign(0.49999999999999994, x)) }
	check := func(x float64) {
		if got, want := round(x), math.Round(x); math.Float64bits(got) != math.Float64bits(want) && (got == got || want == want) {
			t.Fatalf("round(%v [%#x]) = %v, math.Round = %v", x, math.Float64bits(x), got, want)
		}
	}
	for e := -60; e <= 60; e++ {
		for _, m := range []float64{0.5, 1, 1.5, 2.5, 3.5, 1023.5, 4503599627370495.5, 2251799813685247.5} {
			x := math.Ldexp(m, e)
			for _, v := range []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))} {
				check(v)
				check(-v)
			}
		}
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200000; i++ {
		check(math.Float64frombits(rng.Uint64()))
		check(rng.NormFloat64() * 1000)
		check(float64(rng.Intn(1<<20)) + 0.5)
	}
}

// TestButterflyStageF32MatchesScalar holds both paths to the butterfly
// written out per point, on every stage width of a 1024-point transform
// (the vector path takes the widths that are multiples of 8) and with
// NaN, infinities and signed zeros among the inputs.
func TestButterflyStageF32MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 1024
	for half := 1; half <= n/2; half <<= 1 {
		re, im := randF32(rng, n), randF32(rng, n)
		wr, wi := randF32(rng, half), randF32(rng, half)
		re[3], im[5] = float32(math.NaN()), float32(math.Inf(-1))
		re[n-1], im[n-2] = float32(math.Copysign(0, -1)), float32(math.Inf(1))
		wantRe, wantIm := append([]float32(nil), re...), append([]float32(nil), im...)
		for base := 0; base < n; base += 2 * half {
			for j := 0; j < half; j++ {
				a, b := base+j, base+j+half
				vr := wantRe[b]*wr[j] - wantIm[b]*wi[j]
				vi := wantRe[b]*wi[j] + wantIm[b]*wr[j]
				wantRe[a], wantRe[b] = wantRe[a]+vr, wantRe[a]-vr
				wantIm[a], wantIm[b] = wantIm[a]+vi, wantIm[a]-vi
			}
		}
		withSIMD(t, func(t *testing.T, _ bool) {
			gotRe, gotIm := append([]float32(nil), re...), append([]float32(nil), im...)
			ButterflyStageF32(gotRe, gotIm, wr, wi)
			sameF32(t, fmt.Sprintf("half=%d re", half), gotRe, wantRe)
			sameF32(t, fmt.Sprintf("half=%d im", half), gotIm, wantIm)
		})
	}
}

// TestRealPowerF32MatchesScalar checks the unpack on every size from 1
// to 300 complex points, so the vector path's eight-bin blocks meet
// every tail length and the reversed loads reach both ends.
func TestRealPowerF32MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for h := 1; h <= 300; h++ {
		re, im, wr, wi := randF32(rng, h), randF32(rng, h), randF32(rng, h), randF32(rng, h)
		if h > 20 {
			re[7], im[h-3] = float32(math.NaN()), float32(math.Inf(1))
		}
		scale := float32(1) / float32(2*h)
		want := make([]float32, h+1)
		for k := 0; k <= h; k++ {
			switch k {
			case 0:
				v := re[0] + im[0]
				want[k] = v * v * scale
			case h:
				v := re[0] - im[0]
				want[k] = v * v * scale
			default:
				a, b, c, d := re[k], im[k], re[h-k], im[h-k]
				er, ei, or, oi := 0.5*(a+c), 0.5*(b-d), 0.5*(b+d), 0.5*(c-a)
				xr := er + wr[k]*or - wi[k]*oi
				xi := ei + wr[k]*oi + wi[k]*or
				want[k] = (xr*xr + xi*xi) * scale
			}
		}
		withSIMD(t, func(t *testing.T, _ bool) {
			got := randF32(rng, h+2)
			RealPowerF32(got, re, im, wr, wi, scale)
			sameF32(t, fmt.Sprintf("h=%d", h), got[:h+1], want)
		})
	}
}

func TestFFTPrimitivesRejectBadGeometry(t *testing.T) {
	for name, f := range map[string]func(){
		"stage len": func() {
			ButterflyStageF32(make([]float32, 12), make([]float32, 12), make([]float32, 8), make([]float32, 8))
		},
		"stage im": func() {
			ButterflyStageF32(make([]float32, 16), make([]float32, 8), make([]float32, 8), make([]float32, 8))
		},
		"stage wi": func() {
			ButterflyStageF32(make([]float32, 16), make([]float32, 16), make([]float32, 8), make([]float32, 4))
		},
		"stage empty": func() { ButterflyStageF32(nil, nil, nil, nil) },
		"power dst": func() {
			RealPowerF32(make([]float32, 16), make([]float32, 16), make([]float32, 16), make([]float32, 16), make([]float32, 16), 1)
		},
		"power tw": func() {
			RealPowerF32(make([]float32, 17), make([]float32, 16), make([]float32, 16), make([]float32, 15), make([]float32, 16), 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkButterflyStageF32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	re, im := randF32(rng, 256), randF32(rng, 256)
	for _, half := range []int{8, 32, 128} {
		wr, wi := randF32(rng, half), randF32(rng, half)
		b.Run(fmt.Sprintf("n=256/half=%d", half), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ButterflyStageF32(re, im, wr, wi)
			}
		})
	}
}

func BenchmarkRealPowerF32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	re, im, wr, wi := randF32(rng, 256), randF32(rng, 256), randF32(rng, 256), randF32(rng, 256)
	dst := make([]float32, 257)
	for i := 0; i < b.N; i++ {
		RealPowerF32(dst, re, im, wr, wi, 1.0/512)
	}
}

// TestBlendDivF32MatchesScalar checks both paths against the expression
// on every tail length, with special values and a divisor whose
// reciprocal is inexact.
func TestBlendDivF32MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 40; n++ {
		a, b := randF32(rng, n+3), randF32(rng, n+1)
		if n > 4 {
			a[1], b[2], a[3] = float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
		}
		wb := rng.Float32()
		wa := 1 - wb
		want := make([]float32, n)
		for i := range want {
			want[i] = (a[i]*wa + b[i]*wb) / 255
		}
		withSIMD(t, func(t *testing.T, _ bool) {
			got := randF32(rng, n)
			BlendDivF32(got, a, b, wa, wb, 255)
			sameF32(t, fmt.Sprintf("n=%d", n), got, want)
		})
	}
}

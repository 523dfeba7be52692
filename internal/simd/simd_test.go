package simd_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	. "edgepulse/internal/simd"
	"edgepulse/internal/simd/simdtest"
)

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
			t.Fatalf("%s: elem %d = %x, want %x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestConvTileF32MatchesNaive asserts every tier is bitwise identical
// to the naive loop across lane counts that exercise the 32-, 16- and
// 8-lane blocks in every combination (a YMM remainder after ZMM blocks
// among them) and the scalar tail, and across run lengths that exercise
// the 4-pixel groups and the single-pixel remainder.
func TestConvTileF32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nf := range []int{1, 3, 8, 12, 16, 24, 31, 32, 40, 48, 56, 64, 65, 72, 256} {
		for trial := 0; trial < 8; trial++ {
			tile, wLen, inLen := randTile(rng, nf, 1, 20)
			bias, w, in := randF32(rng, nf), randF32(rng, wLen), randF32(rng, inLen)
			want := naiveConvF32(bias, w, in, tile)
			simdtest.ForEachTier(t, func(t *testing.T) {
				got := randF32(rng, tile.P*nf) // stale output must be overwritten
				ConvTileF32(got, bias, w, in, tile)
				sameF32(t, fmt.Sprintf("nf=%d %+v", nf, tile), got, want)
			})
		}
	}
}

// TestConvTileF32SpecialValues checks NaN/Inf/-0 propagate identically,
// over 56 lanes: one ZMM block of 32, one of 16 and a YMM remainder.
func TestConvTileF32SpecialValues(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	vals := []float32{1, nan, -2, inf, 3, 0.5, negZero, 7, 2, 1, 0, -1, 5, 6, 7, 8, -inf}
	const nf = 56
	bias, w := make([]float32, nf), make([]float32, 2*nf)
	for i := range bias {
		bias[i] = vals[(5*i+6)%len(vals)]
	}
	for i := range w {
		w[i] = vals[i%len(vals)]
	}
	in := []float32{2, inf, negZero, nan, 0, -inf, 1, 2}
	tile := Tile{P: 7, N: 2, Rows: 1, PixStride: 1}
	want := naiveConvF32(bias, w, in, tile)
	simdtest.ForEachTier(t, func(t *testing.T) {
		got := make([]float32, len(want))
		ConvTileF32(got, bias, w, in, tile)
		sameF32(t, "special values", got, want)
	})
}

func TestConvTileEmptyReductionIsBias(t *testing.T) {
	const nf = 57
	bias, biasI := make([]float32, nf), make([]int32, nf)
	for i := range bias {
		bias[i], biasI[i] = float32(i+1), int32(-i)
	}
	simdtest.ForEachTier(t, func(t *testing.T) {
		got := make([]float32, 2*nf)
		ConvTileF32(got, bias, nil, nil, Tile{P: 2, Rows: 3})
		sameF32(t, "empty", got, append(append([]float32(nil), bias...), bias...))
		gotI := make([]int32, 2*nf)
		ConvTileI8(gotI, biasI, nil, nil, Tile{P: 2, Rows: 3})
		for i, v := range gotI {
			if v != biasI[i%nf] {
				t.Fatalf("ConvTileI8 empty: elem %d = %d, want %d", i, v, biasI[i%nf])
			}
		}
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

	// DepthwiseI8's last step of the last row of the last pixel ends at
	// 8 + 40 + 16 + 8 = 72 pairs.
	dw := Tile{P: 2, N: 2, Rows: 2, PixStride: 8, InRowStride: 40, WRowStride: 16, StepStride: 16}
	q := Requant{Mult: 1 << 30, Shift: -1, Lo: -128, Hi: 127}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DepthwiseI8 read past its input: no panic")
			}
		}()
		DepthwiseI8(make([]int8, 16), make([]int32, 8), make([]int16, 64), make([]uint32, 71), dw, q)
	}()
	DepthwiseI8(make([]int8, 16), make([]int32, 8), make([]int16, 64), make([]uint32, 72), dw, q)
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
			simdtest.ForEachTier(t, func(t *testing.T) {
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
		simdtest.ForEachTier(t, func(t *testing.T) {
			g := append([]float32(nil), base...)
			if six {
				ReLU6F32(g)
			} else {
				ReLUF32(g)
			}
			for i := range g {
				if math.Float32bits(g[i]) != math.Float32bits(want[i]) {
					t.Fatalf("six=%v lane %d: %x want %x", six, i, math.Float32bits(g[i]), math.Float32bits(want[i]))
				}
			}
		})
	}
}

// TestConvTileI8MatchesNaive covers extreme zero points and weights so
// any VPMADDWD or VPDPWSSD range assumption violation would surface, on
// every tier and over lane counts that exercise every block combination.
// The expected values come from a direct per-lane scalar accumulation
// over the raw int8 inputs — independent of the pair packing.
func TestConvTileI8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, zp := range []int32{-128, -1, 0, 5, 127} {
		for _, s := range []struct{ nf, cin, pix, rows int }{
			{1, 1, 1, 1}, {1, 2, 3, 1}, {8, 1, 4, 2}, {8, 2, 5, 1}, {8, 6, 9, 3}, {12, 4, 2, 1},
			{16, 8, 4, 1}, {24, 9, 7, 2}, {32, 64, 6, 1}, {40, 12, 8, 1}, {48, 5, 6, 2}, {56, 10, 5, 1},
			{64, 64, 5, 1}, {65, 3, 9, 1}, {67, 31, 3, 2}, {72, 7, 4, 2}, {256, 16, 5, 1},
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
			simdtest.ForEachTier(t, func(t *testing.T) {
				got := make([]int32, len(want))
				ConvTileI8(got, bias, wPair, vp, tile)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("zp=%d %+v elem %d: %d want %d", zp, s, i, got[i], want[i])
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

// dwGeom is a depthwise window over an h x w image: a k x k kernel
// moved by s, with lead pads pt (top) and pl (left) and as many trailing
// pad rows and columns as the last window needs.
type dwGeom struct{ h, w, k, s, pt, pl, oh, ow int }

// randDwGeom draws a geometry with at least one output, pads up to k-1
// on every side (so VALID-like windows that leave the last rows and
// columns unread occur as well as padded ones) and strides 1 to 3.
func randDwGeom(rng *rand.Rand) dwGeom {
	for {
		g := dwGeom{h: 1 + rng.Intn(9), w: 1 + rng.Intn(9), k: 1 + rng.Intn(5), s: 1 + rng.Intn(3)}
		g.pt, g.pl = rng.Intn(g.k), rng.Intn(g.k)
		padH, padW := g.h+g.pt+rng.Intn(g.k), g.w+g.pl+rng.Intn(g.k)
		if padH >= g.k && padW >= g.k {
			g.oh, g.ow = (padH-g.k)/g.s+1, (padW-g.k)/g.s+1
			return g
		}
	}
}

// depthwiseI8Naive is the textbook int8 depthwise loop over the raw
// image: per output and channel the bias plus (in-zp)*w over the taps
// that land inside the image, requantized by q.
func depthwiseI8Naive(g dwGeom, in, w []int8, bias []int32, zp int32, q Requant) []int8 {
	ch := len(bias)
	out := make([]int8, g.oh*g.ow*ch)
	for oy := 0; oy < g.oh; oy++ {
		for ox := 0; ox < g.ow; ox++ {
			for c := 0; c < ch; c++ {
				a := bias[c]
				for ky := 0; ky < g.k; ky++ {
					for kx := 0; kx < g.k; kx++ {
						iy, ix := oy*g.s+ky-g.pt, ox*g.s+kx-g.pl
						if iy >= 0 && iy < g.h && ix >= 0 && ix < g.w {
							a += (int32(in[(iy*g.w+ix)*ch+c]) - zp) * int32(w[(ky*g.k+kx)*ch+c])
						}
					}
				}
				out[(oy*g.ow+ox)*ch+c] = q.Apply(a)
			}
		}
	}
	return out
}

// depthwiseI8Packed runs g the way the int8 executor does: every padded
// row a window reads packed once by PackTapPairs (pad rows cleared), the
// weights paired by PairDepthwise, one DepthwiseI8 call per output row. The
// stream starts out full of junk, so a position the pack skipped shows.
func depthwiseI8Packed(g dwGeom, in, w []int8, bias []int32, zp int32, q Requant) []int8 {
	ch := len(bias)
	step := 2 - g.s%2
	taps := (g.k + 1) / 2
	rows, n := (g.oh-1)*g.s+g.k, ((g.ow-1)*g.s+2*(taps-1))/step+1
	pitch := n * ch
	vp := make([]uint32, rows*pitch)
	for i := range vp {
		vp[i] = 0xdeadbeef
	}
	for r := 0; r < rows; r++ {
		if iy := r - g.pt; iy >= 0 && iy < g.h {
			PackTapPairs(vp[r*pitch:(r+1)*pitch], in[iy*g.w*ch:(iy+1)*g.w*ch], ch, -g.pl, step, n, zp)
		} else {
			clear(vp[r*pitch : (r+1)*pitch])
		}
	}
	wPair := PairDepthwise(w, g.k, ch)
	t := Tile{P: g.ow, N: taps, Rows: g.k, PixStride: g.s / step * ch, InRowStride: pitch, WRowStride: taps * ch, StepStride: 2 / step * ch}
	out := make([]int8, g.oh*g.ow*ch)
	for oy := 0; oy < g.oh; oy++ {
		DepthwiseI8(out[oy*g.ow*ch:(oy+1)*g.ow*ch], bias, wPair, vp[oy*g.s*pitch:], t, q)
	}
	return out
}

// TestDepthwiseI8MatchesNaive holds the int8 depthwise path — tap-pair
// pack, paired weights, DepthwiseI8 — to the textbook loop on every
// tier, bit for bit: kernels 1 to 5 (a phantom tap closes the odd
// ones), strides 1 to 3, pads on either side or none, channel counts
// that leave Go remainder lanes beside the 32- and 8-lane blocks, zero
// points at the int8 limits and every requantization case.
func TestDepthwiseI8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i, q := range requantCases() {
		zp := []int32{-128, 0, 127}[i%3]
		for _, ch := range []int{1, 5, 7, 8, 9, 15, 16, 31, 32, 40, 72, 128} {
			g := randDwGeom(rng)
			in, w := randI8(rng, g.h*g.w*ch), randI8(rng, g.k*g.k*ch)
			in[0], w[0] = -128, -128
			bias := make([]int32, ch)
			for c := range bias {
				bias[c] = int32(rng.Uint32()) >> uint(rng.Intn(24))
			}
			want := depthwiseI8Naive(g, in, w, bias, zp, q)
			simdtest.ForEachTier(t, func(t *testing.T) {
				got := depthwiseI8Packed(g, in, w, bias, zp, q)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%+v zp=%d ch=%d %+v elem %d: %d want %d", q, zp, ch, g, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestPackTapPairsMatchesFormula checks every position of the stream —
// pads on both sides, both column steps, rows shorter than a pair —
// against its definition, on every tier.
func TestPackTapPairsMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, zp := range []int32{-128, -3, 127} {
		for _, ch := range []int{1, 3, 8, 12, 16, 64} {
			for trial := 0; trial < 6; trial++ {
				w, step := 1+rng.Intn(12), 1+rng.Intn(2)
				x0, n := rng.Intn(7)-3, rng.Intn(10)
				row := randI8(rng, w*ch)
				row[0] = -128
				v := func(x, c int) uint32 {
					if x < 0 || x >= w {
						return 0
					}
					return uint32(uint16(int32(row[x*ch+c]) - zp))
				}
				simdtest.ForEachTier(t, func(t *testing.T) {
					got := make([]uint32, n*ch+1)
					for i := range got {
						got[i] = 0xdeadbeef
					}
					PackTapPairs(got, row, ch, x0, step, n, zp)
					for p := 0; p < n; p++ {
						for c := 0; c < ch; c++ {
							x := x0 + p*step
							if want := v(x, c) | v(x+1, c)<<16; got[p*ch+c] != want {
								t.Fatalf("zp=%d ch=%d w=%d x0=%d step=%d: pair (%d, %d) = %08x, want %08x", zp, ch, w, x0, step, p, c, got[p*ch+c], want)
							}
						}
					}
					if got[n*ch] != 0xdeadbeef {
						t.Fatalf("ch=%d w=%d x0=%d step=%d n=%d: wrote past n positions", ch, w, x0, step, n)
					}
				})
			}
		}
	}
}

// TestPackPixelsMatchesScalar checks the pixel pack against packing
// each pixel alone, for every lane count up to 17 and pixel counts that
// leave the vector steps every tail.
func TestPackPixelsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for cin := 1; cin <= 17; cin++ {
		pp := (cin + 1) / 2
		for _, px := range []int{1, 2, 3, 5, 6, 11, 33, 97} {
			for _, zp := range []int32{-128, 4, 127} {
				in := randI8(rng, px*cin)
				in[len(in)-1] = -128
				want := make([]uint32, px*pp)
				for i := 0; i < px; i++ {
					for c := 0; c < cin; c += 2 {
						lo, hi := uint32(uint16(int32(in[i*cin+c])-zp)), uint32(0)
						if c+1 < cin {
							hi = uint32(uint16(int32(in[i*cin+c+1]) - zp))
						}
						want[i*pp+c/2] = lo | hi<<16
					}
				}
				simdtest.ForEachTier(t, func(t *testing.T) {
					got := make([]uint32, len(want))
					if k := PackPixels(got, in, cin, zp); k != pp {
						t.Fatalf("cin=%d: %d pairs per pixel, want %d", cin, k, pp)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("cin=%d px=%d zp=%d pair %d: %08x want %08x", cin, px, zp, i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

func TestPairDepthwise(t *testing.T) {
	w := []int8{ // k=3, ch=2: w[ky][kx][c] = 10*(ky*3+kx) + c
		0, 1, 10, 11, 20, 21,
		30, 31, 40, 41, 50, 51,
		60, 61, 70, 71, 80, 81,
	}
	want := []int16{ // per row: pair (kx 0, 1) per channel, then (kx 2, phantom)
		0, 10, 1, 11, 20, 0, 21, 0,
		30, 40, 31, 41, 50, 0, 51, 0,
		60, 70, 61, 71, 80, 0, 81, 0,
	}
	got := PairDepthwise(w, 3, 2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("PairDepthwise = %v, want %v", got, want)
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
		simdtest.ForEachTier(t, func(t *testing.T) {
			got := make([]int8, len(accs))
			RequantI8(got, accs, q)
			for i := range got {
				if want := q.Apply(accs[i]); got[i] != want {
					t.Fatalf("%+v acc=%d: got %d want %d", q, accs[i], got[i], want)
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

// TestMaxMatchesScalar holds every tier to the scalar comparison,
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
		simdtest.ForEachTier(t, func(t *testing.T) {
			gotF := append([]float32(nil), dstF...)
			MaxF32(gotF, srcF)
			for i := range gotF {
				if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
					t.Fatalf("MaxF32 n=%d lane %d: %x want %x", n, i, math.Float32bits(gotF[i]), math.Float32bits(wantF[i]))
				}
			}
			gotI := append([]int8(nil), dstI...)
			MaxI8(gotI, srcI)
			for i := range gotI {
				if gotI[i] != wantI[i] {
					t.Fatalf("MaxI8 n=%d lane %d: %d want %d", n, i, gotI[i], wantI[i])
				}
			}
		})
	}
}

// TestQuantizeI8MatchesRound holds every tier to the textbook form —
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
		simdtest.ForEachTier(t, func(t *testing.T) {
			got := make([]int8, len(src))
			QuantizeI8(got, src, c.scale, c.zp)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("scale=%g zp=%d: q(%g [%#x]) = %d, want %d", c.scale, c.zp, src[i], math.Float32bits(src[i]), got[i], want[i])
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
			simdtest.ForEachTier(t, func(t *testing.T) {
				got := make([]uint32, (n+1)/2)
				if k := PackPairs(got, in, zp); k != (n+1)/2 {
					t.Fatalf("n=%d: %d pairs, want %d", n, k, (n+1)/2)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("zp=%d n=%d pair %d: %08x want %08x", zp, n, i, got[i], want[i])
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
// by output lanes, as in the reference models' pointwise layers, plus
// the 24 and 32 lanes that split differently between the tile widths.
var benchShapes = []struct{ cin, nf int }{{8, 16}, {64, 16}, {64, 24}, {64, 32}, {64, 64}, {256, 64}}

// BenchmarkConvTileF32 times one 4-pixel run as one tile (P=4) and as
// four single-pixel calls (P=1): the difference is what register tiling
// buys over reloading the weights per pixel.
func BenchmarkConvTileF32(b *testing.B) {
	simdtest.ForEachTier(b, func(b *testing.B) {
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
	})
}

func BenchmarkConvTileI8(b *testing.B) {
	simdtest.ForEachTier(b, func(b *testing.B) {
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
	})
}

// BenchmarkPackStem times packing the vww stem's 96x96x3 input into
// per-pixel pairs, the odd-lane path of PackPixels.
func BenchmarkPackStem(b *testing.B) {
	in := randI8(rand.New(rand.NewSource(1)), 96*96*3)
	vp := make([]uint32, 96*96*2)
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		PackPixels(vp, in, 3, -128)
	}
}

func BenchmarkRequantI8(b *testing.B) {
	acc := make([]int32, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range acc {
		acc[i] = rng.Int31n(1<<24) - 1<<23
	}
	dst := make([]int8, 64)
	q := Requant{Mult: 1412090957, Shift: -6, ZP: -4, Lo: -128, Hi: 127}
	simdtest.ForEachTier(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RequantI8(dst, acc, q)
		}
	})
}

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

// TestButterflyStageF32MatchesScalar holds every tier to the butterfly
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
		simdtest.ForEachTier(t, func(t *testing.T) {
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
		simdtest.ForEachTier(t, func(t *testing.T) {
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

// TestBlendDivF32MatchesScalar checks every tier against the expression
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
		simdtest.ForEachTier(t, func(t *testing.T) {
			got := randF32(rng, n)
			BlendDivF32(got, a, b, wa, wb, 255)
			sameF32(t, fmt.Sprintf("n=%d", n), got, want)
		})
	}
}

// TestParseF32: on the avx512 tier the kernel takes the plain tokens
// ahead of the first it must leave — here a 17-byte one, then an
// exponent — with strconv's float32 bits, and returns the position after
// the last comma it took; it writes nothing on the other tiers.
func TestParseF32(t *testing.T) {
	lead := "                [" // the first token ends past data's 16th byte
	plain := []string{"0", "-0", "0.5", "-12.125", "100", "0.0001234", "1234567890123456", "-0.1234567890123"}
	var toks []string
	for k := 0; k < 5; k++ {
		toks = append(toks, plain...)
	}
	toks = append(toks, "0.123456789012345", "1", "1e5", "2")
	data := []byte(lead + strings.Join(toks, ",") + "]" + strings.Repeat(" ", 128))
	simdtest.ForEachTier(t, func(t *testing.T) {
		dst := make([]float32, 64)
		n, next, ok := ParseF32(dst, data, len(lead))
		if ActiveTier() != TierAVX512 || !HaveParseF32 {
			if ok || n != 0 || next != len(lead) {
				t.Fatalf("took %d (ok=%v, next=%d)", n, ok, next)
			}
			return
		}
		if want := 5 * len(plain); !ok || n != want {
			t.Fatalf("took %d tokens (ok=%v), want %d", n, ok, want)
		}
		if want := len(lead) + len(strings.Join(toks[:n], ",")) + 1; next != want {
			t.Fatalf("next = %d, want %d", next, want)
		}
		for k, tok := range toks[:n] {
			want, _ := strconv.ParseFloat(tok, 32)
			if math.Float32bits(dst[k]) != math.Float32bits(float32(want)) {
				t.Fatalf("%q: %g, want %g", tok, dst[k], want)
			}
		}
		// After the 17-byte token and "1": "1e5" stops it again.
		at := next + len(toks[n]) + 1
		if n, next, _ = ParseF32(dst, data, at); n != 1 || next != at+2 || dst[0] != 1 {
			t.Fatalf("from %q: took %d (next=%d)", data[at:at+8], n, next)
		}
	})
}

// TestMinMaxAbsMaxMatchScalar runs both reductions, on every tier,
// against the scalar loops on every length across the 32- and 8-lane
// blocks and on vectors whose extremes sit in each lane position, with a
// NaN first (the result is NaN), a NaN later (it never wins), both zeros
// and both infinities.
func TestMinMaxAbsMaxMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	var inputs [][]float32
	for n := 0; n <= 100; n++ {
		inputs = append(inputs, randF32(rng, n))
	}
	for _, n := range []int{1, 8, 9, 40, 67} {
		nanFirst, nanLater, zeros, infs := randF32(rng, n), randF32(rng, n), make([]float32, n), randF32(rng, n)
		nanFirst[0] = nan
		nanLater[n-1] = nan
		for i := range zeros {
			if i%3 == 1 {
				zeros[i] = negZero
			}
		}
		infs[n/2] = float32(math.Inf(-1))
		infs[n-1-n/3] = float32(math.Inf(1))
		inputs = append(inputs, nanFirst, nanLater, zeros, infs)
	}
	for pos := 0; pos < 40; pos++ {
		x := randF32(rng, 40)
		x[pos] = -100
		x[(pos+13)%40] = 100
		inputs = append(inputs, x)
	}
	// A NaN later in the same accumulator lane as the extreme (32 floats
	// on in the four-register loop, 8 on in the one-register loop) must
	// not wipe the extreme out.
	for pos := 0; pos < 80; pos++ {
		for _, gap := range []int{8, 32} {
			if pos+gap >= 80 {
				continue
			}
			for _, extreme := range []float32{-100, 100} {
				x := randF32(rng, 80)
				x[pos], x[pos+gap] = extreme, nan
				inputs = append(inputs, x)
			}
		}
	}
	for _, x := range inputs {
		wantLo, wantHi := scalarMinMax(x)
		wantAbs := scalarAbsMax(x)
		simdtest.ForEachTier(t, func(t *testing.T) {
			if lo, hi := MinMaxF32(x); !sameExtreme(lo, wantLo) || !sameExtreme(hi, wantHi) {
				t.Fatalf("MinMaxF32 n=%d: %v, %v, want %v, %v", len(x), lo, hi, wantLo, wantHi)
			}
			if got := AbsMaxF32(x); math.Float32bits(got) != math.Float32bits(wantAbs) {
				t.Fatalf("AbsMaxF32 n=%d: %v, want %v", len(x), got, wantAbs)
			}
		})
	}
}

// BenchmarkMinMaxF32 scans 64 Ki floats, the size of a large
// calibration activation, on every tier.
func BenchmarkMinMaxF32(b *testing.B) {
	x := randF32(rand.New(rand.NewSource(1)), 64<<10)
	simdtest.ForEachTier(b, func(b *testing.B) {
		b.SetBytes(int64(4 * len(x)))
		for i := 0; i < b.N; i++ {
			MinMaxF32(x)
		}
	})
}

package dsp

import (
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/kernelref"
	"edgepulse/internal/simd/simdtest"
)

// randImage returns a w x h x axes image of pixel values in [0, 255],
// integral or not, with the extremes included.
func randImage(rng *rand.Rand, w, h, axes int) Signal {
	px := make([]float32, w*h*axes)
	for i := range px {
		switch rng.Intn(8) {
		case 0:
			px[i] = 0
		case 1:
			px[i] = 255
		case 2:
			px[i] = rng.Float32() * 255
		default:
			px[i] = float32(rng.Intn(256))
		}
	}
	return Signal{Data: px, Axes: axes, Width: w, Height: h}
}

// FuzzImageResize holds Image.Extract, on every simd tier, bit for bit
// to the per-pixel kernelref.ResizeBilinear over source and destination
// sizes 1 to 64 in both directions, 1 or 3 source channels, grayscale
// on and off.
func FuzzImageResize(f *testing.F) {
	f.Add(int64(1), uint8(159), uint8(119), uint8(95), uint8(95), true, false)
	f.Add(int64(2), uint8(31), uint8(31), uint8(31), uint8(31), true, false)
	f.Add(int64(3), uint8(3), uint8(0), uint8(7), uint8(0), false, false)
	f.Add(int64(4), uint8(6), uint8(4), uint8(12), uint8(10), true, true)
	f.Add(int64(5), uint8(0), uint8(0), uint8(63), uint8(63), false, true)
	f.Fuzz(func(t *testing.T, seed int64, sw, sh, dw, dh uint8, rgb, gray bool) {
		w, h, outW, outH := 1+int(sw)%64, 1+int(sh)%64, 1+int(dw)%64, 1+int(dh)%64
		axes := 1
		if rgb {
			axes = 3
		}
		sig := randImage(rand.New(rand.NewSource(seed)), w, h, axes)
		want := kernelref.ResizeBilinear(sig.Data, w, h, axes, outW, outH, gray)
		simdtest.ForEachTier(t, func(t *testing.T) {
			im := &Image{Width: outW, Height: outH, Grayscale: gray}
			got, err := im.Extract(sig)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want {
				if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
					t.Fatalf("%dx%dx%d -> %dx%d gray=%v: elem %d = %g, want %g",
						w, h, axes, outW, outH, gray, i, got.Data[i], v)
				}
			}
		})
	})
}

// TestImageUpscaleStaysInRange: every output of an upscale is a convex
// blend of source pixels, so it stays in [0, 1] — up to the float32
// rounding of the blend, which can put two 255s an ulp above 255.
// Truncating a negative centre toward zero used to extrapolate the first
// row and column by up to half the step between two pixels.
func TestImageUpscaleStaysInRange(t *testing.T) {
	const hi = 1 + 4e-7 // 1 plus about 3 ulps
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		w, h := 1+rng.Intn(16), 1+rng.Intn(16)
		axes := 1 + 2*rng.Intn(2)
		im := &Image{Width: w + rng.Intn(48), Height: h + rng.Intn(48), Grayscale: rng.Intn(2) == 0}
		out, err := im.Extract(randImage(rng, w, h, axes))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out.Data {
			if !(v >= 0 && v <= hi) {
				t.Fatalf("%dx%dx%d -> %dx%d gray=%v: elem %d = %g outside [0, 1]", w, h, axes, im.Width, im.Height, im.Grayscale, i, v)
			}
		}
	}
	// The gradient that showed it: 0, 85, 170, 255 upscaled to 8 wide
	// starts at 0, not at -21.25/255.
	out, err := (&Image{Width: 8, Height: 1}).Extract(Signal{Width: 4, Height: 1, Axes: 1, Data: []float32{0, 85, 170, 255}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 0 || out.Data[len(out.Data)-1] != 1 {
		t.Errorf("gradient ends %g, %g; want 0, 1", out.Data[0], out.Data[len(out.Data)-1])
	}
}

package dsp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	goruntime "runtime"
	"strconv"
	"testing"

	"edgepulse/internal/simd/simdtest"
	"edgepulse/internal/tensor"
)

// extractDigests are SHA-256 digests of the float32 bits of Extract's
// output (shape first) for fixed inputs. They pin every output bit of the
// DSP front ends: an optimisation of the image resize or of the audio
// power spectrum must leave each one unchanged, with the vector paths on
// and off. The upscale cases moved once, on purpose, when the border
// taps of an upscale started flooring instead of truncating toward zero.
var extractDigests = map[string]string{
	"mfcc/kws/8000":             "5ccb697c3b48ed83335a55e0c8cdfa5e8001d0dbd6269882161372902f31a4a7",
	"mfcc/kws/16000":            "5407cbff82cdbdf35a4d978ec84dd5306e764e2f613c4ce37d51f587ac0d2953",
	"mfcc/kws/44100":            "58502d3f5346ebeb6afe61a96a01425ebc0f3d48defed7acd575c266028a374c",
	"mfcc/default/8000":         "cf66532ee9f74ba6898298bd241c3f4b9a5a75040a2939ba7e9b91252e2f54c3",
	"mfcc/default/16000":        "74a4c4c08b0ae352ca480bc8c6b6faac0efbb90ccd19d38e7c7dfb4c2ae67a56",
	"mfcc/default/44100":        "bd78867c36202c126fa051e5128deb1a94104768c707bd796e97a8de6a1a3112",
	"mfe/kws/8000":              "db03ad61d8b8a7d79145e60bcd85b93d5791ca57c4be3052afa8bdfec3af1b33",
	"mfe/kws/16000":             "cde4b994fbea8d886e77c13c232dc19d32c9c00fa34e8b26e59c65a3256b858e",
	"mfe/kws/44100":             "4c1506c14efb2673ba2d1b21d55656ab9ea35dd03bb8f063ef5c741d569f934c",
	"mfe/default/8000":          "327a910d0592d3205bacb587a788c9e09132d5a9447b82d05dc2d7563d79c459",
	"mfe/default/16000":         "aba9fcf98b8510c48468e6dff9c2d97e143ff876dd09610959e1bc07a03f9bfb",
	"mfe/default/44100":         "e965342603f9a34dbec07008a0d2a183f71dbe6e6cf530bd149fa872decbffd4",
	"spectral/3axis":            "04755e584bb82cb12d99a01ff18f118f16719e5b7c788702250496f53716e340",
	"image/rgb/160x120-96x96":   "096bffb7ef65cb23123774c4a8ee3cdc6b5e1d3cb654d820df145784549fa17b",
	"image/rgb/32x32-32x32":     "8acad066390cc1e772ec201124e07b5a91cd00bd02040f0db8c773750bfd92a0",
	"image/1ch/40x30-24x24":     "d3cfe89ffd63dba0c986a776aad14b58a5ca1e90cb097c5b134a758ea3853dfd",
	"image/gray/160x120-48x48":  "a023c41ef3a54049cc610d4040f43cbd51fc2491852ade1844e7a50486b1cc8f",
	"image/1ch-gray/33x17-16x9": "65151f4e143b2b703da254c320741474daf901465e0d0e8c4778ca3c809912f2",
	"image/rgb/7x5-13x11":       "0e0e510d2582b82253a83d50c17cfaf9b0d2857f44ca925e74a204b947c26719",
	"image/1ch/4x1-8x1":         "a2521ec88c71514550497636e3b75b577864d8f86f5b2845af42e03c905fa95d",
	"image/gray/20x10-32x24":    "3eb267f21b2d8e5ca2453b25ef698836481d0fb954db12863447ca36c4f93d87",
}

// digestCase is one fixed extraction.
type digestCase struct {
	block Block
	sig   Signal
}

func digestCases(t *testing.T) map[string]digestCase {
	t.Helper()
	must := func(b Block, err error) Block {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	kwsMFCC := map[string]float64{"frame_length": 0.032, "frame_stride": 0.02, "num_filters": 32, "num_cepstral": 10, "fft_length": 512}
	kwsMFE := map[string]float64{"frame_length": 0.032, "frame_stride": 0.02, "num_filters": 40, "fft_length": 512}
	cases := map[string]digestCase{}
	for i, rate := range []int{8000, 16000, 44100} {
		sig := noiseSignal(rand.New(rand.NewSource(int64(100+i))), rate, rate, 1)
		r := strconv.Itoa(rate)
		cases["mfcc/kws/"+r] = digestCase{must(NewMFCC(kwsMFCC)), sig}
		cases["mfcc/default/"+r] = digestCase{must(NewMFCC(nil)), sig}
		cases["mfe/kws/"+r] = digestCase{must(NewMFE(kwsMFE)), sig}
		cases["mfe/default/"+r] = digestCase{must(NewMFE(nil)), sig}
	}
	cases["spectral/3axis"] = digestCase{must(NewSpectral(nil)), noiseSignal(rand.New(rand.NewSource(110)), 512, 100, 3)}
	image := func(seed int64, w, h, axes int) Signal {
		rng := rand.New(rand.NewSource(seed))
		px := make([]float32, w*h*axes)
		for i := range px {
			px[i] = float32(rng.Intn(256))
		}
		return Signal{Data: px, Axes: axes, Width: w, Height: h}
	}
	resize := func(w, h int, gray bool) Block {
		g := 0.0
		if gray {
			g = 1
		}
		return must(NewImage(map[string]float64{"width": float64(w), "height": float64(h), "grayscale": g}))
	}
	cases["image/rgb/160x120-96x96"] = digestCase{resize(96, 96, false), image(120, 160, 120, 3)}
	cases["image/rgb/32x32-32x32"] = digestCase{resize(32, 32, false), image(121, 32, 32, 3)}
	cases["image/1ch/40x30-24x24"] = digestCase{resize(24, 24, false), image(122, 40, 30, 1)}
	cases["image/gray/160x120-48x48"] = digestCase{resize(48, 48, true), image(123, 160, 120, 3)}
	cases["image/1ch-gray/33x17-16x9"] = digestCase{resize(16, 9, true), image(124, 33, 17, 1)}
	cases["image/rgb/7x5-13x11"] = digestCase{resize(13, 11, false), image(125, 7, 5, 3)}
	cases["image/1ch/4x1-8x1"] = digestCase{resize(8, 1, false), image(126, 4, 1, 1)}
	cases["image/gray/20x10-32x24"] = digestCase{resize(32, 24, true), image(127, 20, 10, 3)}
	return cases
}

// digest hashes a feature tensor's shape and float32 bits.
func digest(x *tensor.F32) string {
	h := sha256.New()
	var b [4]byte
	for _, d := range x.Shape {
		binary.LittleEndian.PutUint32(b[:], uint32(d))
		h.Write(b[:])
	}
	for _, v := range x.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExtractDigests checks every front end against its committed
// digest, on every simd tier. The digests are amd64 facts: the Go spec
// lets other architectures fuse a multiply and an add into one
// rounding, which moves float32 bits.
func TestExtractDigests(t *testing.T) {
	if goruntime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64")
	}
	cases := digestCases(t)
	if len(cases) != len(extractDigests) {
		t.Fatalf("%d cases, %d digests", len(cases), len(extractDigests))
	}
	simdtest.ForEachTier(t, func(t *testing.T) {
		for name, c := range cases {
			out, err := c.block.Extract(c.sig)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := digest(out); got != extractDigests[name] {
				t.Errorf("%s: digest %s, want %s", name, got, extractDigests[name])
			}
		}
	})
}

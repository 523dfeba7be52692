package wav

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripMono(t *testing.T) {
	a := Audio{Rate: 16000, Channels: 1, Samples: make([]float32, 1600)}
	for i := range a.Samples {
		a.Samples[i] = float32(math.Sin(2 * math.Pi * 440 * float64(i) / 16000))
	}
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rate != 16000 || got.Channels != 1 || len(got.Samples) != 1600 {
		t.Fatalf("header: %+v", got)
	}
	for i := range a.Samples {
		if math.Abs(float64(got.Samples[i]-a.Samples[i])) > 1.0/32000 {
			t.Fatalf("sample %d: %g vs %g", i, got.Samples[i], a.Samples[i])
		}
	}
	if math.Abs(got.Duration()-0.1) > 1e-9 {
		t.Errorf("duration %g", got.Duration())
	}
}

func TestRoundTripStereo(t *testing.T) {
	a := Audio{Rate: 8000, Channels: 2, Samples: []float32{0.5, -0.5, 0.25, -0.25}}
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Channels != 2 || len(got.Samples) != 4 {
		t.Fatalf("%+v", got)
	}
}

func TestClipping(t *testing.T) {
	a := Audio{Rate: 100, Channels: 1, Samples: []float32{5, -5}}
	var buf bytes.Buffer
	Encode(&buf, a)
	got, _ := Decode(&buf)
	if got.Samples[0] < 0.99 || got.Samples[1] > -0.99 {
		t.Fatalf("clipping failed: %v", got.Samples)
	}
}

func TestEncodeValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Audio{Rate: 0, Channels: 1}); err == nil {
		t.Error("accepted zero rate")
	}
	if err := Encode(&buf, Audio{Rate: 100, Channels: 0}); err == nil {
		t.Error("accepted zero channels")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},
		[]byte("not a wav file"),
		[]byte("RIFF1234WAVE"), // no chunks
		[]byte("RIFF1234WAVEdata\x04\x00\x00\x00abcd"), // data before fmt
	}
	for i, c := range cases {
		if _, err := Decode(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: accepted", i)
		}
	}
}

// TestDecodeClampsMostNegative pins the int16 extremes to the ends of
// [-1, 1]: -32768, which Encode never writes, decodes to -1 rather than
// one step beyond it.
func TestDecodeClampsMostNegative(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Audio{Rate: 8000, Channels: 1, Samples: []float32{1, -1, 0}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint16(b[len(b)-2:], 0x8000) // the last sample becomes -32768
	got, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if want := []float32{1, -1, -1}; fmt.Sprint(got.Samples) != fmt.Sprint(want) {
		t.Fatalf("samples %v, want %v", got.Samples, want)
	}
}

// FuzzWAVDecode feeds Decode arbitrary bytes. It must return an error or
// audio whose samples all lie in [-1, 1], and audio it accepts must come
// back from Encode and Decode with the same rate, channel count and
// sample count.
func FuzzWAVDecode(f *testing.F) {
	var buf bytes.Buffer
	Encode(&buf, Audio{Rate: 16000, Channels: 1, Samples: []float32{0, 0.5, -1, 1}})
	f.Add(buf.Bytes())
	// Stereo behind an unknown odd-sized chunk, -32768 in an odd-length
	// data chunk, and a second fmt chunk after the data.
	f.Add([]byte("RIFF\x00\x00\x00\x00WAVEjunk\x03\x00\x00\x00abc\x00" +
		"fmt \x10\x00\x00\x00\x01\x00\x02\x00\x40\x1f\x00\x00\x00\x7d\x00\x00\x04\x00\x10\x00" +
		"data\x05\x00\x00\x00\x00\x80\xff\x7f\x01\x00" +
		"fmt \x10\x00\x00\x00\x01\x00\x01\x00\x11\x2b\x00\x00\x22\x56\x00\x00\x02\x00\x10\x00"))
	f.Add([]byte("RIFF1234WAVEdata\x04\x00\x00\x00abcd"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, s := range a.Samples {
			if !(s >= -1 && s <= 1) {
				t.Fatalf("sample %d = %v, outside [-1, 1]", i, s)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, a); err != nil {
			t.Fatalf("Encode of decoded audio (rate %d, channels %d): %v", a.Rate, a.Channels, err)
		}
		b, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode of re-encoded audio: %v", err)
		}
		if b.Rate != a.Rate || b.Channels != a.Channels || len(b.Samples) != len(a.Samples) {
			t.Fatalf("round trip: rate %d, channels %d, %d samples; decoded %d, %d, %d",
				b.Rate, b.Channels, len(b.Samples), a.Rate, a.Channels, len(a.Samples))
		}
	})
}

func TestDecodeTruncationProperty(t *testing.T) {
	a := Audio{Rate: 8000, Channels: 1, Samples: make([]float32, 100)}
	var buf bytes.Buffer
	Encode(&buf, a)
	full := buf.Bytes()
	f := func(cut uint16) bool {
		n := int(cut) % len(full)
		_, err := Decode(bytes.NewReader(full[:n]))
		return err != nil // must error, not panic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDurationEmpty(t *testing.T) {
	if (Audio{}).Duration() != 0 {
		t.Fatal("empty duration")
	}
}

func TestRandomRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		a := Audio{Rate: 1000 * (1 + rng.Intn(48)), Channels: 1 + rng.Intn(2)}
		// Make length divisible by channels (one stereo sample becomes two).
		n -= n % a.Channels
		if n == 0 {
			n = a.Channels
		}
		a.Samples = make([]float32, n)
		for i := range a.Samples {
			a.Samples[i] = float32(rng.Float64()*2 - 1)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, a); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if got.Rate != a.Rate || got.Channels != a.Channels || len(got.Samples) != len(a.Samples) {
			return false
		}
		for i := range a.Samples {
			if math.Abs(float64(got.Samples[i]-a.Samples[i])) > 1.0/16000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

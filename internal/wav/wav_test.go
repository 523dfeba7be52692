package wav

import (
	"bytes"
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

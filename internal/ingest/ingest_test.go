package ingest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func samplePayload() Payload {
	return Payload{
		DeviceName: "ac:87:a3:0a:2d:1b",
		DeviceType: "NANO33BLE",
		IntervalMS: 16,
		Sensors: []Sensor{
			{Name: "accX", Units: "m/s2"},
			{Name: "accY", Units: "m/s2"},
		},
		Values: [][]float64{{0.1, 0.2}, {0.3, 0.4}, {-0.5, 0.6}},
	}
}

func TestSignVerifyJSON(t *testing.T) {
	data, err := SignJSON(samplePayload(), "secret-key", 1670000000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Verify(data, "secret-key")
	if err != nil {
		t.Fatal(err)
	}
	if p.DeviceName != "ac:87:a3:0a:2d:1b" || len(p.Values) != 3 {
		t.Fatalf("payload: %+v", p)
	}
	if p.Values[2][0] != -0.5 {
		t.Errorf("values lost: %v", p.Values)
	}
}

func TestSignVerifyCBOR(t *testing.T) {
	data, err := SignCBOR(samplePayload(), "secret-key", 1670000000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Verify(data, "secret-key")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sensors) != 2 || p.Sensors[1].Name != "accY" {
		t.Fatalf("sensors: %+v", p.Sensors)
	}
	// CBOR documents are smaller than their JSON equivalents.
	jdata, _ := SignJSON(samplePayload(), "secret-key", 1670000000)
	if len(data) >= len(jdata) {
		t.Errorf("CBOR %d bytes >= JSON %d bytes", len(data), len(jdata))
	}
}

func TestWrongKeyRejected(t *testing.T) {
	for _, enc := range []func(Payload, string, int64) ([]byte, error){SignJSON, SignCBOR} {
		data, err := enc(samplePayload(), "right-key", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(data, "wrong-key"); err == nil {
			t.Error("wrong key accepted")
		}
	}
}

func TestTamperRejected(t *testing.T) {
	data, err := SignJSON(samplePayload(), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte("0.1"), []byte("9.9"), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper failed to change document")
	}
	if _, err := Verify(tampered, "k"); err == nil {
		t.Error("tampered payload accepted")
	}
}

func TestTamperProperty(t *testing.T) {
	data, err := SignCBOR(samplePayload(), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, delta byte) bool {
		if delta == 0 {
			return true
		}
		i := int(pos) % len(data)
		mut := append([]byte(nil), data...)
		mut[i] ^= delta
		_, err := Verify(mut, "k")
		return err != nil // any bit flip must be rejected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPayloadValidate(t *testing.T) {
	p := samplePayload()
	p.Sensors = nil
	if p.Validate() == nil {
		t.Error("accepted no sensors")
	}
	p = samplePayload()
	p.Values = nil
	if p.Validate() == nil {
		t.Error("accepted no values")
	}
	p = samplePayload()
	p.IntervalMS = 0
	if p.Validate() == nil {
		t.Error("accepted zero interval")
	}
	p = samplePayload()
	p.Values[1] = []float64{1}
	if p.Validate() == nil {
		t.Error("accepted ragged rows")
	}
	if _, err := SignJSON(p, "k", 1); err == nil {
		t.Error("signed invalid payload")
	}
}

// TestIntervalRateBounded: an interval whose rate does not fit an int32
// is refused by name — 1e-300 used to give a Rate of MinInt64, and 1e-12
// a rate of 10^15 Hz that the sample hash cut to 32 bits.
func TestIntervalRateBounded(t *testing.T) {
	for _, iv := range []float64{1e-300, 1e-12, 5e-324, 1000.0 / (math.MaxInt32 + 1)} {
		p := samplePayload()
		p.IntervalMS = iv
		want := fmt.Sprintf("ingest: interval_ms %g gives a sample rate above 2147483647 Hz", iv)
		if err := p.Validate(); err == nil || err.Error() != want {
			t.Errorf("interval_ms %g: Validate says %v, want %q", iv, err, want)
		}
		if _, err := SignJSON(p, "k", 1); err == nil {
			t.Errorf("interval_ms %g: signed", iv)
		}
	}
	for iv, rate := range map[float64]int{1e-6: 1e9, 0.0625: 16000, 16: 63} {
		p := samplePayload()
		p.IntervalMS = iv
		if err := p.Validate(); err != nil || p.Rate() != rate {
			t.Errorf("interval_ms %g: rate %d, want %d (%v)", iv, p.Rate(), rate, err)
		}
	}
}

func TestSignalConversion(t *testing.T) {
	p := samplePayload()
	sig := p.Signal()
	if sig.Axes != 2 {
		t.Fatalf("axes = %d", sig.Axes)
	}
	if sig.Rate != 63 { // 1000/16 = 62.5 -> 63
		t.Fatalf("rate = %d", sig.Rate)
	}
	if sig.Frames() != 3 {
		t.Fatalf("frames = %d", sig.Frames())
	}
	if sig.Data[0] != 0.1 || sig.Data[1] != 0.2 || sig.Data[2] != 0.3 {
		t.Fatalf("interleaving wrong: %v", sig.Data[:4])
	}
}

func TestRateEdge(t *testing.T) {
	if (Payload{IntervalMS: 0}).Rate() != 0 {
		t.Error("zero interval rate")
	}
	if (Payload{IntervalMS: 0.0625}).Rate() != 16000 {
		t.Error("16kHz audio rate")
	}
}

func TestVerifyGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("{}"),
		[]byte("{not json"),
		[]byte{0xFF, 0x00},
		[]byte(`{"protected":{"alg":"none"},"signature":"x","payload":{}}`),
	}
	for i, c := range cases {
		if _, err := Verify(c, "k"); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRoundTripPropertyJSON(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Payload{
			DeviceName: "dev",
			DeviceType: "TEST",
			IntervalMS: 1 + rng.Float64()*100,
			Sensors:    []Sensor{{Name: "s0", Units: "u"}},
		}
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			p.Values = append(p.Values, []float64{float64(rng.Intn(2000)-1000) / 8})
		}
		data, err := SignJSON(p, "key", rng.Int63())
		if err != nil {
			return false
		}
		got, err := Verify(data, "key")
		if err != nil {
			return false
		}
		if len(got.Values) != len(p.Values) {
			return false
		}
		for i := range p.Values {
			if got.Values[i][0] != p.Values[i][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

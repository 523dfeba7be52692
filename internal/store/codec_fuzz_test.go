package store

import (
	"encoding/json"
	"reflect"
	"testing"

	"edgepulse/internal/cbor"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
)

// FuzzDecodeSample decodes arbitrary segment-record payloads, the bytes
// a follower takes from its leader. Nothing may panic, and a decode
// either refuses or yields a signal whose shape agrees with its data:
// at least one axis, whole frames, no negative rate or size, and an
// image's width × height × axes equal to its length.
func FuzzDecodeSample(f *testing.F) {
	record := func(rate, axes, w, h int64, values int) []byte {
		b, err := cbor.Marshal(map[string]any{
			"id": "x", "label": "l", "cat": "training",
			"rate": rate, "axes": axes, "w": w, "h": h,
			"data": make([]byte, 4*values),
		})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	s := mkSample("d0", 6)
	valid, err := encodeSample(s)
	if err != nil {
		f.Fatal(err)
	}
	img := &data.Sample{ID: "i0", Label: "l", Signal: dsp.Signal{Data: make([]float32, 2*3*3), Axes: 3, Width: 2, Height: 3}}
	image, err := encodeSample(img)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(image)
	f.Add(record(100, 0, 0, 0, 4))   // no axis: the parent decoded it
	f.Add(record(100, 3, 0, 0, 4))   // 4 values in 3 axes
	f.Add(record(0, 3, 4, 4, 12))    // a 4x4 image of 12 values
	f.Add(record(-1, 1, 0, 0, 2))    // negative rate
	f.Add(record(0, 1, 1<<40, 1, 2)) // width past the data

	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := decodeSample(payload)
		if err != nil {
			return
		}
		sig, n := s.Signal, len(s.Signal.Data)
		if 4*n > len(payload) {
			t.Fatalf("a %d-byte payload decoded to %d values", len(payload), n)
		}
		if sig.Axes < 1 || n%sig.Axes != 0 || sig.Rate < 0 || sig.Width < 0 || sig.Height < 0 {
			t.Fatalf("accepted %d values as rate %d, %d axes, %dx%d", n, sig.Rate, sig.Axes, sig.Width, sig.Height)
		}
		if (sig.Width > 0 || sig.Height > 0) && int64(sig.Width)*int64(sig.Height)*int64(sig.Axes) != int64(n) {
			t.Fatalf("accepted a %dx%d image of %d axes holding %d values", sig.Width, sig.Height, sig.Axes, n)
		}
	})
}

// FuzzParseManifest parses arbitrary manifest.json bytes. Nothing may
// panic, an accepted input is exactly one JSON value, and an accepted
// manifest renders and parses back to an equal value.
func FuzzParseManifest(f *testing.F) {
	m := manifest{Format: manifestFormat, Version: 7, Segment: 2, Samples: []manifestSample{
		{ID: "a", Name: "a.wav", Label: "yes", Category: "training", Metadata: map[string]string{"device": "d"},
			AddedNS: 1700000000000000000, Rate: 16000, Axes: 1, Frames: 16000, Loc: location{Segment: 1, Offset: 8, Length: 64}},
		{ID: "b", Label: "cat", Category: "testing", Axes: 3, Width: 2, Height: 2, Frames: 4,
			Loc: location{Segment: 2, Offset: 8, Length: 48}},
	}}
	blob, err := renderManifest(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"format":1,"version":0,"segment":1,"samples":[]}`))
	f.Add([]byte(`{"format":1,"samples":[{"id":"x","metadata":{}}]}`))
	f.Add([]byte(`{"format":2}`))
	f.Add([]byte(`{"format":1,"extra":true}`))
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"format":1,"version":0,"segment":1,"samples":[]} trailing garbage {`))

	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := parseManifest(in)
		if err != nil {
			return
		}
		if !json.Valid(in) {
			t.Fatalf("accepted data after the manifest: %q", in)
		}
		out, err := renderManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not render: %v", err)
		}
		back, err := parseManifest(out)
		if err != nil {
			t.Fatalf("rendered manifest does not parse: %v\n%s", err, out)
		}
		// Empty metadata is omitted when rendered: nil and empty are one
		// value in this format.
		for i := range m.Samples {
			if len(m.Samples[i].Metadata) == 0 {
				m.Samples[i].Metadata = nil
			}
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("manifest changed across render and parse:\n%+v\n%+v", m, back)
		}
	})
}

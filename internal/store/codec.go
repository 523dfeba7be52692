package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"edgepulse/internal/cbor"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
)

// Record payloads are canonical CBOR maps (internal/cbor sorts keys, so
// identical content always encodes to identical bytes). Two payload
// kinds exist: segment records carry a full sample including its signal
// bytes, journal records carry manifest operations.

// Journal operation names.
const (
	opAdd    = "add"
	opRemove = "remove"
	opLabel  = "label"
	opCats   = "cats"
)

// location addresses one sample's record inside a segment file.
type location struct {
	// Segment is the 1-based segment index.
	Segment int `json:"segment"`
	// Offset is the byte offset of the record's frame header.
	Offset int64 `json:"offset"`
	// Length is the payload length in bytes (frame adds 8).
	Length int64 `json:"length"`
}

// end returns the offset just past the record's frame.
func (l location) end() int64 { return l.Offset + frameSize(int(l.Length)) }

// rec is one sample's in-memory index entry: its header plus where the
// signal payload lives.
type rec struct {
	h   data.Header
	loc location
}

// encodeSample renders a sample as a segment-record payload.
func encodeSample(s *data.Sample) ([]byte, error) {
	raw := make([]byte, len(s.Signal.Data)*4)
	for i, v := range s.Signal.Data {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	m := map[string]any{
		"id":    s.ID,
		"name":  s.Name,
		"label": s.Label,
		"cat":   string(s.Category),
		"added": s.AddedAt.UnixNano(),
		"rate":  int64(s.Signal.Rate),
		"axes":  int64(s.Signal.Axes),
		"w":     int64(s.Signal.Width),
		"h":     int64(s.Signal.Height),
		"data":  raw,
	}
	if len(s.Metadata) > 0 {
		meta := make(map[string]any, len(s.Metadata))
		for k, v := range s.Metadata {
			meta[k] = v
		}
		m["meta"] = meta
	}
	return cbor.Marshal(m)
}

// decodeSample parses a segment-record payload back into a sample.
func decodeSample(payload []byte) (*data.Sample, error) {
	v, err := cbor.Unmarshal(payload)
	if err != nil {
		return nil, fmt.Errorf("store: segment record: %w", err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("store: segment record is %T, want map", v)
	}
	raw, _ := m["data"].([]byte)
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("store: signal payload length %d is not a float32 array", len(raw))
	}
	sig := dsp.Signal{
		Data:  make([]float32, len(raw)/4),
		Rate:  int(asInt(m["rate"])),
		Axes:  int(asInt(m["axes"])),
		Width: int(asInt(m["w"])), Height: int(asInt(m["h"])),
	}
	if err := checkShape(sig); err != nil {
		return nil, err
	}
	for i := range sig.Data {
		sig.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	s := &data.Sample{
		ID:       asString(m["id"]),
		Name:     asString(m["name"]),
		Label:    asString(m["label"]),
		Category: data.Category(asString(m["cat"])),
		Signal:   sig,
		AddedAt:  time.Unix(0, asInt(m["added"])),
	}
	if meta, ok := m["meta"].(map[string]any); ok {
		s.Metadata = make(map[string]string, len(meta))
		for k, v := range meta {
			s.Metadata[k] = asString(v)
		}
	}
	return s, nil
}

// checkShape refuses a signal whose geometry cannot describe its data:
// no axis, a length that is not whole frames, a negative rate or size,
// or an image whose width × height is not its frame count.
func checkShape(sig dsp.Signal) error {
	n := len(sig.Data)
	switch {
	case sig.Axes < 1 || n%sig.Axes != 0:
		return fmt.Errorf("store: signal of %d values in %d axes", n, sig.Axes)
	case sig.Rate < 0 || sig.Width < 0 || sig.Height < 0:
		return fmt.Errorf("store: signal of rate %d and size %dx%d", sig.Rate, sig.Width, sig.Height)
	case (sig.Width > 0 || sig.Height > 0) && (sig.Width > n || sig.Height > n || sig.Width*sig.Height != n/sig.Axes):
		return fmt.Errorf("store: %dx%d image of %d axes holds %d values", sig.Width, sig.Height, sig.Axes, n)
	}
	return nil
}

// shapeOf is the header shape of a signal.
func shapeOf(sig dsp.Signal) data.SignalShape {
	return data.SignalShape{
		Rate: sig.Rate, Axes: sig.Axes, Width: sig.Width, Height: sig.Height,
		Frames: sig.Frames(),
	}
}

// headerMap renders a header + location as the value carried by an
// opAdd journal record and by manifest snapshots.
func headerMap(h data.Header, loc location) map[string]any {
	m := map[string]any{
		"id":     h.ID,
		"name":   h.Name,
		"label":  h.Label,
		"cat":    string(h.Category),
		"added":  h.AddedAt.UnixNano(),
		"rate":   int64(h.Shape.Rate),
		"axes":   int64(h.Shape.Axes),
		"w":      int64(h.Shape.Width),
		"h":      int64(h.Shape.Height),
		"frames": int64(h.Shape.Frames),
		"seg":    int64(loc.Segment),
		"off":    loc.Offset,
		"len":    loc.Length,
	}
	if len(h.Metadata) > 0 {
		meta := make(map[string]any, len(h.Metadata))
		for k, v := range h.Metadata {
			meta[k] = v
		}
		m["meta"] = meta
	}
	return m
}

// parseHeaderMap is the inverse of headerMap.
func parseHeaderMap(m map[string]any) (rec, error) {
	h := data.Header{
		ID:       asString(m["id"]),
		Name:     asString(m["name"]),
		Label:    asString(m["label"]),
		Category: data.Category(asString(m["cat"])),
		AddedAt:  time.Unix(0, asInt(m["added"])),
		Shape: data.SignalShape{
			Rate: int(asInt(m["rate"])), Axes: int(asInt(m["axes"])),
			Width: int(asInt(m["w"])), Height: int(asInt(m["h"])),
			Frames: int(asInt(m["frames"])),
		},
	}
	if h.ID == "" {
		return rec{}, fmt.Errorf("store: header record without id")
	}
	if meta, ok := m["meta"].(map[string]any); ok {
		h.Metadata = make(map[string]string, len(meta))
		for k, v := range meta {
			h.Metadata[k] = asString(v)
		}
	}
	loc := location{
		Segment: int(asInt(m["seg"])),
		Offset:  asInt(m["off"]),
		Length:  asInt(m["len"]),
	}
	if loc.Segment < 1 || loc.Offset < logMagicLen || loc.Length < 0 {
		return rec{}, fmt.Errorf("store: header %s has invalid location %+v", h.ID, loc)
	}
	return rec{h: h, loc: loc}, nil
}

// asInt converts the integer shapes internal/cbor decoding produces.
func asInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case uint64:
		return int64(x)
	case float64:
		return int64(x)
	default:
		return 0
	}
}

// asString converts a decoded CBOR value to a string (empty if not one).
func asString(v any) string {
	s, _ := v.(string)
	return s
}

package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"edgepulse/internal/cbor"
	"edgepulse/internal/data"
)

// FuzzReadFrame walks readFrame over arbitrary bytes as scanLog walks a
// log, from the first frame to the first one it refuses, and decodes
// every payload it accepts as a segment record (decodeSample) and as a
// journal header (cbor.Unmarshal, then parseHeaderMap). Nothing may
// panic; an accepted payload is exactly the bytes its frame covers, and
// its CRC matches; and no allocation is sized beyond the input: the
// payload readFrame allocates lies inside it, and the signal decodeSample
// allocates inside the payload.
func FuzzReadFrame(f *testing.F) {
	s := mkSample("f0", 6)
	sample, err := encodeSample(s)
	if err != nil {
		f.Fatal(err)
	}
	h := data.Header{ID: s.ID, Name: s.Name, Label: s.Label, Category: s.Category, AddedAt: s.AddedAt, Metadata: s.Metadata}
	header, err := cbor.Marshal(headerMap(h, location{Segment: 1, Offset: logMagicLen, Length: int64(len(sample))}))
	if err != nil {
		f.Fatal(err)
	}
	log := append(appendFrame(nil, sample), appendFrame(nil, header)...)
	f.Add(log)
	f.Add(log[:len(log)-1]) // torn tail
	corrupt := bytes.Clone(log)
	corrupt[frameHeaderLen+3] ^= 0x40
	f.Add(corrupt)
	huge := binary.LittleEndian.AppendUint32(nil, maxRecordLen)
	f.Add(append(huge, 0, 0, 0, 0))
	f.Add(appendFrame(nil, nil))

	f.Fuzz(func(t *testing.T, in []byte) {
		r, size := bytes.NewReader(in), int64(len(in))
		for off := int64(0); off < size; {
			payload, next, err := readFrame(r, off, size)
			if err != nil {
				return
			}
			if next != off+frameSize(len(payload)) || next > size {
				t.Fatalf("frame at %d of %d bytes: %d-byte payload, next at %d", off, size, len(payload), next)
			}
			if !bytes.Equal(payload, in[off+frameHeaderLen:next]) {
				t.Fatalf("frame at %d: payload is not the bytes the frame covers", off)
			}
			if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(in[off+4:]) {
				t.Fatalf("frame at %d accepted with a CRC that does not match", off)
			}
			if s, err := decodeSample(payload); err == nil && 4*len(s.Signal.Data) > len(payload) {
				t.Fatalf("frame at %d: a %d-byte payload decoded to %d samples", off, len(payload), len(s.Signal.Data))
			}
			if v, err := cbor.Unmarshal(payload); err == nil {
				if m, ok := v.(map[string]any); ok {
					parseHeaderMap(m)
				}
			}
			off = next
		}
	})
}

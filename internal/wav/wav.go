// Package wav reads and writes 16-bit PCM WAV files, one of the ingestion
// formats the platform accepts for audio data (paper Sec. 4.1).
package wav

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Audio is decoded PCM audio.
type Audio struct {
	// Rate is the sample rate in Hz.
	Rate int
	// Channels is the channel count (1 = mono).
	Channels int
	// Samples holds normalized samples in [-1, 1], interleaved by channel.
	Samples []float32
}

// Duration returns the length in seconds.
func (a Audio) Duration() float64 {
	if a.Rate == 0 || a.Channels == 0 {
		return 0
	}
	return float64(len(a.Samples)) / float64(a.Channels) / float64(a.Rate)
}

// Encode writes a 16-bit PCM WAV file.
func Encode(w io.Writer, a Audio) error {
	if a.Rate <= 0 || a.Channels <= 0 {
		return fmt.Errorf("wav: invalid rate %d / channels %d", a.Rate, a.Channels)
	}
	dataLen := len(a.Samples) * 2
	var buf bytes.Buffer
	buf.WriteString("RIFF")
	binary.Write(&buf, binary.LittleEndian, uint32(36+dataLen))
	buf.WriteString("WAVE")
	buf.WriteString("fmt ")
	binary.Write(&buf, binary.LittleEndian, uint32(16))
	binary.Write(&buf, binary.LittleEndian, uint16(1)) // PCM
	binary.Write(&buf, binary.LittleEndian, uint16(a.Channels))
	binary.Write(&buf, binary.LittleEndian, uint32(a.Rate))
	binary.Write(&buf, binary.LittleEndian, uint32(a.Rate*a.Channels*2)) // byte rate
	binary.Write(&buf, binary.LittleEndian, uint16(a.Channels*2))        // block align
	binary.Write(&buf, binary.LittleEndian, uint16(16))                  // bits per sample
	buf.WriteString("data")
	binary.Write(&buf, binary.LittleEndian, uint32(dataLen))
	for _, s := range a.Samples {
		v := s
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		binary.Write(&buf, binary.LittleEndian, int16(v*32767))
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// Decode parses a 16-bit PCM WAV file.
func Decode(r io.Reader) (Audio, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Audio{}, err
	}
	if len(data) < 12 || string(data[:4]) != "RIFF" || string(data[8:12]) != "WAVE" {
		return Audio{}, fmt.Errorf("wav: not a RIFF/WAVE file")
	}
	var a Audio
	var bitsPerSample int
	pos := 12
	foundFmt, foundData := false, false
	for pos+8 <= len(data) {
		id := string(data[pos : pos+4])
		size := int(binary.LittleEndian.Uint32(data[pos+4 : pos+8]))
		body := pos + 8
		if size < 0 || body+size > len(data) {
			return Audio{}, fmt.Errorf("wav: chunk %q overruns file", id)
		}
		switch id {
		case "fmt ":
			if size < 16 {
				return Audio{}, fmt.Errorf("wav: fmt chunk too small")
			}
			format := binary.LittleEndian.Uint16(data[body:])
			if format != 1 {
				return Audio{}, fmt.Errorf("wav: unsupported format %d (want PCM)", format)
			}
			a.Channels = int(binary.LittleEndian.Uint16(data[body+2:]))
			a.Rate = int(binary.LittleEndian.Uint32(data[body+4:]))
			bitsPerSample = int(binary.LittleEndian.Uint16(data[body+14:]))
			foundFmt = true
		case "data":
			if !foundFmt {
				return Audio{}, fmt.Errorf("wav: data chunk before fmt")
			}
			if bitsPerSample != 16 {
				return Audio{}, fmt.Errorf("wav: unsupported bit depth %d (want 16)", bitsPerSample)
			}
			n := size / 2
			a.Samples = make([]float32, n)
			for i := 0; i < n; i++ {
				s := int16(binary.LittleEndian.Uint16(data[body+i*2:]))
				a.Samples[i] = max(float32(s)/32767, -1) // -32768/32767 is below -1
			}
			foundData = true
		}
		pos = body + size
		if size%2 == 1 {
			pos++ // chunks are word-aligned
		}
	}
	if !foundFmt || !foundData {
		return Audio{}, fmt.Errorf("wav: missing fmt or data chunk")
	}
	if a.Channels <= 0 || a.Rate <= 0 {
		return Audio{}, fmt.Errorf("wav: invalid header (channels %d, rate %d)", a.Channels, a.Rate)
	}
	return a, nil
}

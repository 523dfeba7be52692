// Package synth generates the synthetic workloads that stand in for the
// paper's datasets (Google Speech Commands, Visual Wake Words, CIFAR-10,
// and industrial sensor streams) — see "Stand-ins" in
// docs/ARCHITECTURE.md for why. Every generator is deterministic for a
// given seed, and task difficulty is tuned so that trained accuracies
// land in the ranges the paper reports.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
)

// keywordSpec defines the formant-like spectral signature of one
// synthetic keyword class.
type keywordSpec struct {
	label    string
	formants []float64 // Hz
	sweep    float64   // Hz/s chirp applied to the first formant
}

// kwsClasses are the synthetic vocabulary: distinct formant stacks per
// word, plus a broadband "noise" class.
var kwsClasses = []keywordSpec{
	{label: "yes", formants: []float64{500, 1800}, sweep: 400},
	{label: "no", formants: []float64{350, 900}, sweep: -250},
	{label: "up", formants: []float64{700, 2400}, sweep: 600},
	{label: "down", formants: []float64{300, 1200, 2800}, sweep: -500},
	{label: "noise", formants: nil},
}

// KWSLabels returns the synthetic keyword vocabulary for nClasses
// (2..5); the last class is always broadband noise.
func KWSLabels(nClasses int) []string {
	if nClasses < 2 {
		nClasses = 2
	}
	if nClasses > len(kwsClasses) {
		nClasses = len(kwsClasses)
	}
	specs := kwsClasses[:nClasses-1]
	out := make([]string, 0, nClasses)
	for _, s := range specs {
		out = append(out, s.label)
	}
	return append(out, "noise")
}

// Keyword synthesizes one utterance of the labeled keyword: formant
// tones with an attack/decay envelope, small random pitch variation, and
// additive noise. rate is the sample rate; seconds the clip length.
func Keyword(label string, rate int, seconds float64, noise float64, rng *rand.Rand) (dsp.Signal, error) {
	var spec *keywordSpec
	for i := range kwsClasses {
		if kwsClasses[i].label == label {
			spec = &kwsClasses[i]
			break
		}
	}
	if spec == nil {
		return dsp.Signal{}, fmt.Errorf("synth: unknown keyword %q", label)
	}
	n := int(seconds * float64(rate))
	out := make([]float32, n)
	if spec.formants == nil {
		// Broadband noise class.
		for i := range out {
			out[i] = float32(rng.NormFloat64() * 0.3)
		}
		return dsp.Signal{Data: out, Rate: rate, Axes: 1}, nil
	}
	// Utterance occupies the middle ~60% of the window.
	start := int(0.2 * float64(n))
	dur := int(0.6 * float64(n))
	pitchJitter := 1 + 0.08*rng.NormFloat64()
	phase := make([]float64, len(spec.formants))
	for i := 0; i < dur; i++ {
		tSec := float64(i) / float64(rate)
		// Attack/decay envelope.
		prog := float64(i) / float64(dur)
		env := math.Sin(math.Pi * prog)
		var v float64
		for f, base := range spec.formants {
			freq := base * pitchJitter
			if f == 0 {
				freq += spec.sweep * tSec
			}
			phase[f] += 2 * math.Pi * freq / float64(rate)
			amp := 1 / float64(f+1)
			v += amp * math.Sin(phase[f])
		}
		out[start+i] = float32(0.4 * env * v)
	}
	for i := range out {
		out[i] += float32(rng.NormFloat64() * noise)
	}
	return dsp.Signal{Data: out, Rate: rate, Axes: 1}, nil
}

// KWSDataset builds a labeled keyword-spotting dataset with perClass
// samples for each of nClasses classes, windowed at `seconds` per clip.
func KWSDataset(nClasses, perClass, rate int, seconds, noise float64, seed int64) (*data.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	labels := KWSLabels(nClasses)
	ds := data.New()
	for _, label := range labels {
		for i := 0; i < perClass; i++ {
			sig, err := Keyword(label, rate, seconds, noise, rng)
			if err != nil {
				return nil, err
			}
			if _, err := ds.Add(&data.Sample{
				Name:   fmt.Sprintf("%s.%04d", label, i),
				Label:  label,
				Signal: sig,
			}); err != nil {
				return nil, err
			}
		}
	}
	ds.Rebalance(0.2)
	return ds, nil
}

// PersonImage synthesizes a "person present" image: a skin-toned head
// over a saturated-clothing torso at a random position on textured
// background. The color saturation is the cue that separates persons from
// the monochrome clutter of NonPersonImage (synthetic stand-in for the
// person/no-person semantic gap). Values are 0-255 RGB.
func PersonImage(size int, rng *rand.Rand) dsp.Signal {
	img := background(size, rng)
	// Head: skin-toned (red-dominant) circle; torso: blue-dominant
	// clothing rectangle below it.
	cx := size/4 + rng.Intn(size/2)
	cy := size/4 + rng.Intn(size/4)
	r := size / 6
	skin := float32(180 + rng.Intn(60))
	drawCircle(img, size, cx, cy, r, skin)
	torsoW := r * 3
	torsoH := size / 2
	cloth := float32(120 + rng.Intn(100))
	drawRectRGB(img, size, cx-torsoW/2, cy+r, torsoW, torsoH,
		cloth*0.3, cloth*0.45, cloth)
	return img
}

// NonPersonImage synthesizes a background-only image with random box
// clutter (furniture-like shapes but no head-torso structure).
func NonPersonImage(size int, rng *rand.Rand) dsp.Signal {
	img := background(size, rng)
	for k := 0; k < 3+rng.Intn(3); k++ {
		w := size/8 + rng.Intn(size/3)
		h := size/10 + rng.Intn(size/6) // wide, flat shapes
		x := rng.Intn(size - w)
		y := rng.Intn(size - h)
		drawRect(img, size, x, y, w, h, float32(rng.Intn(255)))
	}
	return img
}

func background(size int, rng *rand.Rand) dsp.Signal {
	pix := make([]float32, size*size*3)
	base := float32(60 + rng.Intn(120))
	for i := 0; i < size*size; i++ {
		v := base + float32(rng.NormFloat64()*12)
		pix[i*3+0] = clamp255(v)
		pix[i*3+1] = clamp255(v * 0.95)
		pix[i*3+2] = clamp255(v * 1.05)
	}
	return dsp.Signal{Data: pix, Axes: 3, Width: size, Height: size}
}

func clamp255(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

func drawCircle(img dsp.Signal, size, cx, cy, r int, val float32) {
	for y := cy - r; y <= cy+r; y++ {
		for x := cx - r; x <= cx+r; x++ {
			if x < 0 || y < 0 || x >= size || y >= size {
				continue
			}
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r*r {
				base := (y*size + x) * 3
				img.Data[base] = val
				img.Data[base+1] = val * 0.72
				img.Data[base+2] = val * 0.55
			}
		}
	}
}

// drawRectRGB fills a rectangle with an explicit color.
func drawRectRGB(img dsp.Signal, size, x0, y0, w, h int, r, g, b float32) {
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			if x < 0 || y < 0 || x >= size || y >= size {
				continue
			}
			base := (y*size + x) * 3
			img.Data[base] = clamp255(r)
			img.Data[base+1] = clamp255(g)
			img.Data[base+2] = clamp255(b)
		}
	}
}

func drawRect(img dsp.Signal, size, x0, y0, w, h int, val float32) {
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			if x < 0 || y < 0 || x >= size || y >= size {
				continue
			}
			base := (y*size + x) * 3
			img.Data[base] = val
			img.Data[base+1] = val
			img.Data[base+2] = val
		}
	}
}

// VWWDataset builds a balanced person / no-person image dataset, the
// synthetic stand-in for Visual Wake Words.
func VWWDataset(perClass, size int, seed int64) (*data.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := data.New()
	for i := 0; i < perClass; i++ {
		if _, err := ds.Add(&data.Sample{
			Name: fmt.Sprintf("person.%04d", i), Label: "person",
			Signal: PersonImage(size, rng),
		}); err != nil {
			return nil, err
		}
		if _, err := ds.Add(&data.Sample{
			Name: fmt.Sprintf("background.%04d", i), Label: "no-person",
			Signal: NonPersonImage(size, rng),
		}); err != nil {
			return nil, err
		}
	}
	ds.Rebalance(0.2)
	return ds, nil
}

// cifarLabels are the synthetic texture classes standing in for CIFAR-10.
var cifarLabels = []string{
	"stripes-h", "stripes-v", "stripes-d", "checker", "dots",
	"gradient-h", "gradient-v", "rings", "solid", "noise",
}

// CIFARLabels returns the n synthetic image-classification labels (max 10).
func CIFARLabels(n int) []string {
	if n > len(cifarLabels) {
		n = len(cifarLabels)
	}
	return append([]string(nil), cifarLabels[:n]...)
}

// TextureImage synthesizes one image of the given texture class.
func TextureImage(label string, size int, rng *rand.Rand) (dsp.Signal, error) {
	pix := make([]float32, size*size*3)
	freq := 2 + rng.Float64()*3
	phase := rng.Float64() * math.Pi
	hi := float32(160 + rng.Intn(90))
	lo := float32(rng.Intn(80))
	val := func(x, y int) float32 {
		fx := float64(x) / float64(size)
		fy := float64(y) / float64(size)
		switch label {
		case "stripes-h":
			return pick(math.Sin(2*math.Pi*freq*fy+phase) > 0, hi, lo)
		case "stripes-v":
			return pick(math.Sin(2*math.Pi*freq*fx+phase) > 0, hi, lo)
		case "stripes-d":
			return pick(math.Sin(2*math.Pi*freq*(fx+fy)+phase) > 0, hi, lo)
		case "checker":
			return pick(math.Sin(2*math.Pi*freq*fx)*math.Sin(2*math.Pi*freq*fy) > 0, hi, lo)
		case "dots":
			gx := math.Mod(fx*freq, 1) - 0.5
			gy := math.Mod(fy*freq, 1) - 0.5
			return pick(gx*gx+gy*gy < 0.08, hi, lo)
		case "gradient-h":
			return lo + (hi-lo)*float32(fx)
		case "gradient-v":
			return lo + (hi-lo)*float32(fy)
		case "rings":
			d := math.Hypot(fx-0.5, fy-0.5)
			return pick(math.Sin(2*math.Pi*freq*2*d+phase) > 0, hi, lo)
		case "solid":
			return hi
		case "noise":
			return float32(rng.Intn(256))
		}
		return 0
	}
	known := false
	for _, l := range cifarLabels {
		if l == label {
			known = true
			break
		}
	}
	if !known {
		return dsp.Signal{}, fmt.Errorf("synth: unknown texture %q", label)
	}
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := val(x, y) + float32(rng.NormFloat64()*10)
			base := (y*size + x) * 3
			pix[base] = clamp255(v)
			pix[base+1] = clamp255(v * 0.9)
			pix[base+2] = clamp255(v * 1.1)
		}
	}
	return dsp.Signal{Data: pix, Axes: 3, Width: size, Height: size}, nil
}

func pick(cond bool, a, b float32) float32 {
	if cond {
		return a
	}
	return b
}

// ICDataset builds the synthetic image-classification dataset (CIFAR-10
// stand-in) with nClasses texture classes.
func ICDataset(nClasses, perClass, size int, seed int64) (*data.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := data.New()
	for _, label := range CIFARLabels(nClasses) {
		for i := 0; i < perClass; i++ {
			sig, err := TextureImage(label, size, rng)
			if err != nil {
				return nil, err
			}
			if _, err := ds.Add(&data.Sample{
				Name: fmt.Sprintf("%s.%04d", label, i), Label: label,
				Signal: sig,
			}); err != nil {
				return nil, err
			}
		}
	}
	ds.Rebalance(0.2)
	return ds, nil
}

// Vibration synthesizes multi-axis accelerometer data from rotating
// machinery: a fundamental plus harmonics per axis. When anomalous,
// bearing-fault style high-frequency bursts and a shifted harmonic
// appear — the predictive-maintenance workload of the paper's intro.
func Vibration(rate int, seconds float64, anomalous bool, rng *rand.Rand) dsp.Signal {
	n := int(seconds * float64(rate))
	out := make([]float32, n*3)
	fund := 28 + rng.Float64()*4 // ~30 Hz rotation
	for i := 0; i < n; i++ {
		t := float64(i) / float64(rate)
		base := math.Sin(2 * math.Pi * fund * t)
		h2 := 0.4 * math.Sin(2*math.Pi*2*fund*t+0.5)
		h3 := 0.2 * math.Sin(2*math.Pi*3*fund*t+1.1)
		v := base + h2 + h3
		var fault float64
		if anomalous {
			// Impulsive bursts at ~4x the rotation rate plus a strong
			// half-harmonic (classic bearing fault signature).
			fault = 0.8*math.Sin(2*math.Pi*4.33*fund*t) +
				0.5*math.Sin(2*math.Pi*0.5*fund*t)
			if math.Mod(t*fund*4, 1) < 0.05 {
				fault += rng.NormFloat64() * 1.5
			}
		}
		out[i*3+0] = float32(v + fault + rng.NormFloat64()*0.05)
		out[i*3+1] = float32(0.7*v + 0.9*fault + rng.NormFloat64()*0.05)
		out[i*3+2] = float32(0.3*v + 0.5*fault + rng.NormFloat64()*0.05)
	}
	return dsp.Signal{Data: out, Rate: rate, Axes: 3}
}

// VibrationDataset builds a labeled normal/anomalous vibration dataset.
func VibrationDataset(perClass, rate int, seconds float64, seed int64) (*data.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := data.New()
	for i := 0; i < perClass; i++ {
		for _, anomalous := range []bool{false, true} {
			label := "normal"
			if anomalous {
				label = "fault"
			}
			if _, err := ds.Add(&data.Sample{
				Name: fmt.Sprintf("%s.%04d", label, i), Label: label,
				Signal: Vibration(rate, seconds, anomalous, rng),
			}); err != nil {
				return nil, err
			}
		}
	}
	ds.Rebalance(0.2)
	return ds, nil
}

// Event marks a ground-truth keyword occurrence in a stream.
type Event struct {
	// Label of the embedded keyword.
	Label string
	// StartSample and EndSample delimit the utterance.
	StartSample, EndSample int
}

// Stream synthesizes a long audio stream with keyword utterances of the
// given label embedded at random, non-overlapping positions over
// background noise, returning the signal and the ground-truth events —
// the input to performance calibration (paper Sec. 4.4).
func Stream(label string, rate int, seconds float64, nEvents int, noise float64, seed int64) (dsp.Signal, []Event, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(seconds * float64(rate))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * noise)
	}
	const clipSeconds = 1.0
	clipLen := int(clipSeconds * float64(rate))
	if nEvents*clipLen*2 > n {
		return dsp.Signal{}, nil, fmt.Errorf("synth: %d events do not fit %.1fs stream", nEvents, seconds)
	}
	var events []Event
	slot := n / nEvents
	for e := 0; e < nEvents; e++ {
		kw, err := Keyword(label, rate, clipSeconds, 0, rng)
		if err != nil {
			return dsp.Signal{}, nil, err
		}
		maxOff := slot - clipLen
		start := e*slot + rng.Intn(maxOff)
		for i, v := range kw.Data {
			out[start+i] += v
		}
		events = append(events, Event{Label: label, StartSample: start, EndSample: start + clipLen})
	}
	return dsp.Signal{Data: out, Rate: rate, Axes: 1}, events, nil
}

// Source replays a synthesized signal chunk by chunk — the continuous
// feed for streaming inference (live classification demos, the
// `ei-daemon -stream` mode, and the streaming e2e tests). Chunks are
// bit-identical to the corresponding slices of the one-shot signal, so
// windowed classification over a streamed source reproduces one-shot
// extraction exactly.
//
// A Source is NOT safe for concurrent use: Next advances an unguarded
// cursor, so it must be driven by a single goroutine. A fleet of M
// simulated devices should give each device its own Source — either
// Clone an existing one, or synthesize per device with a seed derived
// via Derive so the streams are independent but deterministic. The
// underlying signal is never mutated, so clones may be driven from
// different goroutines concurrently.
type Source struct {
	sig  dsp.Signal
	pos  int
	loop bool
}

// NewSource wraps an already-synthesized signal. loop restarts the feed
// at the beginning instead of ending it.
func NewSource(sig dsp.Signal, loop bool) *Source {
	return &Source{sig: sig, loop: loop}
}

// NewStreamSource synthesizes a keyword stream (see Stream) and returns
// it as a chunked source plus the ground-truth events.
func NewStreamSource(label string, rate int, seconds float64, nEvents int, noise float64, seed int64) (*Source, []Event, error) {
	sig, events, err := Stream(label, rate, seconds, nEvents, noise, seed)
	if err != nil {
		return nil, nil, err
	}
	return NewSource(sig, false), events, nil
}

// NewVibrationSource synthesizes a continuous vibration feed.
func NewVibrationSource(rate int, seconds float64, anomalous bool, seed int64) *Source {
	rng := rand.New(rand.NewSource(seed))
	return NewSource(Vibration(rate, seconds, anomalous, rng), false)
}

// Clone returns an independent reader over the same synthesized
// signal, rewound to the start. The signal data is shared (it is never
// written after synthesis) but the replay cursor is per-clone, so each
// clone can be driven by its own goroutine.
func (s *Source) Clone() *Source {
	return &Source{sig: s.sig, loop: s.loop}
}

// Derive deterministically mixes a base seed with a device index so M
// simulated devices get independent, reproducible streams from one
// scenario seed: Derive(seed, i) != Derive(seed, j) for i != j, and
// the same (seed, device) pair always yields the same value. The
// mixing is a splitmix64 finalizer, so adjacent device indices land
// far apart in seed space.
func Derive(seed int64, device int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(device)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Axes returns the interleaved value count per frame.
func (s *Source) Axes() int {
	if s.sig.Axes <= 0 {
		return 1
	}
	return s.sig.Axes
}

// Rate returns the sample rate in Hz.
func (s *Source) Rate() int { return s.sig.Rate }

// Remaining returns the frames left before the source ends (the full
// length for a looping source's current pass).
func (s *Source) Remaining() int { return s.sig.Frames() - s.pos }

// Next returns the next batch of up to `frames` frames as a freshly
// allocated interleaved slice (callers may hand it off without copying),
// or nil when the source is exhausted. A shorter final batch flushes the
// tail; a looping source never returns nil.
func (s *Source) Next(frames int) []float32 {
	if frames <= 0 {
		return nil
	}
	axes := s.Axes()
	total := s.sig.Frames()
	if s.pos >= total {
		if !s.loop {
			return nil
		}
		s.pos = 0
	}
	end := s.pos + frames
	if end > total {
		end = total
	}
	out := make([]float32, (end-s.pos)*axes)
	copy(out, s.sig.Data[s.pos*axes:end*axes])
	s.pos = end
	return out
}

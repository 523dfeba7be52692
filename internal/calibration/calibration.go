// Package calibration implements performance calibration (paper
// Sec. 4.4): post-processing tuning for impulses that detect events in
// streaming data. Given a trained model's per-window score vectors over
// a stream with known ground-truth events, a genetic algorithm searches
// stream.DebounceConfig space (threshold, release, score averaging,
// detection suppression), replaying the scores through the
// stream.Debouncer that live sessions run, and suggests operating points
// trading off false acceptance rate (FAR) against false rejection rate
// (FRR). Score is the one rule that credits detections to ground truth.
package calibration

import (
	"fmt"
	"math"

	"edgepulse/internal/ga"
	"edgepulse/internal/stream"
	"edgepulse/internal/synth"
)

// Detection is one fired detection: the start of the window it fired on
// and the class it fired for.
type Detection struct {
	WindowStart int
	Label       string
}

// Outcome counts how detections credit a stream's ground-truth events.
// Credited + Missed is the event count and Credited + FalseAccepts the
// detection count.
type Outcome struct {
	Credited     int // events credited with a detection
	Missed       int // events no detection credited
	FalseAccepts int // detections credited to no event
}

// Score credits detections to ground truth by window overlap. A
// detection's window [WindowStart, WindowStart+windowSamples) is
// credited to the earliest event that has the detection's label,
// overlaps the window ([StartSample, EndSample), half-open) and is not
// yet credited. Each event is credited at most once; every other
// detection is a false accept.
func Score(truth []synth.Event, dets []Detection, windowSamples int) Outcome {
	credited := make([]bool, len(truth))
	out := Outcome{Missed: len(truth)}
	for _, d := range dets {
		end := d.WindowStart + windowSamples
		hit := -1
		for i, ev := range truth {
			if credited[i] || ev.Label != d.Label || d.WindowStart >= ev.EndSample || end <= ev.StartSample {
				continue
			}
			if hit < 0 || ev.StartSample < truth[hit].StartSample {
				hit = i
			}
		}
		if hit < 0 {
			out.FalseAccepts++
			continue
		}
		credited[hit] = true
		out.Credited++
		out.Missed--
	}
	return out
}

// Stream bundles a classifier's output over a calibration stream.
type Stream struct {
	// Classes names the score vector's entries, in the impulse's order.
	Classes []string
	// Scores holds one class-ordered score vector per window, as
	// core.(*Impulse).Run writes them.
	Scores [][]float32
	// WindowStarts holds each window's start offset in samples.
	WindowStarts []int
	// WindowSamples is the window length in samples.
	WindowSamples int
	// Rate is the stream sample rate in Hz.
	Rate int
	// TotalSamples is the stream length.
	TotalSamples int
	// Events are the ground-truth occurrences.
	Events []synth.Event
}

// Validate checks structural consistency.
func (s Stream) Validate() error {
	if len(s.Scores) == 0 || len(s.Scores) != len(s.WindowStarts) {
		return fmt.Errorf("calibration: %d scores vs %d window starts", len(s.Scores), len(s.WindowStarts))
	}
	for i, v := range s.Scores {
		if len(v) != len(s.Classes) {
			return fmt.Errorf("calibration: window %d has %d scores for %d classes", i, len(v), len(s.Classes))
		}
	}
	if s.Rate <= 0 || s.TotalSamples <= 0 || s.WindowSamples <= 0 {
		return fmt.Errorf("calibration: missing rate, length or window size")
	}
	return nil
}

// Replay feeds the stream's score vectors through a stream.Debouncer
// configured with cfg and returns the detections it fires: those of a
// live session with the same configuration over the same windows.
func Replay(s Stream, cfg stream.DebounceConfig) []Detection {
	d := stream.NewDebouncer(s.Classes, cfg)
	var dets []Detection
	for i, v := range s.Scores {
		if class, fired := d.Observe(v); fired {
			dets = append(dets, Detection{WindowStart: s.WindowStarts[i], Label: s.Classes[class]})
		}
	}
	return dets
}

// Suggestion is one operating point: a debouncer configuration and how
// its detections score on the calibration stream.
type Suggestion struct {
	Config stream.DebounceConfig
	Outcome
	// FalseAcceptsPerHour is the FAR normalized to stream hours.
	FalseAcceptsPerHour float64
	// FalseRejectionRate is the fraction of true events missed.
	FalseRejectionRate float64
}

// Apply replays the stream with cfg and scores the detections.
func Apply(s Stream, cfg stream.DebounceConfig) Suggestion {
	sg := Suggestion{Config: cfg, Outcome: Score(s.Events, Replay(s, cfg), s.WindowSamples)}
	sg.FalseAcceptsPerHour = float64(sg.FalseAccepts) / (float64(s.TotalSamples) / float64(s.Rate) / 3600)
	if len(s.Events) > 0 {
		sg.FalseRejectionRate = float64(sg.Missed) / float64(len(s.Events))
	}
	return sg
}

// decode maps a genome to a debouncer configuration. Release is a
// fraction of Threshold, so it never exceeds it, and every field is in
// the debouncer's range: the configuration a session opened with it
// runs is this one.
func decode(g ga.Genome, ignore []string) stream.DebounceConfig {
	threshold := float32(0.3 + 0.69*g[0])
	return stream.DebounceConfig{
		Threshold: threshold,
		Release:   threshold * float32(0.25+0.75*g[3]),
		Smooth:    1 + int(g[1]*9.99),
		Suppress:  int(g[2] * 20.99),
		Ignore:    ignore,
	}
}

// Calibrate searches debouncer configurations with a genetic algorithm
// at several FAR-vs-FRR weightings and returns the Pareto-optimal
// operating points, lowest FAR first. ignore is every suggestion's
// Ignore list (background classes that never fire); the search leaves
// it alone.
func Calibrate(s Stream, ignore []string, seed int64) ([]Suggestion, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// The FAR normalizer: one false accept per minute is terrible.
	const farScale = 60
	weights := []float64{0.15, 0.3, 0.5, 0.7, 0.85}
	var candidates []Suggestion
	for wi, w := range weights {
		problem := ga.Problem{
			Genes: 4,
			Fitness: func(g ga.Genome) float64 {
				out := Apply(s, decode(g, ignore))
				farNorm := out.FalseAcceptsPerHour / farScale
				if farNorm > 1 {
					farNorm = 1 + math.Log(farNorm)
				}
				return -(w*out.FalseRejectionRate + (1-w)*farNorm)
			},
		}
		res := ga.Optimize(problem, ga.Config{
			Population: 30, Generations: 15, Seed: seed + int64(wi),
		})
		// Keep the top few genomes per weighting.
		for i := 0; i < 3 && i < len(res.FinalPopulation); i++ {
			candidates = append(candidates, Apply(s, decode(res.FinalPopulation[i], ignore)))
		}
	}
	// Pareto filtering over (FAR, FRR).
	points := make([][2]float64, len(candidates))
	for i, c := range candidates {
		points[i] = [2]float64{c.FalseAcceptsPerHour, c.FalseRejectionRate}
	}
	front := ga.ParetoFront(points)
	out := make([]Suggestion, 0, len(front))
	seen := map[[2]float64]bool{}
	for _, i := range front {
		key := points[i]
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, candidates[i])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("calibration: search produced no configurations")
	}
	return out, nil
}

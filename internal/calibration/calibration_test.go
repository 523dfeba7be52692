package calibration

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"edgepulse/internal/stream"
	"edgepulse/internal/synth"
)

// background is the synthetic streams' never-firing class.
var background = []string{"noise"}

// syntheticStream fabricates window scores for a stream: high "yes"
// scores inside events, low noise elsewhere, with a few spurious spikes.
func syntheticStream(seed int64) Stream {
	rng := rand.New(rand.NewSource(seed))
	rate := 8000
	totalSeconds := 120
	strideSamples := 2000 // 250 ms
	total := rate * totalSeconds
	var events []synth.Event
	for e := 0; e < 6; e++ {
		start := (e*20 + 5) * rate // every 20 s
		events = append(events, synth.Event{Label: "yes", StartSample: start, EndSample: start + rate})
	}
	inEvent := func(at int) bool {
		for _, ev := range events {
			if at >= ev.StartSample && at <= ev.EndSample {
				return true
			}
		}
		return false
	}
	s := Stream{
		Classes: []string{"noise", "yes"}, WindowSamples: rate,
		Rate: rate, TotalSamples: total, Events: events,
	}
	for at := 0; at+rate <= total; at += strideSamples {
		var yes float32
		if inEvent(at) {
			yes = 0.85 + float32(rng.Float64()*0.14)
		} else {
			yes = float32(rng.Float64() * 0.35)
			if rng.Float64() < 0.01 { // occasional spurious spike
				yes = 0.9
			}
		}
		s.Scores = append(s.Scores, []float32{1 - yes, yes})
		s.WindowStarts = append(s.WindowStarts, at)
	}
	return s
}

func TestApplyPerfectDetector(t *testing.T) {
	s := syntheticStream(1)
	out := Apply(s, stream.DebounceConfig{Threshold: 0.8, Smooth: 2, Suppress: 8, Ignore: background})
	if out.FalseRejectionRate > 0.2 {
		t.Errorf("FRR %.2f too high for easy stream", out.FalseRejectionRate)
	}
	if out.FalseAcceptsPerHour > 40 {
		t.Errorf("FAR %.1f/h too high", out.FalseAcceptsPerHour)
	}
	if out.Credited+out.FalseAccepts == 0 {
		t.Error("no detections")
	}
}

func TestApplyThresholdTradeoff(t *testing.T) {
	s := syntheticStream(2)
	loose := Apply(s, stream.DebounceConfig{Threshold: 0.31, Smooth: 1, Ignore: background})
	strict := Apply(s, stream.DebounceConfig{Threshold: 0.99, Smooth: 1, Ignore: background})
	// Loose threshold: no rejections but many false accepts.
	if loose.FalseRejectionRate > strict.FalseRejectionRate {
		t.Errorf("loose FRR %.2f > strict FRR %.2f", loose.FalseRejectionRate, strict.FalseRejectionRate)
	}
	if loose.FalseAcceptsPerHour < strict.FalseAcceptsPerHour {
		t.Errorf("loose FAR %.1f < strict FAR %.1f", loose.FalseAcceptsPerHour, strict.FalseAcceptsPerHour)
	}
	// Strict threshold misses everything.
	if strict.FalseRejectionRate < 0.9 {
		t.Errorf("strict FRR %.2f, want ~1", strict.FalseRejectionRate)
	}
}

func TestAveragingSuppressesSpikes(t *testing.T) {
	s := syntheticStream(3)
	raw := Apply(s, stream.DebounceConfig{Threshold: 0.7, Smooth: 1, Suppress: 4, Ignore: background})
	smoothed := Apply(s, stream.DebounceConfig{Threshold: 0.7, Smooth: 4, Suppress: 4, Ignore: background})
	if raw.FalseAccepts == 0 {
		t.Fatal("the stream's spikes never fire unsmoothed: nothing to damp")
	}
	if smoothed.FalseAcceptsPerHour > raw.FalseAcceptsPerHour {
		t.Errorf("averaging increased FAR: %.1f > %.1f", smoothed.FalseAcceptsPerHour, raw.FalseAcceptsPerHour)
	}
}

func TestSuppressionLimitsDetections(t *testing.T) {
	s := syntheticStream(4)
	none := Apply(s, stream.DebounceConfig{Threshold: 0.5, Smooth: 1, Suppress: 0, Ignore: background})
	heavy := Apply(s, stream.DebounceConfig{Threshold: 0.5, Smooth: 1, Suppress: 15, Ignore: background})
	if n, h := none.Credited+none.FalseAccepts, heavy.Credited+heavy.FalseAccepts; h >= n {
		t.Errorf("suppression did not reduce detections: %d >= %d", h, n)
	}
}

// TestReplayFiresOncePerUtterance is the case a hysteresis-free
// smoother got wrong: one utterance scoring 0.9 over 8 windows
// (threshold 0.6, no averaging, suppression 2) fired every third window,
// 3 detections of which 2 were false accepts. The debouncer fires once.
func TestReplayFiresOncePerUtterance(t *testing.T) {
	const rate, stride = 8000, 2000
	s := Stream{
		Classes: []string{"noise", "yes"}, WindowSamples: rate, Rate: rate,
		Events: []synth.Event{{Label: "yes", StartSample: 2 * stride, EndSample: 2*stride + 2*rate}},
	}
	for w := 0; w < 12; w++ {
		yes := float32(0.1)
		if w >= 2 && w < 10 {
			yes = 0.9
		}
		s.Scores = append(s.Scores, []float32{1 - yes, yes})
		s.WindowStarts = append(s.WindowStarts, w*stride)
	}
	s.TotalSamples = 11*stride + rate
	out := Apply(s, stream.DebounceConfig{Threshold: 0.6, Smooth: 1, Suppress: 2, Ignore: background})
	if out.Credited != 1 || out.FalseAccepts != 0 || out.Missed != 0 {
		t.Fatalf("outcome %+v, want 1 detection, 0 false accepts, 0 missed", out.Outcome)
	}
}

func TestCalibrateParetoFront(t *testing.T) {
	s := syntheticStream(5)
	suggestions, err := Calibrate(s, background, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	// Pareto front: sorted by FAR ascending, FRR must be non-increasing.
	for i := 1; i < len(suggestions); i++ {
		if suggestions[i].FalseAcceptsPerHour < suggestions[i-1].FalseAcceptsPerHour {
			t.Fatal("suggestions not sorted by FAR")
		}
		if suggestions[i].FalseRejectionRate > suggestions[i-1].FalseRejectionRate+1e-9 {
			t.Fatal("pareto violation: higher FAR and higher FRR")
		}
	}
	for _, sg := range suggestions {
		c := sg.Config
		if c.Release <= 0 || c.Release > c.Threshold || c.Smooth < 1 || c.Suppress < 0 {
			t.Fatalf("suggestion outside the debouncer's range: %+v", c)
		}
		if len(c.Ignore) != 1 || c.Ignore[0] != "noise" {
			t.Fatalf("suggestion ignores %v, want the caller's %v", c.Ignore, background)
		}
	}
	// The best suggestion should be quite good on this easy stream.
	best := suggestions[len(suggestions)-1] // highest FAR end = lowest FRR
	if best.FalseRejectionRate > 0.35 {
		t.Errorf("best FRR %.2f", best.FalseRejectionRate)
	}
}

// TestCalibrateGolden pins the seeded search's suggestions on the
// synthetic stream: a change to the genome, the GA or the debouncer
// shows here.
func TestCalibrateGolden(t *testing.T) {
	suggestions, err := Calibrate(syntheticStream(5), background, 6)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, sg := range suggestions {
		c := sg.Config
		fmt.Fprintf(&got, "threshold %v release %v smooth %d suppress %d: credited %d missed %d false %d\n",
			c.Threshold, c.Release, c.Smooth, c.Suppress, sg.Credited, sg.Missed, sg.FalseAccepts)
	}
	const want = "threshold 0.6019344 release 0.50836754 smooth 5 suppress 20: credited 6 missed 0 false 0\n"
	if got.String() != want {
		t.Fatalf("suggestions:\n%s\nwant:\n%s", got.String(), want)
	}
}

func TestStreamValidation(t *testing.T) {
	if err := (Stream{}).Validate(); err == nil {
		t.Error("accepted empty stream")
	}
	s := syntheticStream(7)
	s.WindowStarts = s.WindowStarts[:1]
	if err := s.Validate(); err == nil {
		t.Error("accepted mismatched lengths")
	}
	s = syntheticStream(7)
	s.Scores[3] = s.Scores[3][:1]
	if err := s.Validate(); err == nil {
		t.Error("accepted a score vector shorter than the class list")
	}
	s = syntheticStream(7)
	s.WindowSamples = 0
	if err := s.Validate(); err == nil {
		t.Error("accepted a stream without a window size")
	}
	if _, err := Calibrate(Stream{}, nil, 1); err == nil {
		t.Error("calibrated empty stream")
	}
}

func TestApplyDefaultsNormalized(t *testing.T) {
	s := syntheticStream(8)
	// Zero/negative settings take the debouncer's defaults, not a crash.
	out := Apply(s, stream.DebounceConfig{Threshold: 0.5, Smooth: 0, Suppress: -3, Ignore: background})
	if out.Credited+out.FalseAccepts == 0 {
		t.Error("clamped config produced nothing")
	}
}

func TestScore(t *testing.T) {
	const win = 100
	ev := func(start, end int) synth.Event { return synth.Event{Label: "yes", StartSample: start, EndSample: end} }
	yes := func(start int) Detection { return Detection{WindowStart: start, Label: "yes"} }
	cases := []struct {
		name  string
		truth []synth.Event
		dets  []Detection
		want  Outcome
	}{
		{"window ends where the event starts", []synth.Event{ev(200, 300)}, []Detection{yes(100)},
			Outcome{Missed: 1, FalseAccepts: 1}},
		{"window's last sample is the event's first", []synth.Event{ev(200, 300)}, []Detection{yes(101)},
			Outcome{Credited: 1}},
		{"window starts where the event ends", []synth.Event{ev(200, 300)}, []Detection{yes(300)},
			Outcome{Missed: 1, FalseAccepts: 1}},
		{"window starts at the event's last sample", []synth.Event{ev(200, 300)}, []Detection{yes(299)},
			Outcome{Credited: 1}},
		{"one window over two events credits the earliest", []synth.Event{ev(150, 180), ev(120, 140)},
			[]Detection{yes(100), yes(30)}, Outcome{Credited: 1, Missed: 1, FalseAccepts: 1}},
		{"a second detection credits the other overlapped event", []synth.Event{ev(120, 140), ev(150, 180)},
			[]Detection{yes(100), yes(110)}, Outcome{Credited: 2}},
		{"label matches no event", []synth.Event{ev(100, 200)},
			[]Detection{{WindowStart: 100, Label: "no"}}, Outcome{Missed: 1, FalseAccepts: 1}},
		{"surplus second detection of one event", []synth.Event{ev(100, 200)},
			[]Detection{yes(100), yes(150)}, Outcome{Credited: 1, FalseAccepts: 1}},
		{"empty truth", nil, []Detection{yes(0), yes(50)}, Outcome{FalseAccepts: 2}},
		{"no detections", []synth.Event{ev(0, 10)}, nil, Outcome{Missed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Score(tc.truth, tc.dets, win); got != tc.want {
				t.Fatalf("Score = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// FuzzScore: every event is credited or missed, every detection is
// credited or a false accept, whatever the offsets.
func FuzzScore(f *testing.F) {
	f.Add([]byte{0, 10, 5, 20, 1, 100}, 8)
	f.Add([]byte{255, 0, 3, 3, 3, 3, 7, 9}, -4)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, windowSamples int) {
		labels := []string{"yes", "no"}
		var truth []synth.Event
		var dets []Detection
		for i := 0; i+2 < len(data); i += 3 {
			start := int(int8(data[i])) * 1000
			label := labels[data[i+2]&1]
			if data[i+2]&2 == 0 {
				truth = append(truth, synth.Event{Label: label, StartSample: start, EndSample: start + int(int8(data[i+1]))*1000})
			} else {
				dets = append(dets, Detection{WindowStart: start, Label: label})
			}
		}
		out := Score(truth, dets, windowSamples)
		if out.Credited+out.Missed != len(truth) || out.Credited+out.FalseAccepts != len(dets) || out.Credited < 0 || out.Missed < 0 || out.FalseAccepts < 0 {
			t.Fatalf("Score(%v, %v, %d) = %+v", truth, dets, windowSamples, out)
		}
	})
}

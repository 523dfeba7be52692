package stream

// DebounceConfig tunes how rolling per-window scores become discrete
// detection events: moving average, threshold, hysteresis and refractory
// suppression. After a class fires it must fall below Release before it
// can fire again, so one long utterance spanning many overlapping
// windows produces exactly one event. Performance calibration replays
// recorded scores through this same debouncer to choose a configuration.
type DebounceConfig struct {
	// Threshold is the smoothed score at or above which an armed class
	// fires. Default 0.6.
	Threshold float32
	// Release re-arms a fired class once its smoothed score drops below
	// it. Default 0.75 * Threshold.
	Release float32
	// Smooth is the moving-average length in windows. Default 3.
	Smooth int
	// Suppress is the refractory period in windows after any fire during
	// which no class fires. Default 0 (hysteresis alone debounces).
	Suppress int
	// Ignore lists class labels that never fire (background classes such
	// as "noise" — they still participate in smoothing).
	Ignore []string
}

// normalize fills defaults in place.
func (c *DebounceConfig) normalize() {
	if c.Threshold <= 0 {
		c.Threshold = 0.6
	}
	if c.Release <= 0 || c.Release > c.Threshold {
		c.Release = 0.75 * c.Threshold
	}
	if c.Smooth < 1 {
		c.Smooth = 3
	}
	if c.Suppress < 0 {
		c.Suppress = 0
	}
}

// Debouncer turns a sequence of per-window score vectors into discrete
// detections. All state is preallocated; Observe performs no allocation.
type Debouncer struct {
	cfg      DebounceConfig
	nClasses int
	// hist is a per-class ring of the last Smooth raw scores, interleaved
	// [pos*nClasses + class].
	hist     []float32
	histLen  int // filled entries, <= Smooth
	histPos  int
	smoothed []float32
	armed    []bool
	ignore   []bool
	suppress int
}

// NewDebouncer builds a debouncer for the given class list.
func NewDebouncer(classes []string, cfg DebounceConfig) *Debouncer {
	cfg.normalize()
	d := &Debouncer{
		cfg:      cfg,
		nClasses: len(classes),
		hist:     make([]float32, cfg.Smooth*len(classes)),
		smoothed: make([]float32, len(classes)),
		armed:    make([]bool, len(classes)),
		ignore:   make([]bool, len(classes)),
	}
	for i := range d.armed {
		d.armed[i] = true
	}
	for i, cl := range classes {
		for _, ig := range cfg.Ignore {
			if cl == ig {
				d.ignore[i] = true
			}
		}
	}
	return d
}

// Observe feeds one window's raw scores (len == class count) and reports
// whether a detection fired and for which class index. At most one class
// fires per window — the highest-scoring armed candidate.
func (d *Debouncer) Observe(scores []float32) (class int, fired bool) {
	if len(scores) != d.nClasses {
		panic("stream: score vector length != class count")
	}
	// Push into the smoothing ring and recompute the moving average.
	copy(d.hist[d.histPos*d.nClasses:(d.histPos+1)*d.nClasses], scores)
	d.histPos = (d.histPos + 1) % d.cfg.Smooth
	if d.histLen < d.cfg.Smooth {
		d.histLen++
	}
	for c := 0; c < d.nClasses; c++ {
		var sum float32
		for p := 0; p < d.histLen; p++ {
			sum += d.hist[p*d.nClasses+c]
		}
		d.smoothed[c] = sum / float32(d.histLen)
	}
	// Hysteresis re-arm happens even while suppressed, so the refractory
	// period never extends a class's armed latency.
	best := -1
	for c := 0; c < d.nClasses; c++ {
		if !d.armed[c] && d.smoothed[c] < d.cfg.Release {
			d.armed[c] = true
		}
		if d.ignore[c] || !d.armed[c] || d.smoothed[c] < d.cfg.Threshold {
			continue
		}
		if best < 0 || d.smoothed[c] > d.smoothed[best] {
			best = c
		}
	}
	if d.suppress > 0 {
		d.suppress--
		return -1, false
	}
	if best < 0 {
		return -1, false
	}
	d.armed[best] = false
	d.suppress = d.cfg.Suppress
	return best, true
}

// Smoothed exposes the current moving-average scores (aliased, valid
// until the next Observe).
func (d *Debouncer) Smoothed() []float32 { return d.smoothed }

// Package data implements dataset management (paper Sec. 4.1): labeled
// sample storage with content-addressed IDs, deterministic train/test
// splits, per-class statistics, dataset versioning, and import from the
// file formats the platform accepts (CSV, JSON/CBOR acquisition
// documents, WAV, PNG, JPG).
//
// A Dataset runs in one of two modes. The in-memory mode (New) holds
// every signal resident and is what tests, examples and benchmarks use.
// The lazy mode (Open) keeps only sample Headers in memory and loads
// signals on demand from a Backend — in production the segmented store
// of internal/store — through a bounded LRU cache, so datasets far
// larger than RAM can be listed, iterated and trained on. Batches is
// the streaming iterator that feeds DSP feature extraction and training
// without materializing the whole dataset.
package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"image"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	_ "image/jpeg" // register decoders for ingestion
	_ "image/png"

	"edgepulse/internal/dsp"
	"edgepulse/internal/ingest"
	"edgepulse/internal/wav"
)

// Category assigns a sample to a split.
type Category string

// Split categories.
const (
	Training Category = "training"
	Testing  Category = "testing"
)

// Sample is one labeled dataset entry with its signal materialized.
type Sample struct {
	// ID is the content hash of the signal and label.
	ID string
	// Name is the user-facing file name.
	Name string
	// Label is the class name.
	Label string
	// Category is the split assignment.
	Category Category
	// Signal is the raw sensor data.
	Signal dsp.Signal
	// Metadata holds free-form key/value annotations.
	Metadata map[string]string
	// AddedAt is the ingestion timestamp.
	AddedAt time.Time
}

// SignalShape describes a signal's geometry without its payload, so
// listings and statistics never have to load raw data.
type SignalShape struct {
	// Rate is the sampling frequency in Hz (time series only).
	Rate int
	// Axes is the number of interleaved channels.
	Axes int
	// Width and Height are set for image signals; zero otherwise.
	Width, Height int
	// Frames is the number of per-axis time steps.
	Frames int
}

// Header is the lightweight view of a sample: everything except the
// signal payload. List and Stats operate on headers only; the payload
// loads on demand through Get or Batches.
type Header struct {
	// ID is the content-addressed sample ID.
	ID string
	// Name is the user-facing file name.
	Name string
	// Label is the class name.
	Label string
	// Category is the split assignment.
	Category Category
	// Metadata holds free-form key/value annotations (read-only).
	Metadata map[string]string
	// AddedAt is the ingestion timestamp.
	AddedAt time.Time
	// Shape is the signal geometry.
	Shape SignalShape
}

// Seconds returns the duration of the sample's time-series signal, or 0
// for images and rate-less signals.
func (h Header) Seconds() float64 {
	if h.Shape.Rate <= 0 {
		return 0
	}
	return float64(h.Shape.Frames) / float64(h.Shape.Rate)
}

// header derives a Header from a materialized sample.
func (s *Sample) header() *Header {
	return &Header{
		ID: s.ID, Name: s.Name, Label: s.Label, Category: s.Category,
		Metadata: s.Metadata, AddedAt: s.AddedAt,
		Shape: SignalShape{
			Rate: s.Signal.Rate, Axes: s.Signal.Axes,
			Width: s.Signal.Width, Height: s.Signal.Height,
			Frames: s.Signal.Frames(),
		},
	}
}

// hash computes the content-addressed sample ID.
func (s *Sample) hash() string {
	h := sha256.New()
	io.WriteString(h, s.Label)
	io.WriteString(h, "\x00")
	io.WriteString(h, s.Name)
	io.WriteString(h, "\x00")
	// Rate, axes and every sample as little-endian 32-bit words, encoded
	// a block at a time so SHA-256 sees a few large writes, not one per
	// value.
	var buf [4096]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(s.Signal.Rate))
	binary.LittleEndian.PutUint32(buf[4:], uint32(s.Signal.Axes))
	h.Write(buf[:8])
	for data := s.Signal.Data; len(data) > 0; {
		n := min(len(data), len(buf)/4)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		h.Write(buf[:4*n])
		data = data[n:]
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Backend is a durable sample store behind a lazy Dataset. The Dataset
// is the single writer and keeps the authoritative in-memory header
// index; a Backend only persists mutations and serves signal payloads.
// internal/store.Store is the production implementation.
type Backend interface {
	// Headers returns the committed samples in insertion order.
	Headers() ([]Header, error)
	// LoadSignal reads and decodes one sample's signal payload.
	LoadSignal(id string) (dsp.Signal, error)
	// Append durably persists a new sample (ID already assigned).
	Append(s *Sample) error
	// Remove durably deletes a sample.
	Remove(id string) error
	// SetLabel durably relabels a sample.
	SetLabel(id, label string) error
	// SetCategories durably reassigns split categories in one batch.
	SetCategories(cats map[string]Category) error
}

// ErrDuplicate reports an Add of content the dataset already holds
// (same label, name and signal). Idempotent ingestion paths (spool
// replay, migration retry) match it with errors.Is.
var ErrDuplicate = errors.New("duplicate sample")

// ErrPersist marks a backend persistence failure: the caller's input
// was valid but durable storage failed — a server-side fault, not a
// client error.
var ErrPersist = errors.New("persist failed")

// DefaultCacheBytes bounds the lazy-mode decoded-signal LRU cache.
const DefaultCacheBytes = 64 << 20

// Dataset is a thread-safe collection of samples: fully resident in
// in-memory mode, header-only with on-demand signal loading in lazy
// (Backend-backed) mode.
type Dataset struct {
	mu      sync.RWMutex
	headers map[string]*Header
	order   []string // insertion order for stable listings
	// signals holds the payloads in in-memory mode; nil in lazy mode.
	signals map[string]dsp.Signal
	// backend persists mutations and serves payloads in lazy mode.
	backend Backend
	cache   *signalCache
}

// New creates an empty in-memory dataset.
func New() *Dataset {
	return &Dataset{
		headers: map[string]*Header{},
		signals: map[string]dsp.Signal{},
	}
}

// Open creates a lazy dataset over a durable backend: committed headers
// are indexed in memory, signals load on demand through an LRU cache of
// cacheBytes decoded bytes (DefaultCacheBytes if <= 0).
func Open(b Backend, cacheBytes int64) (*Dataset, error) {
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	hs, err := b.Headers()
	if err != nil {
		return nil, fmt.Errorf("data: open backend: %w", err)
	}
	d := &Dataset{
		headers: make(map[string]*Header, len(hs)),
		backend: b,
		cache:   newSignalCache(cacheBytes),
	}
	for i := range hs {
		h := hs[i]
		if _, dup := d.headers[h.ID]; dup {
			return nil, fmt.Errorf("data: backend lists sample %s twice", h.ID)
		}
		d.headers[h.ID] = &h
		d.order = append(d.order, h.ID)
	}
	return d, nil
}

// Lazy reports whether the dataset loads signals from a backend on
// demand rather than holding them resident.
func (d *Dataset) Lazy() bool { return d.backend != nil }

// Add inserts a sample, assigning its content-addressed ID. Duplicate
// content (same label, name and signal) is rejected. In lazy mode the
// sample is durably persisted before Add returns.
func (d *Dataset) Add(s *Sample) (string, error) {
	if s.Label == "" {
		return "", fmt.Errorf("data: sample has no label")
	}
	if len(s.Signal.Data) == 0 {
		return "", fmt.Errorf("data: sample has no signal data")
	}
	if s.Category == "" {
		s.Category = Training
	}
	if s.AddedAt.IsZero() {
		s.AddedAt = time.Now()
	}
	id := s.hash()
	s.ID = id
	if d.backend == nil {
		// In-memory: no I/O, insert under one short critical section.
		d.mu.Lock()
		defer d.mu.Unlock()
		if _, dup := d.headers[id]; dup {
			return "", fmt.Errorf("data: %w %s", ErrDuplicate, id)
		}
		d.signals[id] = s.Signal
		d.headers[id] = s.header()
		d.order = append(d.order, id)
		return id, nil
	}
	// Lazy mode: keep the (fsyncing) backend append outside the dataset
	// lock so reads never queue behind upload I/O. The backend has its
	// own mutex and arbitrates racing duplicates.
	d.mu.RLock()
	_, dup := d.headers[id]
	d.mu.RUnlock()
	if dup {
		return "", fmt.Errorf("data: %w %s", ErrDuplicate, id)
	}
	if err := d.backend.Append(s); err != nil {
		if errors.Is(err, ErrDuplicate) {
			// A concurrent Add of identical content won the race.
			return "", fmt.Errorf("data: %w %s", ErrDuplicate, id)
		}
		return "", fmt.Errorf("data: persist sample %s: %w (%w)", id, ErrPersist, err)
	}
	d.cache.put(id, s.Signal)
	d.mu.Lock()
	d.headers[id] = s.header()
	d.order = append(d.order, id)
	d.mu.Unlock()
	return id, nil
}

// Get returns a materialized sample by ID, loading its signal from the
// backend if not cached.
func (d *Dataset) Get(id string) (*Sample, error) {
	d.mu.RLock()
	h, ok := d.headers[id]
	if !ok {
		d.mu.RUnlock()
		return nil, fmt.Errorf("data: no sample %s", id)
	}
	hc := *h
	var sig dsp.Signal
	if d.backend == nil {
		sig = d.signals[id]
		d.mu.RUnlock()
	} else {
		d.mu.RUnlock()
		var err error
		sig, err = d.loadSignal(id)
		if err != nil {
			return nil, err
		}
	}
	return &Sample{
		ID: hc.ID, Name: hc.Name, Label: hc.Label, Category: hc.Category,
		Signal: sig, Metadata: hc.Metadata, AddedAt: hc.AddedAt,
	}, nil
}

// loadSignal fetches a payload through the LRU cache (lazy mode only).
// Called without the dataset lock held: backend reads may hit disk.
func (d *Dataset) loadSignal(id string) (dsp.Signal, error) {
	if sig, ok := d.cache.get(id); ok {
		return sig, nil
	}
	sig, err := d.backend.LoadSignal(id)
	if err != nil {
		return dsp.Signal{}, fmt.Errorf("data: load sample %s: %w", id, err)
	}
	d.cache.put(id, sig)
	return sig, nil
}

// Remove deletes a sample by ID.
func (d *Dataset) Remove(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.headers[id]; !ok {
		return fmt.Errorf("data: no sample %s", id)
	}
	if d.backend != nil {
		if err := d.backend.Remove(id); err != nil {
			return fmt.Errorf("data: remove sample %s: %w", id, err)
		}
		d.cache.drop(id)
	} else {
		delete(d.signals, id)
	}
	delete(d.headers, id)
	for i, o := range d.order {
		if o == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return nil
}

// SetLabel relabels a sample (used by the active-learning loop).
func (d *Dataset) SetLabel(id, label string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.headers[id]
	if !ok {
		return fmt.Errorf("data: no sample %s", id)
	}
	if d.backend != nil {
		if err := d.backend.SetLabel(id, label); err != nil {
			return fmt.Errorf("data: relabel sample %s: %w", id, err)
		}
	}
	h.Label = label
	return nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.headers)
}

// List returns sample headers in insertion order, optionally filtered
// by category ("" = all). No signal payloads are loaded; use Get or
// Batches to materialize samples.
func (d *Dataset) List(cat Category) []Header {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Header, 0, len(d.order))
	for _, id := range d.order {
		h := d.headers[id]
		if cat == "" || h.Category == cat {
			out = append(out, *h)
		}
	}
	return out
}

// Batches returns a streaming iterator over materialized samples in the
// given category ("" = all), loading signals n at a time so feature
// extraction and training never hold the whole dataset resident.
func (d *Dataset) Batches(cat Category, n int) *Batches {
	if n <= 0 {
		n = 32
	}
	ids := make([]string, 0)
	d.mu.RLock()
	for _, id := range d.order {
		if cat == "" || d.headers[id].Category == cat {
			ids = append(ids, id)
		}
	}
	d.mu.RUnlock()
	return &Batches{d: d, ids: ids, n: n}
}

// Batches is a pull iterator over dataset samples; see Dataset.Batches.
type Batches struct {
	d   *Dataset
	ids []string
	n   int
	pos int
	err error
}

// Next returns the next batch of up to n materialized samples. It
// returns ok=false when the iteration is exhausted or a signal load
// failed; check Err afterwards.
func (b *Batches) Next() ([]*Sample, bool) {
	if b.err != nil {
		return nil, false
	}
	out := make([]*Sample, 0, b.n)
	for b.pos < len(b.ids) && len(out) < b.n {
		id := b.ids[b.pos]
		b.pos++
		s, err := b.d.Get(id)
		if err != nil {
			// Samples removed mid-iteration are skipped; load failures
			// stop the iteration.
			if _, still := b.d.header(id); !still {
				continue
			}
			b.err = err
			return nil, false
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, false
	}
	return out, true
}

// Err returns the first signal-load error encountered, if any.
func (b *Batches) Err() error { return b.err }

// header looks up a live header by ID.
func (d *Dataset) header(id string) (Header, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	h, ok := d.headers[id]
	if !ok {
		return Header{}, false
	}
	return *h, true
}

// Labels returns the distinct labels in sorted order.
func (d *Dataset) Labels() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	set := map[string]bool{}
	for _, h := range d.headers {
		set[h.Label] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Rebalance reassigns train/test categories so that close to testFraction
// of each label's samples land in the test split. The assignment is a
// deterministic function of sample IDs, so re-running it (or adding
// samples and re-running) never shuffles existing assignments randomly —
// the "maintaining train/validation/test splits" operational concern of
// paper Sec. 2.4. In lazy mode the changed assignments are persisted as
// one batch before the in-memory state updates.
func (d *Dataset) Rebalance(testFraction float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	byLabel := map[string][]*Header{}
	for _, id := range d.order {
		h := d.headers[id]
		byLabel[h.Label] = append(byLabel[h.Label], h)
	}
	want := map[string]Category{}
	for _, group := range byLabel {
		// Deterministic order: sort by ID (content hash).
		sort.Slice(group, func(i, j int) bool { return group[i].ID < group[j].ID })
		nTest := int(math.Round(testFraction * float64(len(group))))
		for i, h := range group {
			cat := Training
			if i < nTest {
				cat = Testing
			}
			if h.Category != cat {
				want[h.ID] = cat
			}
		}
	}
	if len(want) == 0 {
		return nil
	}
	if d.backend != nil {
		if err := d.backend.SetCategories(want); err != nil {
			return fmt.Errorf("data: rebalance: %w", err)
		}
	}
	for id, cat := range want {
		d.headers[id].Category = cat
	}
	return nil
}

// LabelStat summarizes one class.
type LabelStat struct {
	// Label is the class name.
	Label string
	// Training and Testing count samples per split.
	Training int
	Testing  int
	// Seconds of time-series data (0 for images).
	Seconds float64
}

// Stats returns per-label counts and durations, sorted by label — the
// data the platform's class-allocation view shows.
func (d *Dataset) Stats() []LabelStat {
	d.mu.RLock()
	defer d.mu.RUnlock()
	byLabel := map[string]*LabelStat{}
	for _, h := range d.headers {
		st, ok := byLabel[h.Label]
		if !ok {
			st = &LabelStat{Label: h.Label}
			byLabel[h.Label] = st
		}
		if h.Category == Testing {
			st.Testing++
		} else {
			st.Training++
		}
		st.Seconds += h.Seconds()
	}
	out := make([]LabelStat, 0, len(byLabel))
	for _, st := range byLabel {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// Version returns a content hash over all sample IDs and labels: any
// addition, removal or relabeling changes the version. This is the
// dataset half of the project versioning story (paper Sec. 2.4, 3). The
// hash is a pure function of dataset content, so an in-memory dataset
// and its store-backed migration report the same version.
func (d *Dataset) Version() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := append([]string(nil), d.order...)
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		io.WriteString(h, id)
		io.WriteString(h, "=")
		io.WriteString(h, d.headers[id].Label)
		io.WriteString(h, ";")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ImportWAV ingests a WAV file as one labeled audio sample.
func (d *Dataset) ImportWAV(name, label string, r io.Reader) (string, error) {
	a, err := wav.Decode(r)
	if err != nil {
		return "", err
	}
	return d.Add(&Sample{
		Name:  name,
		Label: label,
		Signal: dsp.Signal{
			Data: a.Samples, Rate: a.Rate, Axes: a.Channels,
		},
	})
}

// ImportCSV ingests a CSV time series: first column is a timestamp in
// milliseconds, remaining columns are sensor axes. A header row is
// skipped if non-numeric.
func (d *Dataset) ImportCSV(name, label string, r io.Reader) (string, error) {
	rd := csv.NewReader(r)
	rows, err := rd.ReadAll()
	if err != nil {
		return "", fmt.Errorf("data: csv: %w", err)
	}
	if len(rows) == 0 {
		return "", fmt.Errorf("data: csv is empty")
	}
	start := 0
	if _, err := strconv.ParseFloat(rows[0][0], 64); err != nil {
		start = 1 // header
	}
	if len(rows)-start < 2 {
		return "", fmt.Errorf("data: csv has %d data rows, need >= 2", len(rows)-start)
	}
	axes := len(rows[start]) - 1
	if axes < 1 {
		return "", fmt.Errorf("data: csv needs timestamp plus at least one axis")
	}
	var data []float32
	var t0, t1 float64
	for i := start; i < len(rows); i++ {
		row := rows[i]
		if len(row) != axes+1 {
			return "", fmt.Errorf("data: csv row %d has %d columns, want %d", i, len(row), axes+1)
		}
		ts, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return "", fmt.Errorf("data: csv row %d timestamp: %w", i, err)
		}
		if i == start {
			t0 = ts
		}
		t1 = ts
		for a := 1; a <= axes; a++ {
			v, err := strconv.ParseFloat(row[a], 64)
			if err != nil {
				return "", fmt.Errorf("data: csv row %d col %d: %w", i, a, err)
			}
			data = append(data, float32(v))
		}
	}
	n := len(rows) - start
	rate := 0
	if t1 > t0 {
		rate = int(float64(n-1) / ((t1 - t0) / 1000))
	}
	return d.Add(&Sample{
		Name:   name,
		Label:  label,
		Signal: dsp.Signal{Data: data, Rate: rate, Axes: axes},
	})
}

// ImportAcquisition ingests a signed JSON/CBOR acquisition document,
// verifying its HMAC signature first.
func (d *Dataset) ImportAcquisition(name, label string, doc []byte, hmacKey string) (string, error) {
	p, err := ingest.Verify(doc, hmacKey)
	if err != nil {
		return "", err
	}
	s := &Sample{Name: name, Label: label, Signal: p.Signal(), Metadata: map[string]string{
		"device_name": p.DeviceName,
		"device_type": p.DeviceType,
	}}
	return d.Add(s)
}

// ImportImage ingests a PNG or JPG image as an RGB sample.
func (d *Dataset) ImportImage(name, label string, r io.Reader) (string, error) {
	img, _, err := image.Decode(r)
	if err != nil {
		return "", fmt.Errorf("data: image: %w", err)
	}
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	pix := make([]float32, 0, w*h*3)
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r16, g16, b16, _ := img.At(x, y).RGBA()
			pix = append(pix, float32(r16>>8), float32(g16>>8), float32(b16>>8))
		}
	}
	return d.Add(&Sample{
		Name:   name,
		Label:  label,
		Signal: dsp.Signal{Data: pix, Axes: 3, Width: w, Height: h},
	})
}

// Package store implements the durable, segmented, content-addressed
// dataset storage engine behind lazy data.Dataset instances (paper Sec.
// 4.1: continuous ingestion from device fleets, datasets larger than
// RAM). Samples append to CRC-framed CBOR segment files; a compact
// manifest — an atomically-snapshotted header index plus an append-only
// journal — records where every sample lives and carries a monotonic
// version counter. All writes are atomic (temp-file + rename or framed
// append + fsync) and partially-written tails are truncated on
// recovery, so a crash at any byte loses at most the record being
// written. Persisting one upload costs O(sample), not O(dataset).
//
// The package also provides Spool, a crash-safe upload spool built on
// the same framed-log format, used by ei-daemon to survive interrupted
// ingestion sessions. The byte-level format specification lives in
// docs/STORAGE.md.
package store

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"edgepulse/internal/cbor"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/faults"
)

// FaultAppend is the registered fault point fired inside Append, after
// validation but before any byte reaches the segment; chaos tests arm it
// to simulate I/O failures on the persistence hot path.
const FaultAppend = "store.append"

// Default tuning knobs.
const (
	// DefaultSegmentBytes is the segment roll threshold.
	DefaultSegmentBytes = 8 << 20
	// DefaultSnapshotEvery is how many journal records accumulate
	// before the manifest is snapshotted and the journal truncated.
	DefaultSnapshotEvery = 1024
)

// Options tunes a Store. The zero value selects defaults.
type Options struct {
	// SegmentBytes rolls the active segment when it would exceed this
	// size (DefaultSegmentBytes if <= 0).
	SegmentBytes int64
	// SnapshotEvery compacts the manifest journal into a snapshot
	// after this many journal records (DefaultSnapshotEvery if <= 0).
	SnapshotEvery int
	// NoSync skips fsync on appends. Only for benchmarks measuring
	// pure write-path cost; crash safety requires syncing.
	NoSync bool
}

// Store is a durable segmented dataset store. It implements
// data.Backend, so data.Open(st, 0) yields a lazy dataset over it.
type Store struct {
	dir string
	opt Options
	// replica marks a read-only standby opened via OpenReplica: local
	// mutations are rejected and state advances only through the
	// replication apply methods (replication.go).
	replica bool

	// mu guards all mutable state. Segment reads happen outside the
	// lock: read handles stay open until Close and ReadAt is
	// position-independent.
	mu      sync.Mutex
	recs    map[string]*rec
	order   []string
	version uint64 // committed operation counter (monotonic)
	// snapVersion is the version the loaded manifest snapshot was taken
	// at: journal ops stamped <= snapVersion are already reflected in
	// the snapshot and are skipped on replay (a crash between the
	// manifest rename and the journal truncation leaves them behind).
	snapVersion uint64

	seg     *os.File // active segment, opened for append
	segIdx  int
	segEnd  int64
	readers map[int]*os.File

	journal     *os.File
	journalEnd  int64
	journalRecs int
	frameBuf    []byte
}

func (s *Store) lock()   { s.mu.Lock() }
func (s *Store) unlock() { s.mu.Unlock() }

// manifest is the JSON snapshot schema of manifest.json.
type manifest struct {
	// Format is the manifest schema version.
	Format int `json:"format"`
	// Version is the committed operation counter at snapshot time.
	Version uint64 `json:"version"`
	// Segment is the active (highest) segment index.
	Segment int `json:"segment"`
	// Samples lists committed sample headers in insertion order.
	Samples []manifestSample `json:"samples"`
}

// manifestSample is one sample header + location in manifest.json.
type manifestSample struct {
	ID       string            `json:"id"`
	Name     string            `json:"name,omitempty"`
	Label    string            `json:"label"`
	Category string            `json:"category"`
	Metadata map[string]string `json:"metadata,omitempty"`
	AddedNS  int64             `json:"added_ns"`
	Rate     int               `json:"rate,omitempty"`
	Axes     int               `json:"axes"`
	Width    int               `json:"width,omitempty"`
	Height   int               `json:"height,omitempty"`
	Frames   int               `json:"frames"`
	Loc      location          `json:"loc"`
}

// manifestFormat is the current manifest.json schema version.
const manifestFormat = 1

// File names inside a store directory.
const (
	manifestName = "manifest.json"
	journalName  = "journal.log"
	segmentDir   = "segments"
)

// segmentName renders a 1-based segment index as its file name.
func segmentName(idx int) string { return fmt.Sprintf("seg-%06d.seg", idx) }

// Open opens (creating if necessary) a store rooted at dir, running
// crash recovery: the manifest snapshot is loaded, the journal's
// committed prefix replayed (torn tail truncated), and any
// uncommitted bytes at the active segment's tail discarded.
func Open(dir string, opt Options) (*Store, error) {
	return open(dir, opt, false)
}

func open(dir string, opt Options, replica bool) (*Store, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.SnapshotEvery <= 0 {
		opt.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(filepath.Join(dir, segmentDir), 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir: dir, opt: opt, replica: replica,
		recs:    map[string]*rec{},
		readers: map[int]*os.File{},
		segIdx:  1,
	}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	if err := s.openActiveSegment(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// loadManifest reads manifest.json if present.
func (s *Store) loadManifest() error {
	blob, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	m, err := parseManifest(blob)
	if err != nil {
		return fmt.Errorf("store: %s: %w", manifestName, err)
	}
	s.version = m.Version
	s.snapVersion = m.Version
	if m.Segment > 0 {
		s.segIdx = m.Segment
	}
	for _, ms := range m.Samples {
		r := &rec{
			h: data.Header{
				ID: ms.ID, Name: ms.Name, Label: ms.Label,
				Category: data.Category(ms.Category),
				Metadata: ms.Metadata, AddedAt: timeFromNS(ms.AddedNS),
				Shape: data.SignalShape{
					Rate: ms.Rate, Axes: ms.Axes,
					Width: ms.Width, Height: ms.Height, Frames: ms.Frames,
				},
			},
			loc: ms.Loc,
		}
		if _, dup := s.recs[r.h.ID]; dup {
			return fmt.Errorf("store: %s lists sample %s twice", manifestName, r.h.ID)
		}
		s.recs[r.h.ID] = r
		s.order = append(s.order, r.h.ID)
	}
	return nil
}

// replayJournal applies the journal's committed operations on top of
// the snapshot and truncates any torn tail.
func (s *Store) replayJournal() error {
	j, end, err := openLog(filepath.Join(s.dir, journalName), func(payload []byte, off int64) error {
		s.journalRecs++
		return s.applyJournal(payload)
	})
	if err != nil {
		return err
	}
	s.journal = j
	s.journalEnd = end
	return nil
}

// applyJournal applies one committed journal operation to the index.
func (s *Store) applyJournal(payload []byte) error {
	v, err := cbor.Unmarshal(payload)
	if err != nil {
		return fmt.Errorf("store: journal record: %w", err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("store: journal record is %T, want map", v)
	}
	// Each op is stamped with the version it commits; ops at or below
	// the snapshot version are already folded into the manifest (the
	// journal outlived a snapshot whose truncation never happened).
	if v := asInt(m["v"]); v > 0 && uint64(v) <= s.snapVersion {
		return nil
	}
	switch op := asString(m["op"]); op {
	case opAdd:
		hm, ok := m["h"].(map[string]any)
		if !ok {
			return fmt.Errorf("store: add record without header")
		}
		r, err := parseHeaderMap(hm)
		if err != nil {
			return err
		}
		if _, dup := s.recs[r.h.ID]; dup {
			return fmt.Errorf("store: journal adds sample %s twice", r.h.ID)
		}
		s.recs[r.h.ID] = &r
		s.order = append(s.order, r.h.ID)
		if r.loc.Segment > s.segIdx {
			s.segIdx = r.loc.Segment
		}
	case opRemove:
		id := asString(m["id"])
		if _, ok := s.recs[id]; !ok {
			return fmt.Errorf("store: journal removes unknown sample %s", id)
		}
		delete(s.recs, id)
		for i, o := range s.order {
			if o == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	case opLabel:
		r, ok := s.recs[asString(m["id"])]
		if !ok {
			return fmt.Errorf("store: journal relabels unknown sample %s", asString(m["id"]))
		}
		r.h.Label = asString(m["label"])
	case opCats:
		cm, ok := m["m"].(map[string]any)
		if !ok {
			return fmt.Errorf("store: cats record without map")
		}
		for id, cat := range cm {
			if r, ok := s.recs[id]; ok {
				r.h.Category = data.Category(asString(cat))
			}
		}
	default:
		return fmt.Errorf("store: unknown journal op %q", op)
	}
	s.version++
	return nil
}

// openActiveSegment opens the highest segment for appending and
// truncates uncommitted bytes past the last manifest-referenced record
// — the partially-written tail a crash mid-append leaves behind.
func (s *Store) openActiveSegment() error {
	// The active segment is the highest of: manifest/journal references
	// and files already on disk (a crash can create a fresh segment
	// before any record commits into it).
	if onDisk := s.highestSegmentOnDisk(); onDisk > s.segIdx {
		s.segIdx = onDisk
	}
	committed := int64(logMagicLen)
	for _, r := range s.recs {
		if r.loc.Segment == s.segIdx && r.loc.end() > committed {
			committed = r.loc.end()
		}
	}
	path := filepath.Join(s.dir, segmentDir, segmentName(s.segIdx))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	switch {
	case st.Size() < logMagicLen:
		// New or torn-at-creation segment: (re)write the header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		if _, err := f.WriteAt(logMagic(), 0); err != nil {
			f.Close()
			return err
		}
		committed = logMagicLen
	case st.Size() > committed:
		if s.replica {
			// A replica's segments legitimately run past the last indexed
			// record: committed bytes ship ahead of their journal ops, and
			// the primary only ever ships committed (immutable) ranges.
			committed = st.Size()
			break
		}
		// Uncommitted tail (torn append, or an append whose journal
		// record never committed): discard it.
		if err := f.Truncate(committed); err != nil {
			f.Close()
			return err
		}
	}
	if err := s.syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(filepath.Join(s.dir, segmentDir)); err != nil {
		f.Close()
		return err
	}
	magic := make([]byte, logMagicLen)
	if _, err := f.ReadAt(magic, 0); err != nil {
		f.Close()
		return err
	}
	if err := checkMagic(magic); err != nil {
		f.Close()
		return fmt.Errorf("store: %s: %w", segmentName(s.segIdx), err)
	}
	s.seg = f
	s.segEnd = committed
	s.readers[s.segIdx] = f
	return nil
}

// highestSegmentOnDisk scans the segments directory.
func (s *Store) highestSegmentOnDisk() int {
	entries, err := os.ReadDir(filepath.Join(s.dir, segmentDir))
	if err != nil {
		return 0
	}
	max := 0
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.seg", &idx); err == nil && idx > max {
			max = idx
		}
	}
	return max
}

// syncFile fsyncs unless the store runs with NoSync.
func (s *Store) syncFile(f *os.File) error {
	if s.opt.NoSync {
		return nil
	}
	return f.Sync()
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Committed returns the monotonic count of committed operations — the
// dataset's durable version counter. It survives restarts via the
// manifest snapshot and journal replay.
func (s *Store) Committed() uint64 {
	s.lock()
	defer s.unlock()
	return s.version
}

// Len returns the number of committed samples.
func (s *Store) Len() int {
	s.lock()
	defer s.unlock()
	return len(s.recs)
}

// Headers returns committed sample headers in insertion order
// (data.Backend).
func (s *Store) Headers() ([]data.Header, error) {
	s.lock()
	defer s.unlock()
	out := make([]data.Header, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.recs[id].h)
	}
	return out, nil
}

// LoadSignal reads, CRC-checks and decodes one sample's signal payload
// from its segment (data.Backend).
func (s *Store) LoadSignal(id string) (dsp.Signal, error) {
	s.lock()
	r, ok := s.recs[id]
	if !ok {
		s.unlock()
		return dsp.Signal{}, fmt.Errorf("store: no sample %s", id)
	}
	loc, shape := r.loc, r.h.Shape
	f, err := s.segmentReader(loc.Segment)
	s.unlock()
	if err != nil {
		return dsp.Signal{}, err
	}
	payload, _, err := readFrame(f, loc.Offset, loc.end())
	if err != nil {
		return dsp.Signal{}, fmt.Errorf("store: sample %s at seg %d off %d: %w", id, loc.Segment, loc.Offset, err)
	}
	sample, err := decodeSample(payload)
	if err != nil {
		return dsp.Signal{}, err
	}
	if sample.ID != id {
		return dsp.Signal{}, fmt.Errorf("store: sample %s record holds %s (index corruption)", id, sample.ID)
	}
	if got := shapeOf(sample.Signal); got != shape {
		return dsp.Signal{}, fmt.Errorf("store: sample %s record has shape %+v, header %+v", id, got, shape)
	}
	return sample.Signal, nil
}

// segmentReader returns an open read handle for a segment, opening and
// caching it on first use. Replicas open read-write (and create on
// demand) so ApplySegmentChunk can extend any segment through the same
// cached handle. Caller holds the lock.
func (s *Store) segmentReader(idx int) (*os.File, error) {
	if f, ok := s.readers[idx]; ok {
		return f, nil
	}
	path := filepath.Join(s.dir, segmentDir, segmentName(idx))
	var f *os.File
	var err error
	if s.replica {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	} else {
		f, err = os.Open(path)
	}
	if err != nil {
		return nil, err
	}
	s.readers[idx] = f
	return f, nil
}

// Append durably persists a new sample (data.Backend): one framed
// append to the active segment plus one journal record — O(sample)
// work regardless of dataset size.
func (s *Store) Append(sample *data.Sample) error {
	if err := checkShape(sample.Signal); err != nil {
		return err
	}
	payload, err := encodeSample(sample)
	if err != nil {
		return err
	}
	s.lock()
	defer s.unlock()
	if s.replica {
		return ErrReplica
	}
	if s.seg == nil {
		return fmt.Errorf("store: closed")
	}
	if _, dup := s.recs[sample.ID]; dup {
		return fmt.Errorf("store: %w %s", data.ErrDuplicate, sample.ID)
	}
	if err := faults.Inject(FaultAppend); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if s.segEnd > logMagicLen && s.segEnd+frameSize(len(payload)) > s.opt.SegmentBytes {
		if err := s.rollSegment(); err != nil {
			return err
		}
	}
	s.frameBuf = appendFrame(s.frameBuf, payload)
	off := s.segEnd
	if _, err := s.seg.WriteAt(s.frameBuf, off); err != nil {
		return err
	}
	if err := s.syncFile(s.seg); err != nil {
		return err
	}
	loc := location{Segment: s.segIdx, Offset: off, Length: int64(len(payload))}
	r := rec{h: *sampleHeader(sample), loc: loc}
	if err := s.appendJournal(map[string]any{"op": opAdd, "h": headerMap(r.h, loc)}); err != nil {
		// The segment bytes are uncommitted without the journal record;
		// recovery truncates them on next open. Leave segEnd unchanged
		// so a retry overwrites them.
		return err
	}
	s.segEnd = loc.end()
	s.recs[sample.ID] = &r
	s.order = append(s.order, sample.ID)
	s.maybeSnapshotLocked()
	return nil
}

// sampleHeader derives the header index entry for a sample.
func sampleHeader(sample *data.Sample) *data.Header {
	return &data.Header{
		ID: sample.ID, Name: sample.Name, Label: sample.Label,
		Category: sample.Category, Metadata: sample.Metadata,
		AddedAt: sample.AddedAt, Shape: shapeOf(sample.Signal),
	}
}

// rollSegment finalizes the active segment and starts the next one.
// Caller holds the lock.
func (s *Store) rollSegment() error {
	if err := s.syncFile(s.seg); err != nil {
		return err
	}
	idx := s.segIdx + 1
	path := filepath.Join(s.dir, segmentDir, segmentName(idx))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(logMagic(), 0); err != nil {
		f.Close()
		return err
	}
	if err := s.syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(filepath.Join(s.dir, segmentDir)); err != nil {
		f.Close()
		return err
	}
	s.seg = f
	s.segIdx = idx
	s.segEnd = logMagicLen
	s.readers[idx] = f
	return nil
}

// appendJournal frames and fsyncs one manifest operation, bumping the
// committed version counter. Caller holds the lock.
func (s *Store) appendJournal(op map[string]any) error {
	op["v"] = int64(s.version + 1)
	payload, err := cbor.Marshal(op)
	if err != nil {
		return err
	}
	frame := appendFrame(nil, payload)
	// WriteAt against the tracked end: the journal handle's file
	// offset is unreliable after a recovery scan (ReadAt moves
	// nothing), and must never clobber the header.
	if _, err := s.journal.WriteAt(frame, s.journalEnd); err != nil {
		return err
	}
	if err := s.syncFile(s.journal); err != nil {
		return err
	}
	s.journalEnd += int64(len(frame))
	s.journalRecs++
	s.version++
	return nil
}

// Remove durably deletes a sample (data.Backend). Its segment bytes
// become garbage, reclaimed when the segment is eventually dropped.
func (s *Store) Remove(id string) error {
	s.lock()
	defer s.unlock()
	if s.replica {
		return ErrReplica
	}
	if _, ok := s.recs[id]; !ok {
		return fmt.Errorf("store: no sample %s", id)
	}
	if err := s.appendJournal(map[string]any{"op": opRemove, "id": id}); err != nil {
		return err
	}
	delete(s.recs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.maybeSnapshotLocked()
	return nil
}

// SetLabel durably relabels a sample (data.Backend).
func (s *Store) SetLabel(id, label string) error {
	s.lock()
	defer s.unlock()
	if s.replica {
		return ErrReplica
	}
	r, ok := s.recs[id]
	if !ok {
		return fmt.Errorf("store: no sample %s", id)
	}
	if err := s.appendJournal(map[string]any{"op": opLabel, "id": id, "label": label}); err != nil {
		return err
	}
	r.h.Label = label
	s.maybeSnapshotLocked()
	return nil
}

// SetCategories durably reassigns split categories as one journal
// record (data.Backend) — a rebalance over N samples costs one fsync.
func (s *Store) SetCategories(cats map[string]data.Category) error {
	if len(cats) == 0 {
		return nil
	}
	s.lock()
	defer s.unlock()
	if s.replica {
		return ErrReplica
	}
	m := make(map[string]any, len(cats))
	for id, cat := range cats {
		if _, ok := s.recs[id]; !ok {
			return fmt.Errorf("store: no sample %s", id)
		}
		m[id] = string(cat)
	}
	if err := s.appendJournal(map[string]any{"op": opCats, "m": m}); err != nil {
		return err
	}
	for id, cat := range cats {
		s.recs[id].h.Category = cat
	}
	s.maybeSnapshotLocked()
	return nil
}

// maybeSnapshotLocked compacts the journal into a manifest snapshot
// once enough operations accumulate. Compaction is an optimization of
// an already-committed operation, so failure is logged and retried on
// the next mutation (journalRecs stays above the threshold) rather
// than reported to the caller — returning it would make a durably
// committed write look failed and desynchronize callers' indexes.
// Caller holds the lock.
func (s *Store) maybeSnapshotLocked() {
	if s.journalRecs < s.opt.SnapshotEvery {
		return
	}
	if err := s.snapshotLocked(); err != nil {
		slog.Error("store: journal compaction failed (will retry on next mutation)",
			"dir", s.dir, "err", err)
	}
}

// Snapshot forces a manifest snapshot + journal truncation. The store
// stays fully consistent if the process dies at any point: the rename
// is atomic and the journal only truncates after the snapshot is
// durable.
func (s *Store) Snapshot() error {
	s.lock()
	defer s.unlock()
	return s.snapshotLocked()
}

// currentManifestLocked renders the in-memory index as a manifest
// snapshot of the current version. Caller holds the lock.
func (s *Store) currentManifestLocked() manifest {
	m := manifest{Format: manifestFormat, Version: s.version, Segment: s.segIdx}
	for _, id := range s.order {
		r := s.recs[id]
		m.Samples = append(m.Samples, manifestSample{
			ID: r.h.ID, Name: r.h.Name, Label: r.h.Label,
			Category: string(r.h.Category), Metadata: r.h.Metadata,
			AddedNS: r.h.AddedAt.UnixNano(),
			Rate:    r.h.Shape.Rate, Axes: r.h.Shape.Axes,
			Width: r.h.Shape.Width, Height: r.h.Shape.Height,
			Frames: r.h.Shape.Frames,
			Loc:    r.loc,
		})
	}
	return m
}

func (s *Store) snapshotLocked() error {
	blob, err := renderManifest(s.currentManifestLocked())
	if err != nil {
		return err
	}
	if err := AtomicWriteFile(filepath.Join(s.dir, manifestName), blob); err != nil {
		return err
	}
	// Snapshot durable: the journal's content is now redundant.
	if err := s.journal.Truncate(logMagicLen); err != nil {
		return err
	}
	if err := s.syncFile(s.journal); err != nil {
		return err
	}
	s.journalEnd = logMagicLen
	s.journalRecs = 0
	// The manifest now reflects everything up to the current version:
	// journal records at or below it are retired, which is also the
	// replication retention horizon (see JournalSince).
	s.snapVersion = s.version
	return nil
}

// Close snapshots the manifest and releases all file handles.
func (s *Store) Close() error {
	s.lock()
	defer s.unlock()
	if s.seg == nil {
		return nil
	}
	err := s.snapshotLocked()
	s.closeFiles()
	return err
}

// closeFiles releases every open handle. Caller holds the lock (or has
// exclusive access during a failed Open).
func (s *Store) closeFiles() {
	for _, f := range s.readers {
		f.Close()
	}
	s.readers = map[int]*os.File{}
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	s.seg = nil
}

// Segments returns the segment file indices currently on disk, sorted
// — for tests and operational introspection.
func (s *Store) Segments() []int {
	s.lock()
	defer s.unlock()
	entries, err := os.ReadDir(filepath.Join(s.dir, segmentDir))
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.seg", &idx); err == nil {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

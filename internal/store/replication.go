package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"edgepulse/internal/cbor"
)

// Replication layer: a primary Store exposes its committed state as
// shippable byte ranges (segment bytes are immutable once committed;
// journal records are version-stamped CRC frames), and a replica Store
// opened with OpenReplica applies those bytes verbatim. Because the
// follower receives the primary's exact frames, every integrity check
// the format already has — magic headers, per-record CRCs, the
// version-stamped journal — holds on the standby too, and the dataset
// content hash (data.Dataset.Version) over a caught-up replica equals
// the primary's by construction.
//
// Protocol (pull-based, driven by the follower):
//
//  1. fetch ReplicationState → version V and per-segment committed sizes
//     as of V (one atomic snapshot under the store lock);
//  2. ship each segment's missing byte range up to its size-at-V
//     (committed bytes never change, so over-fetching past the
//     follower's cursor is safe — only under-fetching is not);
//  3. fetch JournalSince(cursor, V) and apply the frames: every opAdd
//     location now references bytes shipped in step 2.
//
// If the cursor predates the primary's last manifest snapshot the
// journal no longer holds the needed records (compaction truncated
// them) and JournalSince reports ErrReplicationGap: the follower
// bootstraps instead — ManifestBlob first, then state, then full
// segment copies — and resumes the incremental loop from the manifest
// version.

// ErrReplicationGap reports a JournalSince cursor older than the
// retained journal: the records were compacted into a manifest
// snapshot, so the follower must bootstrap from ManifestBlob + full
// segment copies instead of tailing.
var ErrReplicationGap = errors.New("store: replication cursor predates retained journal (snapshot bootstrap required)")

// ErrReplica reports a mutation attempted on a read-only replica store.
var ErrReplica = errors.New("store: read-only replica")

// ReplSegment is one segment's committed size in a replication state
// snapshot.
type ReplSegment struct {
	Index int
	Size  int64
}

// ReplState is a point-in-time replication snapshot: the committed
// version counter, the version of the last manifest snapshot (the
// journal retention horizon), and every segment's committed size at
// that version.
type ReplState struct {
	Version     uint64
	SnapVersion uint64
	Segments    []ReplSegment
}

// ReplicationState captures the store's current replication snapshot.
// Version and the segment sizes are read under one lock acquisition, so
// the sizes are exactly the committed sizes at Version.
func (s *Store) ReplicationState() (ReplState, error) {
	s.lock()
	defer s.unlock()
	if s.seg == nil {
		return ReplState{}, fmt.Errorf("store: closed")
	}
	st := ReplState{Version: s.version, SnapVersion: s.snapVersion}
	entries, err := os.ReadDir(filepath.Join(s.dir, segmentDir))
	if err != nil {
		return ReplState{}, err
	}
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.seg", &idx); err != nil {
			continue
		}
		size, err := s.committedSizeLocked(idx)
		if err != nil {
			return ReplState{}, err
		}
		st.Segments = append(st.Segments, ReplSegment{Index: idx, Size: size})
	}
	sort.Slice(st.Segments, func(i, j int) bool { return st.Segments[i].Index < st.Segments[j].Index })
	return st, nil
}

// committedSizeLocked returns a segment's committed byte count: the
// tracked append cursor for the active segment (its file may briefly
// hold uncommitted tail bytes mid-append), the on-disk size for sealed
// segments. Caller holds the lock.
func (s *Store) committedSizeLocked(idx int) (int64, error) {
	if idx == s.segIdx {
		return s.segEnd, nil
	}
	st, err := os.Stat(filepath.Join(s.dir, segmentDir, segmentName(idx)))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// SegmentReader returns a reader over the committed bytes of segment
// idx starting at offset from, plus the committed size the range runs
// to. Committed segment bytes are immutable, so the read happens
// outside the store lock; the range endpoint is fixed under it.
func (s *Store) SegmentReader(idx int, from int64) (io.Reader, int64, error) {
	s.lock()
	if s.seg == nil {
		s.unlock()
		return nil, 0, fmt.Errorf("store: closed")
	}
	limit, err := s.committedSizeLocked(idx)
	if err != nil {
		s.unlock()
		return nil, 0, err
	}
	f, err := s.segmentReader(idx)
	s.unlock()
	if err != nil {
		return nil, 0, err
	}
	if from < 0 || from > limit {
		return nil, 0, fmt.Errorf("store: segment %d offset %d outside committed range [0,%d]", idx, from, limit)
	}
	return io.NewSectionReader(f, from, limit-from), limit, nil
}

// JournalSince returns the raw journal frames (CRC framing intact) for
// operations with version in (cursor, upto], along with the version of
// the last frame returned. upto == 0 means "through the current
// version". A cursor below the last snapshot's version reports
// ErrReplicationGap: those records were compacted away.
func (s *Store) JournalSince(cursor, upto uint64) ([]byte, uint64, error) {
	s.lock()
	defer s.unlock()
	if s.journal == nil {
		return nil, cursor, fmt.Errorf("store: closed")
	}
	if cursor < s.snapVersion {
		return nil, cursor, fmt.Errorf("%w: cursor %d, snapshot at %d", ErrReplicationGap, cursor, s.snapVersion)
	}
	if upto == 0 || upto > s.version {
		upto = s.version
	}
	if cursor >= upto {
		return nil, cursor, nil
	}
	// The journal is bounded by SnapshotEvery small header records, and
	// compaction truncates it under this same lock, so snapshot the whole
	// region in memory rather than racing a concurrent truncate.
	region := make([]byte, s.journalEnd-logMagicLen)
	if _, err := s.journal.ReadAt(region, logMagicLen); err != nil {
		return nil, cursor, err
	}
	var out []byte
	last := cursor
	br := bytes.NewReader(region)
	size := int64(len(region))
	for off := int64(0); off < size; {
		payload, next, err := readFrame(br, off, size)
		if err != nil {
			return nil, cursor, fmt.Errorf("store: journal frame at %d: %w", off+logMagicLen, err)
		}
		v, err := journalFrameVersion(payload)
		if err != nil {
			return nil, cursor, err
		}
		if v > cursor && v <= upto {
			if len(out) > 0 && v != last+1 {
				return nil, cursor, fmt.Errorf("store: journal version gap: %d follows %d", v, last)
			}
			out = append(out, region[off:next]...)
			last = v
		}
		off = next
	}
	return out, last, nil
}

// journalFrameVersion decodes the version stamp of one journal payload.
func journalFrameVersion(payload []byte) (uint64, error) {
	val, err := cbor.Unmarshal(payload)
	if err != nil {
		return 0, fmt.Errorf("store: journal record: %w", err)
	}
	m, ok := val.(map[string]any)
	if !ok {
		return 0, fmt.Errorf("store: journal record is %T, want map", val)
	}
	v := asInt(m["v"])
	if v <= 0 {
		return 0, fmt.Errorf("store: journal record has no version stamp")
	}
	return uint64(v), nil
}

// ManifestBlob renders the manifest snapshot of the current state
// without compacting the journal, and reports the version it captures —
// the bootstrap payload a follower writes as its manifest.json before
// copying segments.
func (s *Store) ManifestBlob() ([]byte, uint64, error) {
	s.lock()
	defer s.unlock()
	if s.seg == nil {
		return nil, 0, fmt.Errorf("store: closed")
	}
	blob, err := renderManifest(s.currentManifestLocked())
	if err != nil {
		return nil, 0, err
	}
	return blob, s.version, nil
}

// PrepareBootstrap initializes dir for a replica snapshot bootstrap:
// the directory tree is created and the primary's manifest blob lands
// as manifest.json. Full segment copies go to SegmentPath before
// OpenReplica loads the tree.
func PrepareBootstrap(dir string, manifest []byte) error {
	if err := os.MkdirAll(filepath.Join(dir, segmentDir), 0o755); err != nil {
		return err
	}
	return AtomicWriteFile(filepath.Join(dir, manifestName), manifest)
}

// SegmentPath returns the file path of segment idx under a store root —
// where a bootstrap writes its full segment copies.
func SegmentPath(dir string, idx int) string {
	return filepath.Join(dir, segmentDir, segmentName(idx))
}

// OpenReplica opens dir as a read-only standby store: mutations
// (Append, Remove, SetLabel, SetCategories) are rejected with
// ErrReplica, and state advances only through ApplySegmentChunk and
// ApplyJournalFrames feeding it a primary's replicated bytes. Unlike
// Open it never truncates segment tails — a replica legitimately holds
// committed bytes shipped ahead of their journal records.
func OpenReplica(dir string, opt Options) (*Store, error) {
	return open(dir, opt, true)
}

// Replica reports whether the store is a read-only standby.
func (s *Store) Replica() bool { return s.replica }

// ApplySegmentChunk appends replicated segment bytes at offset off in
// segment idx. Writes must be sequential per segment: off may not skip
// past the segment's current size; overlapping prefixes already present
// are ignored (idempotent redelivery). A chunk starting a new segment
// must begin with the framed-log magic header.
func (s *Store) ApplySegmentChunk(idx int, off int64, b []byte) error {
	s.lock()
	defer s.unlock()
	if !s.replica {
		return fmt.Errorf("store: ApplySegmentChunk on a primary store")
	}
	if s.seg == nil {
		return fmt.Errorf("store: closed")
	}
	if idx <= 0 {
		return fmt.Errorf("store: bad segment index %d", idx)
	}
	f, err := s.segmentReader(idx)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if off > size {
		return fmt.Errorf("store: segment %d chunk at %d skips past size %d", idx, off, size)
	}
	if off < size {
		skip := size - off
		if skip >= int64(len(b)) {
			return nil // fully redelivered
		}
		b = b[skip:]
		off = size
	}
	if off == 0 {
		if len(b) < logMagicLen {
			return fmt.Errorf("store: segment %d initial chunk shorter than header", idx)
		}
		if err := checkMagic(b[:logMagicLen]); err != nil {
			return fmt.Errorf("store: segment %d: %w", idx, err)
		}
	}
	if _, err := f.WriteAt(b, off); err != nil {
		return err
	}
	if err := s.syncFile(f); err != nil {
		return err
	}
	if idx >= s.segIdx {
		s.seg = f
		s.segIdx = idx
		s.segEnd = off + int64(len(b))
	}
	return nil
}

// ApplyJournalFrames verifies and applies a batch of replicated journal
// frames (as returned by a primary's JournalSince): each frame's CRC is
// checked, its version stamp must extend the replica's committed
// version contiguously (already-applied versions are skipped for
// idempotent redelivery), and the raw frame bytes land in the replica's
// own journal before the operation mutates the index. A frame the index
// refuses is cut from the journal again; the frames before it stay
// applied. Returns the new committed version.
func (s *Store) ApplyJournalFrames(frames []byte) (uint64, error) {
	s.lock()
	defer s.unlock()
	if !s.replica {
		return s.version, fmt.Errorf("store: ApplyJournalFrames on a primary store")
	}
	if s.journal == nil {
		return s.version, fmt.Errorf("store: closed")
	}
	wrote, err := s.appendJournalFramesLocked(frames)
	if !wrote {
		return s.version, err
	}
	if err != nil {
		// The failed frame may lie (torn) past journalEnd; left there, a
		// reopen would replay what the index refused.
		if terr := s.journal.Truncate(s.journalEnd); terr != nil {
			err = errors.Join(err, terr)
		}
	}
	if serr := s.syncFile(s.journal); serr != nil {
		return s.version, errors.Join(err, serr)
	}
	s.maybeSnapshotLocked()
	return s.version, err
}

// appendJournalFramesLocked writes and applies each new frame in turn,
// stopping at the first it cannot. wrote reports whether any frame's
// bytes reached the journal. Caller holds the lock.
func (s *Store) appendJournalFramesLocked(frames []byte) (wrote bool, err error) {
	br := bytes.NewReader(frames)
	size := int64(len(frames))
	for off := int64(0); off < size; {
		payload, next, err := readFrame(br, off, size)
		if err != nil {
			return wrote, fmt.Errorf("store: replicated journal frame at %d: %w", off, err)
		}
		v, err := journalFrameVersion(payload)
		if err != nil {
			return wrote, err
		}
		switch {
		case v <= s.version:
			off = next
			continue // redelivered
		case v != s.version+1:
			return wrote, fmt.Errorf("store: replicated journal gap: got version %d at local version %d", v, s.version)
		}
		frame := frames[off:next]
		wrote = true
		if _, err := s.journal.WriteAt(frame, s.journalEnd); err != nil {
			return wrote, err
		}
		if err := s.applyJournal(payload); err != nil {
			return wrote, err
		}
		s.journalEnd += int64(len(frame))
		s.journalRecs++
		off = next
	}
	return wrote, nil
}

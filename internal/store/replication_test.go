package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edgepulse/internal/cbor"
	"edgepulse/internal/data"
)

// openReplicaT opens a replica store with cleanup.
func openReplicaT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := OpenReplica(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// replicate ships everything the primary has past the replica's state:
// segment bytes first, then journal frames — the follower's sync
// algorithm at store level.
func replicate(t *testing.T, primary, replica *Store) {
	t.Helper()
	remote, err := primary.ReplicationState()
	if err != nil {
		t.Fatal(err)
	}
	local, err := replica.ReplicationState()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int64{}
	for _, s := range local.Segments {
		sizes[s.Index] = s.Size
	}
	for _, seg := range remote.Segments {
		from := sizes[seg.Index]
		if from >= seg.Size {
			continue
		}
		rd, n, err := primary.SegmentReader(seg.Index, from)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(io.LimitReader(rd, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.ApplySegmentChunk(seg.Index, from, b); err != nil {
			t.Fatalf("segment %d: %v", seg.Index, err)
		}
	}
	frames, last, err := primary.JournalSince(replica.Committed(), remote.Version)
	if err != nil {
		t.Fatal(err)
	}
	if last != remote.Version {
		t.Fatalf("journal tail ends at %d, want %d", last, remote.Version)
	}
	if _, err := replica.ApplyJournalFrames(frames); err != nil {
		t.Fatal(err)
	}
}

// assertIdentical compares full header sets, versions and signal bytes.
func assertIdentical(t *testing.T, primary, replica *Store) {
	t.Helper()
	if p, r := primary.Committed(), replica.Committed(); p != r {
		t.Fatalf("versions differ: primary %d, replica %d", p, r)
	}
	ph, err := primary.Headers()
	if err != nil {
		t.Fatal(err)
	}
	rh, err := replica.Headers()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ph, rh) {
		t.Fatalf("headers differ:\nprimary %+v\nreplica %+v", ph, rh)
	}
	for _, h := range ph {
		ps, err := primary.LoadSignal(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := replica.LoadSignal(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ps, rs) {
			t.Fatalf("signal %s differs", h.ID)
		}
	}
}

func TestReplicationIncremental(t *testing.T) {
	primary := openT(t, t.TempDir(), Options{SegmentBytes: 2048})
	replica := openReplicaT(t, t.TempDir(), Options{SegmentBytes: 2048})

	// Multiple rounds with interleaved mutations, spanning a segment
	// roll (2 KiB segments fill fast).
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			if err := primary.Append(mkSample(string(rune('a'+round))+"-"+string(rune('0'+i)), 64)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 1 {
			if err := primary.SetLabel("a-1", "relabeled"); err != nil {
				t.Fatal(err)
			}
			if err := primary.Remove("a-2"); err != nil {
				t.Fatal(err)
			}
		}
		replicate(t, primary, replica)
		assertIdentical(t, primary, replica)
	}
	if len(primary.Segments()) < 2 {
		t.Fatalf("test did not span a segment roll: %v", primary.Segments())
	}

	// An idle round ships nothing and stays identical.
	replicate(t, primary, replica)
	assertIdentical(t, primary, replica)
}

func TestReplicaRejectsWrites(t *testing.T) {
	replica := openReplicaT(t, t.TempDir(), Options{})
	if err := replica.Append(mkSample("x", 8)); !errors.Is(err, ErrReplica) {
		t.Fatalf("Append on replica: %v", err)
	}
	if err := replica.Remove("x"); !errors.Is(err, ErrReplica) {
		t.Fatalf("Remove on replica: %v", err)
	}
	if err := replica.SetLabel("x", "y"); !errors.Is(err, ErrReplica) {
		t.Fatalf("SetLabel on replica: %v", err)
	}
	if !replica.Replica() {
		t.Fatal("Replica() false on replica store")
	}
	// And a primary refuses replica-side appliers.
	primary := openT(t, t.TempDir(), Options{})
	if err := primary.ApplySegmentChunk(0, 0, []byte{1}); err == nil {
		t.Fatal("ApplySegmentChunk accepted on a primary store")
	}
	if _, err := primary.ApplyJournalFrames(nil); err == nil {
		t.Fatal("ApplyJournalFrames accepted on a primary store")
	}
}

func TestJournalSinceGapAndBounds(t *testing.T) {
	dir := t.TempDir()
	primary := openT(t, dir, Options{})
	for i := 0; i < 6; i++ {
		if err := primary.Append(mkSample(string(rune('a'+i)), 16)); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction advances the snapshot horizon past version 0.
	if err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Append(mkSample("post", 16)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := primary.JournalSince(0, primary.Committed()); !errors.Is(err, ErrReplicationGap) {
		t.Fatalf("pre-horizon cursor: %v", err)
	}
	// A cursor at the horizon tails cleanly.
	frames, last, err := primary.JournalSince(6, primary.Committed())
	if err != nil {
		t.Fatal(err)
	}
	if last != 7 || len(frames) == 0 {
		t.Fatalf("tail from horizon: last %d, %d bytes", last, len(frames))
	}
}

// TestReplicationReadsRefuseBadInput covers the refusals of the
// primary-side feed: an unknown segment, an offset outside the committed
// range, and any read after Close.
func TestReplicationReadsRefuseBadInput(t *testing.T) {
	primary := openT(t, t.TempDir(), Options{})
	if err := primary.Append(mkSample("a", 16)); err != nil {
		t.Fatal(err)
	}
	rs, err := primary.ReplicationState()
	if err != nil {
		t.Fatal(err)
	}
	seg := rs.Segments[0]
	if _, _, err := primary.SegmentReader(seg.Index+1000, 0); err == nil {
		t.Error("unknown segment read")
	}
	for _, from := range []int64{-1, seg.Size + 1} {
		if _, _, err := primary.SegmentReader(seg.Index, from); err == nil {
			t.Errorf("offset %d outside [0,%d] read", from, seg.Size)
		}
	}

	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.ReplicationState(); err == nil {
		t.Error("state of a closed store")
	}
	if _, _, err := primary.SegmentReader(seg.Index, 0); err == nil {
		t.Error("segment read from a closed store")
	}
	if _, _, err := primary.JournalSince(0, 0); err == nil {
		t.Error("journal read from a closed store")
	}
	if _, _, err := primary.ManifestBlob(); err == nil {
		t.Error("manifest of a closed store")
	}
}

func TestReplicationBootstrap(t *testing.T) {
	primary := openT(t, t.TempDir(), Options{SegmentBytes: 2048})
	for i := 0; i < 8; i++ {
		if err := primary.Append(mkSample(string(rune('a'+i)), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Append(mkSample("tail", 64)); err != nil {
		t.Fatal(err)
	}

	// Bootstrap: manifest + full segment copies, then reopen.
	manifest, version, err := primary.ManifestBlob()
	if err != nil {
		t.Fatal(err)
	}
	if version != primary.Committed() {
		// The manifest is at the snapshot horizon, not the tip.
		if version != 8 {
			t.Fatalf("manifest version %d", version)
		}
	}
	dir := t.TempDir()
	if err := PrepareBootstrap(dir, manifest); err != nil {
		t.Fatal(err)
	}
	state, err := primary.ReplicationState()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range state.Segments {
		rd, n, err := primary.SegmentReader(seg.Index, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(io.LimitReader(rd, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(SegmentPath(dir, seg.Index), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	replica := openReplicaT(t, dir, Options{SegmentBytes: 2048})
	if replica.Committed() != version {
		t.Fatalf("bootstrapped replica at %d, manifest was %d", replica.Committed(), version)
	}
	// One incremental round catches the post-snapshot tail.
	replicate(t, primary, replica)
	assertIdentical(t, primary, replica)
}

func TestApplySegmentChunkContracts(t *testing.T) {
	primary := openT(t, t.TempDir(), Options{})
	if err := primary.Append(mkSample("a", 32)); err != nil {
		t.Fatal(err)
	}
	state, err := primary.ReplicationState()
	if err != nil {
		t.Fatal(err)
	}
	seg := state.Segments[0]
	rd, n, err := primary.SegmentReader(seg.Index, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(io.LimitReader(rd, n))
	if err != nil {
		t.Fatal(err)
	}

	replica := openReplicaT(t, t.TempDir(), Options{})
	// A gap (offset past the current size) must be refused.
	if err := replica.ApplySegmentChunk(seg.Index, 10, b); err == nil {
		t.Fatal("accepted a chunk with a byte gap")
	}
	if err := replica.ApplySegmentChunk(seg.Index, 0, b); err != nil {
		t.Fatal(err)
	}
	// Idempotent redelivery of an overlapping chunk is a no-op.
	if err := replica.ApplySegmentChunk(seg.Index, 0, b); err != nil {
		t.Fatal(err)
	}
	st2, err := replica.ReplicationState()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Segments[0].Size != seg.Size {
		t.Fatalf("replica segment size %d, want %d", st2.Segments[0].Size, seg.Size)
	}
}

// crashCopy copies a store directory byte for byte while the store is
// still open — the tree a crash at this moment leaves behind — and
// returns the copy's path.
func crashCopy(t testing.TB, dir string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestRefusedJournalFrameLeavesNoTrace: a well-framed replicated
// operation the index refuses (removing a sample the replica never had)
// must not stay in the journal, or a crash turns it into a store that
// no longer opens.
func TestRefusedJournalFrameLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	replica := openReplicaT(t, dir, Options{})
	ghost, err := cbor.Marshal(map[string]any{"op": opRemove, "id": "ghost", "v": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := replica.ApplyJournalFrames(appendFrame(nil, ghost))
	if err == nil || !strings.Contains(err.Error(), "removes unknown sample ghost") {
		t.Fatalf("ghost remove: err = %v", err)
	}
	if v != 0 || replica.Committed() != 0 {
		t.Fatalf("refused frame advanced the version to %d", replica.Committed())
	}
	reopened := openReplicaT(t, crashCopy(t, dir), Options{})
	if reopened.Committed() != 0 {
		t.Fatalf("reopened at version %d, want 0", reopened.Committed())
	}
}

// fuzzBatches encodes batches of journal payloads as one fuzz input:
// each payload is a two-byte little-endian header (low 15 bits its
// length, the top bit "the batch ends here") and its bytes.
func fuzzBatches(batches ...[][]byte) []byte {
	var in []byte
	for _, batch := range batches {
		for i, p := range batch {
			hdr := uint16(len(p))
			if i == len(batch)-1 {
				hdr |= 1 << 15
			}
			in = append(in, byte(hdr), byte(hdr>>8))
			in = append(in, p...)
		}
	}
	return in
}

// FuzzApplyJournalFrames feeds a replica batches of well-framed journal
// payloads, as a leader's JournalSince would ship them, and after each
// batch copies the store's directory without closing it: the copy must
// open, at the version and with the headers the live replica reports,
// whatever the batch held and whether or not it was refused. An input
// is cut after eight batches, each of which costs a copy and an open.
func FuzzApplyJournalFrames(f *testing.F) {
	op := func(m map[string]any) []byte {
		b, err := cbor.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	s := mkSample("s1", 4)
	h := data.Header{ID: s.ID, Name: s.Name, Label: s.Label, Category: s.Category, AddedAt: s.AddedAt, Metadata: s.Metadata}
	add := headerMap(h, location{Segment: 1, Offset: logMagicLen, Length: 40})
	addOp := func(v int64) []byte { return op(map[string]any{"op": opAdd, "h": add, "v": v}) }
	ghost := op(map[string]any{"op": opRemove, "id": "ghost", "v": int64(1)})
	label := op(map[string]any{"op": opLabel, "id": "s1", "label": "yes", "v": int64(2)})
	cats := op(map[string]any{"op": opCats, "m": map[string]any{"s1": "testing"}, "v": int64(3)})
	remove := op(map[string]any{"op": opRemove, "id": "s1", "v": int64(4)})

	f.Add(fuzzBatches([][]byte{ghost}))
	f.Add(fuzzBatches([][]byte{addOp(1), label}, [][]byte{addOp(1), label, cats, remove}))
	f.Add(fuzzBatches([][]byte{addOp(1), addOp(2)}, [][]byte{label}))
	f.Add(fuzzBatches([][]byte{addOp(1), op(map[string]any{"op": opLabel, "id": "s1", "v": int64(3)})}))
	f.Add(fuzzBatches([][]byte{addOp(1), op(map[string]any{"op": "explode", "v": int64(2)}), cats}))
	f.Add(fuzzBatches([][]byte{op(map[string]any{"op": opAdd, "v": int64(1)})}, [][]byte{[]byte("not cbor")}))

	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		replica := openReplicaT(t, dir, Options{NoSync: true})
		for batch := 0; batch < 8 && len(in) >= 2; batch++ {
			var frames []byte
			for len(in) >= 2 {
				hdr := uint16(in[0]) | uint16(in[1])<<8
				n := min(int(hdr&(1<<15-1)), len(in)-2)
				frames = append(frames, appendFrame(nil, in[2:2+n])...)
				in = in[2+n:]
				if hdr&(1<<15) != 0 {
					break
				}
			}
			v, err := replica.ApplyJournalFrames(frames)
			if v != replica.Committed() {
				t.Fatalf("ApplyJournalFrames returned version %d (err %v), store reports %d", v, err, replica.Committed())
			}
			want, err := replica.Headers()
			if err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenReplica(crashCopy(t, dir), Options{NoSync: true})
			if err != nil {
				t.Fatalf("a copy taken after the batch does not open: %v", err)
			}
			got, err := reopened.Headers()
			if err != nil {
				t.Fatal(err)
			}
			if reopened.Committed() != v || !reflect.DeepEqual(headersComparable(got), headersComparable(want)) {
				t.Fatalf("copy reopens at version %d with %+v; the live replica is at %d with %+v",
					reopened.Committed(), got, v, want)
			}
			reopened.Close()
		}
	})
}

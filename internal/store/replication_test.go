package store

import (
	"errors"
	"io"
	"os"
	"reflect"
	"testing"
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

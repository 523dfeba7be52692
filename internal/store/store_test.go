package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
)

// mkSample builds a deterministic sample; the ID is assigned the way
// data.Dataset.Add would (content hash), but for store-level tests any
// unique string works.
func mkSample(id string, n int) *data.Sample {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i) * 0.5
	}
	return &data.Sample{
		ID: id, Name: "s-" + id, Label: "l-" + id, Category: data.Training,
		Signal:   dsp.Signal{Data: vals, Rate: 100, Axes: 1},
		Metadata: map[string]string{"device_name": "dev-" + id},
		AddedAt:  time.Unix(1700000000, 12345),
	}
}

func openT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestAppendLoadRoundTrip(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	want := mkSample("a1", 32)
	if err := st.Append(want); err != nil {
		t.Fatal(err)
	}
	sig, err := st.LoadSignal("a1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sig, want.Signal) {
		t.Fatalf("signal round trip: got %+v want %+v", sig, want.Signal)
	}
	hs, err := st.Headers()
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 || hs[0].ID != "a1" || hs[0].Label != "l-a1" ||
		hs[0].Metadata["device_name"] != "dev-a1" || hs[0].Shape.Frames != 32 {
		t.Fatalf("headers: %+v", hs)
	}
	if !hs[0].AddedAt.Equal(want.AddedAt) {
		t.Fatalf("AddedAt %v != %v", hs[0].AddedAt, want.AddedAt)
	}
	if st.Committed() != 1 {
		t.Fatalf("version = %d, want 1", st.Committed())
	}
	if err := st.Append(mkSample("a1", 32)); err == nil {
		t.Fatal("duplicate append accepted")
	}
}

// TestSampleShapeChecked: Append refuses a signal whose geometry cannot
// describe its data, and LoadSignal refuses a record whose shape
// disagrees with the sample's header, as a follower's index and its
// leader's records can.
func TestSampleShapeChecked(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	bad := mkSample("b1", 6)
	bad.Signal.Axes = 4
	if err := st.Append(bad); err == nil {
		t.Error("appended 6 values in 4 axes")
	}
	if err := st.Append(mkSample("a1", 6)); err != nil {
		t.Fatal(err)
	}
	st.lock()
	st.recs["a1"].h.Shape.Frames = 3
	st.unlock()
	if _, err := st.LoadSignal("a1"); err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("loaded a record of 6 frames under a 3-frame header: %v", err)
	}
}

func TestReopenPreservesStateAndOrder(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if err := st.Append(mkSample(fmt.Sprintf("s%02d", i), 16+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Remove("s03"); err != nil {
		t.Fatal(err)
	}
	if err := st.SetLabel("s05", "relabeled"); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCategories(map[string]data.Category{"s07": data.Testing}); err != nil {
		t.Fatal(err)
	}
	v := st.Committed()
	before, _ := st.Headers()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openT(t, dir, Options{})
	after, _ := st2.Headers()
	if !reflect.DeepEqual(headersComparable(before), headersComparable(after)) {
		t.Fatalf("headers diverged across reopen:\n%+v\nvs\n%+v", before, after)
	}
	if st2.Committed() != v {
		t.Fatalf("version %d != %d across reopen", st2.Committed(), v)
	}
	sig, err := st2.LoadSignal("s10")
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.Data) != 26 {
		t.Fatalf("signal length %d", len(sig.Data))
	}
}

// headersComparable strips nothing today but pins the comparison to
// values (AddedAt compared via UnixNano by DeepEqual on time.Time can
// differ in monotonic clock readings; stored times have none).
func headersComparable(hs []data.Header) []data.Header {
	out := make([]data.Header, len(hs))
	for i, h := range hs {
		h.AddedAt = h.AddedAt.Round(0).UTC()
		out[i] = h
	}
	return out
}

func TestSegmentRollAndMultiSegmentReads(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a roll every couple of samples.
	st := openT(t, dir, Options{SegmentBytes: 2048})
	for i := 0; i < 12; i++ {
		if err := st.Append(mkSample(fmt.Sprintf("r%02d", i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	segs := st.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segments, got %v", segs)
	}
	for i := 0; i < 12; i++ {
		if _, err := st.LoadSignal(fmt.Sprintf("r%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen reads across all segments too.
	st.Close()
	st2 := openT(t, dir, Options{SegmentBytes: 2048})
	for i := 0; i < 12; i++ {
		if _, err := st2.LoadSignal(fmt.Sprintf("r%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Options{SnapshotEvery: 5})
	for i := 0; i < 12; i++ {
		if err := st.Append(mkSample(fmt.Sprintf("c%02d", i), 8)); err != nil {
			t.Fatal(err)
		}
	}
	// 12 ops with SnapshotEvery=5: at least two compactions happened,
	// so the journal holds < 5 records and the manifest exists.
	if st.journalRecs >= 5 {
		t.Fatalf("journal not compacted: %d records", st.journalRecs)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal("manifest.json missing after compaction")
	}
	v := st.Committed()
	st.Close()
	st2 := openT(t, dir, Options{})
	if st2.Committed() != v || st2.Len() != 12 {
		t.Fatalf("post-compaction reopen: version %d len %d", st2.Committed(), st2.Len())
	}
}

func TestLazyDatasetOverStore(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Options{})
	ds, err := data.Open(st, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Lazy() {
		t.Fatal("dataset not lazy")
	}
	id, err := ds.Add(&data.Sample{
		Name: "w", Label: "yes",
		Signal: dsp.Signal{Data: []float32{1, 2, 3, 4}, Rate: 100, Axes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ver := ds.Version()

	// A second lazy dataset over a fresh store handle sees the same
	// content and content-version.
	st.Close()
	st2 := openT(t, dir, Options{})
	ds2, err := data.Open(st2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Version() != ver {
		t.Fatalf("version %s != %s across reopen", ds2.Version(), ver)
	}
	s, err := ds2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if s.Label != "yes" || len(s.Signal.Data) != 4 || s.Signal.Data[2] != 3 {
		t.Fatalf("sample: %+v", s)
	}
	// Batches streams the sample back out.
	it := ds2.Batches("", 10)
	batch, ok := it.Next()
	if !ok || len(batch) != 1 || batch[0].ID != id {
		t.Fatalf("batch: %v %v", batch, ok)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator did not terminate")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestErrorsOnUnknownIDs(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	if _, err := st.LoadSignal("nope"); err == nil {
		t.Error("LoadSignal on unknown id")
	}
	if err := st.Remove("nope"); err == nil {
		t.Error("Remove on unknown id")
	}
	if err := st.SetLabel("nope", "x"); err == nil {
		t.Error("SetLabel on unknown id")
	}
	if err := st.SetCategories(map[string]data.Category{"nope": data.Testing}); err == nil {
		t.Error("SetCategories on unknown id")
	}
	if err := st.SetCategories(nil); err != nil {
		t.Error("empty SetCategories should be a no-op")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	st.Close()
	if err := st.Append(mkSample("x", 4)); err == nil {
		t.Fatal("append after close accepted")
	}
	if err := st.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestSpoolRoundTripAndAck(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sp.Add([]byte(fmt.Sprintf("doc-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := sp.Pending(); len(got) != 3 || string(got[0]) != "doc-0" {
		t.Fatalf("pending: %q", got)
	}
	if err := sp.Ack(2); err != nil {
		t.Fatal(err)
	}
	if got := sp.Pending(); len(got) != 1 || string(got[0]) != "doc-2" {
		t.Fatalf("pending after ack: %q", got)
	}
	sp.Close()

	// Reopen: the unacknowledged document survives.
	sp2, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if got := sp2.Pending(); len(got) != 1 || string(got[0]) != "doc-2" {
		t.Fatalf("pending after reopen: %q", got)
	}
	// Fully drained: the log resets.
	if err := sp2.Ack(1); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, spoolLogName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != logMagicLen {
		t.Fatalf("drained spool log is %d bytes, want %d", st.Size(), logMagicLen)
	}
	if got := sp2.Pending(); len(got) != 0 {
		t.Fatalf("pending after drain: %q", got)
	}
}

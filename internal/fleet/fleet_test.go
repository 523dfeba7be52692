package fleet

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("classify=4, stream=1,upload=2")
	if err != nil {
		t.Fatal(err)
	}
	if m.Classify != 4 || m.Stream != 1 || m.Upload != 2 || m.Total() != 7 {
		t.Fatalf("parsed %+v", m)
	}
	for _, bad := range []string{"", "bogus=1", "classify", "classify=x", "classify=-1", "classify=0", "classify=1001"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
	// All weights present parse cleanly, and String writes them back
	// in canonical order.
	all := "upload=1,classify=1,batch=1,stream=1,train=1,tune=1"
	if m, err := ParseMix(all); err != nil || m.String() != all {
		t.Fatalf("ParseMix(%q) = %v, %v", all, m, err)
	}
}

// FuzzParseMix: ParseMix never panics, and whatever it accepts has
// positive total weight, no negative weight, and round-trips through
// Mix.String.
func FuzzParseMix(f *testing.F) {
	for _, s := range []string{"classify=4, stream=1,upload=2", "upload=1,classify=1,batch=1,stream=1,train=1,tune=1",
		"", ",", "classify", "classify=-1", "classify=0,upload=+3", "tune=1000", "batch=9223372036854775807,upload=1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMix(s)
		if err != nil {
			return
		}
		if m.Total() <= 0 {
			t.Fatalf("ParseMix(%q) accepted total %d", s, m.Total())
		}
		for _, sc := range scenarios {
			if sc.weight(m) < 0 {
				t.Fatalf("ParseMix(%q) accepted negative %s weight", s, sc.name)
			}
		}
		back, err := ParseMix(m.String())
		if err != nil || back != m {
			t.Fatalf("ParseMix(%q) = %+v; String %q parses to %+v, %v", s, m, m.String(), back, err)
		}
	})
}

func TestMixPatternDeterministic(t *testing.T) {
	m := Mix{Upload: 2, Classify: 3, Stream: 1}
	p := m.pattern()
	want := []string{"upload", "upload", "classify", "classify", "classify", "stream"}
	if len(p) != len(want) {
		t.Fatalf("pattern %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("pattern[%d] = %s, want %s (%v)", i, p[i], want[i], p)
		}
	}
}

func TestPercentile(t *testing.T) {
	if percentile(nil, 99) != 0 {
		t.Fatal("empty percentile")
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{50, 5}, {95, 10}, {99, 10}, {100, 10}, {0, 1}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Fatalf("p%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if mean(sorted) != 5.5 {
		t.Fatalf("mean = %v", mean(sorted))
	}
}

func TestRecorderClassification(t *testing.T) {
	rec := newRecorder()
	// Success.
	if shed := rec.observe(OpClassify, time.Millisecond, nil); shed {
		t.Fatal("success counted as shed")
	}
	// Retryable shed with Retry-After.
	shedErr := &client.APIError{Status: 429, Code: v1.CodeOverloaded, RetryAfter: time.Second}
	if shed := rec.observe(OpClassify, time.Millisecond, shedErr); !shed {
		t.Fatal("overloaded not counted as shed")
	}
	// Shed missing Retry-After — the SLO violation counter.
	if shed := rec.observe(OpClassify, time.Millisecond, &client.APIError{Status: 429, Code: v1.CodeBackpressure}); !shed {
		t.Fatal("backpressure not counted as shed")
	}
	// Hard API error and transport error.
	rec.observe(OpClassify, time.Millisecond, &client.APIError{Status: 400, Code: v1.CodeBadRequest})
	rec.observe(OpClassify, time.Millisecond, errors.New("connection refused"))
	// Out-of-band failure.
	rec.fail(OpTrain, "job_failed")

	stats := rec.stats(2 * time.Second)
	if len(stats) != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	cl := stats[0]
	if cl.Op != OpClassify || cl.Count != 5 || cl.Shed != 2 || cl.ShedNoRetryAfter != 1 || cl.HardErrors != 2 {
		t.Fatalf("classify stats: %+v", cl)
	}
	if cl.ByCode[v1.CodeOverloaded] != 1 || cl.ByCode[codeTransport] != 1 {
		t.Fatalf("by-code: %+v", cl.ByCode)
	}
	if cl.OpsPerSec != 2.5 {
		t.Fatalf("ops/sec: %v", cl.OpsPerSec)
	}
	tr := stats[1]
	if tr.Op != OpTrain || tr.HardErrors != 1 || tr.Count != 0 {
		t.Fatalf("train stats: %+v", tr)
	}
	if tr.HardErrorRate() != 0 { // rate over zero attempts is defined as 0
		t.Fatalf("train rate: %v", tr.HardErrorRate())
	}
	if cl.HardErrorRate() != 0.4 {
		t.Fatalf("classify rate: %v", cl.HardErrorRate())
	}
}

func TestRecallAgg(t *testing.T) {
	var agg recallAgg
	agg.add(3, 3, 0, 0)
	agg.add(2, 1, 1, 2)
	st := agg.stats()
	if st.Sessions != 2 || st.Events != 5 || st.Detected != 4 || st.Missed != 1 || st.False != 2 {
		t.Fatalf("recall: %+v", st)
	}
	if st.Recall != 0.8 {
		t.Fatalf("recall fraction: %v", st.Recall)
	}
	if (&recallAgg{}).stats().Recall != 1 {
		t.Fatal("empty recall should be 1")
	}
}

func TestViolations(t *testing.T) {
	res := &Result{
		Ops: []OpStats{
			{Op: OpClassify, Count: 10, Shed: 2, ByCode: map[string]int64{"overloaded": 2}},
			{Op: OpUpload, Count: 10, Shed: 1, ShedNoRetryAfter: 1, HardErrors: 1},
			{Op: OpTrain, Count: 4},
		},
		Recall: RecallStats{Events: 3, Detected: 2, Missed: 1, Recall: 2.0 / 3},
	}
	v := res.Violations(DefaultSLO())
	if len(v) != 4 {
		t.Fatalf("violations: %v", v)
	}
	// A compliant result has none.
	clean := &Result{
		Ops:    []OpStats{{Op: OpClassify, Count: 10}, {Op: OpUpload, Count: 5, Shed: 1}},
		Recall: RecallStats{Events: 2, Detected: 2, Recall: 1},
	}
	// The upload shed carries Retry-After (ShedNoRetryAfter == 0), so
	// default-class backpressure alone is not a violation.
	if v := clean.Violations(DefaultSLO()); len(v) != 0 {
		t.Fatalf("clean result violated: %v", v)
	}
	// Disabled hard-error check.
	slo := SLO{MaxHardErrorRate: -1}
	dirty := &Result{Ops: []OpStats{{Op: OpClassify, Count: 2, HardErrors: 2}}}
	if v := dirty.Violations(slo); len(v) != 0 {
		t.Fatalf("disabled rate check still fired: %v", v)
	}
	if res.Op(OpClassify) == nil || res.Op("nope") != nil {
		t.Fatal("Op lookup")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res := &Result{
		Target:      "http://127.0.0.1:0",
		Config:      Config{Devices: 4, Seed: 9}.withDefaults(),
		WallSeconds: 1.5,
		Ops:         []OpStats{{Op: OpClassify, Count: 8, P99MS: 12.5}},
		Recall:      RecallStats{Events: 2, Detected: 2, Recall: 1},
	}
	path, err := WriteRecord(dir+"/FLEET_STAMP.json", res)
	if err != nil {
		t.Fatal(err)
	}
	if path == dir+"/FLEET_STAMP.json" {
		t.Fatalf("STAMP not substituted: %s", path)
	}
	var got Record
	if err := json.Unmarshal(readFile(t, path), &got); err != nil {
		t.Fatal(err)
	}
	if got.Stamp == "" || got.Target != res.Target || got.Config.Devices != 4 || got.Ops[0].P99MS != 12.5 || got.Recall.Recall != 1 {
		t.Fatalf("round trip: %+v", got)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Devices != 8 || c.OpsPerDevice != 4 || c.Rate != 8000 || c.Mix.Total() == 0 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.StreamSeconds != 8 || c.StreamEvents != 2 || c.BatchWindows != 8 || c.TrainEpochs != 8 || c.JobEpochs != 2 {
		t.Fatalf("defaults: %+v", c)
	}
}

package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"edgepulse/internal/simd/simdtest"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_seed42.golden from this run")

const reportGolden = "testdata/quick_seed42.golden"

// TestReportGolden holds `ei-bench -quick` at its default seed to the
// committed report, byte for byte, on every simd tier: a change to any
// reproduced cell fails here until the golden is rewritten (-update) in
// the same change.
func TestReportGolden(t *testing.T) {
	var want []byte
	if !*update {
		var err error
		if want, err = os.ReadFile(reportGolden); err != nil {
			t.Fatal(err)
		}
	}
	simdtest.ForEachTier(t, func(t *testing.T) {
		r := &reportRun{quick: true, seed: 42}
		var got bytes.Buffer
		if err := r.write(&got, "", nil); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(r.trials); i++ {
			if r.trials[i].Accuracy > r.trials[i-1].Accuracy {
				t.Errorf("Table 3 trial %d (%.3f) ranks below trial %d (%.3f)",
					i, r.trials[i].Accuracy, i-1, r.trials[i-1].Accuracy)
			}
		}
		if want == nil { // -update: the first tier writes, the others must agree
			if err := os.WriteFile(reportGolden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			want = bytes.Clone(got.Bytes())
		}
		if d := lineDiff(string(want), got.String()); d != "" {
			t.Errorf("report differs from %s (rerun with -update if the change is meant):\n%s", reportGolden, d)
		}
	})
}

// lineDiff lists the lines where got departs from want, each as a
// numbered "-want" / "+got" pair, up to 20 of them.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(wl), len(gl)) && shown < 20; i++ {
		w, g := "<none>", "<none>"
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, w, g)
			shown++
		}
	}
	return b.String()
}

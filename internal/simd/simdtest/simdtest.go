// Package simdtest runs a test, a fuzz body or a benchmark once per
// internal/simd tier, so that one process on one host covers every
// kernel combination the build and the CPU can run.
package simdtest

import (
	"testing"

	"edgepulse/internal/simd"
)

// ForEachTier runs f in one subtest (or sub-benchmark) per tier —
// avx512, avx2, then go — named after it, with that tier active. A tier
// the build or the CPU lacks is reported as a skipped subtest, so a log
// shows what went uncovered. Each subtest restores the tier it found,
// also when f fails.
func ForEachTier[T interface {
	testing.TB
	Run(name string, f func(T)) bool
}](t T, f func(T)) {
	t.Helper()
	for _, want := range []simd.Tier{simd.TierAVX512, simd.TierAVX2, simd.TierGo} {
		t.Run(want.String(), func(t T) {
			defer simd.SetTier(want)()
			if got := simd.ActiveTier(); got != want {
				t.Skipf("the build or the CPU has no %v tier (it tops out at %v)", want, got)
			}
			f(t)
		})
	}
}

package simdtest_test

import (
	"slices"
	"testing"

	"edgepulse/internal/simd"
	"edgepulse/internal/simd/simdtest"
)

// recorder is a *testing.T whose subtests log the ones skipped.
type recorder struct {
	*testing.T
	log *[]string
}

func (r recorder) Run(name string, f func(recorder)) bool {
	return r.T.Run(name, func(t *testing.T) {
		defer func() {
			if t.Skipped() {
				*r.log = append(*r.log, "skipped "+name)
			}
		}()
		f(recorder{t, r.log})
	})
}

// TestForEachTier runs a subtest per tier: those up to the host's top
// one, each with itself active, then the rest reported as skipped — all
// but go under -tags noasm. go test -v lists which ran on this CPU.
func TestForEachTier(t *testing.T) {
	restore := simd.SetTier(simd.TierAVX512)
	top := simd.ActiveTier()
	restore()
	if !asmBuild && top != simd.TierGo {
		t.Fatalf("a build without the assembly offers the %v tier", top)
	}
	var got, want []string
	simdtest.ForEachTier(recorder{t, &got}, func(r recorder) {
		*r.log = append(*r.log, "ran "+simd.ActiveTier().String())
	})
	for _, tier := range []simd.Tier{simd.TierAVX512, simd.TierAVX2, simd.TierGo} {
		if tier <= top {
			want = append(want, "ran "+tier.String())
		} else {
			want = append(want, "skipped "+tier.String())
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("subtests %q, want %q", got, want)
	}
}

// TestForEachTierRestores: each subtest restores the tier it found, also
// when f leaves through runtime.Goexit, as t.Fatal does.
func TestForEachTierRestores(t *testing.T) {
	defer simd.SetTier(simd.TierAVX2)()
	entry := simd.ActiveTier()
	simdtest.ForEachTier(t, func(t *testing.T) { t.SkipNow() })
	if now := simd.ActiveTier(); now != entry {
		t.Errorf("tier %v after ForEachTier, %v before", now, entry)
	}
}

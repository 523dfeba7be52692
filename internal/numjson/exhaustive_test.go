//go:build exhaustive

package numjson

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAppendFloat32Exhaustive holds appendFloat32 to strconv on every
// one of the 2^32 float32 bit patterns: the same bytes in the layout
// encoding/json chooses, and a refusal exactly for NaN and ±Inf.
//
//	go test -tags exhaustive -run Exhaustive ./internal/numjson
//
// The 512 sign × exponent blocks of 2^23 patterns are shared out over
// GOMAXPROCS goroutines; about 5 min of wall time on two 2.1 GHz cores
// (10 min of CPU), so give it -timeout 30m on a slower box.
func TestAppendFloat32Exhaustive(t *testing.T) {
	var next, diffs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got, want []byte
			for {
				block := next.Add(1) - 1
				if block >= 512 || diffs.Load() > 20 {
					return
				}
				for frac := uint32(0); frac < 1<<23; frac++ {
					b := uint32(block)<<23 | frac
					var ok bool
					got, ok = appendFloat32(got[:0], b)
					finite := b>>23&0xff != 0xff
					if want = want[:0]; finite {
						want = appendFloat32Strconv(want, b)
					}
					if ok != finite || string(got) != string(want) {
						t.Errorf("%#08x: %q (ok=%v), strconv %q", b, got, ok, want)
						if diffs.Add(1) > 20 {
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

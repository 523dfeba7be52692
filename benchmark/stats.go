package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: the tail value is otherwise one or two outliers.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of sorted and the
// sample count it rests on. It refuses (ok = false) when fewer than
// minBeyond samples lie beyond the returned one; n is reported either
// way so a caller can say why.
func percentile(sorted []time.Duration, p float64) (v time.Duration, n int, ok bool) {
	n = len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond {
		return sorted[idx], n, false
	}
	return sorted[idx], n, true
}

// median returns the middle of sorted (mean of the two middles when the
// count is even), or 0 for no samples.
func median(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance rule for this benchmark is stated in. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64, err error) {
	n := len(v)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

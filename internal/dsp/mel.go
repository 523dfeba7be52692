package dsp

import "math"

// melScale converts a frequency in Hz to mels (HTK convention).
func melScale(hz float64) float64 {
	return 2595 * math.Log10(1+hz/700)
}

// melInverse converts mels back to Hz.
func melInverse(mel float64) float64 {
	return 700 * (math.Pow(10, mel/2595) - 1)
}

// melFilterbank builds numFilters triangular filters over an FFT of size
// fftSize at the given sample rate, spanning [lowHz, highHz]. Each filter
// is returned as (startBin, weights).
type melFilter struct {
	start   int
	weights []float32
}

func melFilterbank(numFilters, fftSize, rate int, lowHz, highHz float64) []melFilter {
	if highHz <= 0 || highHz > float64(rate)/2 {
		highHz = float64(rate) / 2
	}
	nBins := fftSize/2 + 1
	lowMel := melScale(lowHz)
	highMel := melScale(highHz)
	// numFilters+2 equally spaced points on the mel scale.
	points := make([]float64, numFilters+2)
	for i := range points {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(numFilters+1)
		points[i] = melInverse(mel) / (float64(rate) / 2) * float64(nBins-1)
	}
	filters := make([]melFilter, numFilters)
	for f := 0; f < numFilters; f++ {
		left, center, right := points[f], points[f+1], points[f+2]
		start := int(math.Ceil(left))
		end := int(math.Floor(right))
		if start < 0 {
			start = 0
		}
		if end > nBins-1 {
			end = nBins - 1
		}
		if end < start {
			filters[f] = melFilter{start: start, weights: nil}
			continue
		}
		w := make([]float32, end-start+1)
		for b := start; b <= end; b++ {
			x := float64(b)
			var v float64
			switch {
			case x < center && center > left:
				v = (x - left) / (center - left)
			case x >= center && right > center:
				v = (right - x) / (right - center)
			}
			if v < 0 {
				v = 0
			}
			w[b-start] = float32(v)
		}
		filters[f] = melFilter{start: start, weights: w}
	}
	return filters
}

// applyFilterbankInto computes filterbank energies into dst (len >=
// len(filters)) without allocating.
func applyFilterbankInto(dst, power []float32, filters []melFilter) {
	for i, f := range filters {
		var s float32
		for j, w := range f.weights {
			s += w * power[f.start+j]
		}
		dst[i] = s
	}
}

// filterbankMACs counts the multiply-accumulates of one filterbank
// application (for the cost model).
func filterbankMACs(filters []melFilter) int64 {
	var n int64
	for _, f := range filters {
		n += int64(len(f.weights))
	}
	return n
}

// fftButterflies returns the butterfly count of one radix-2 FFT of size n:
// (n/2)·log2(n).
func fftButterflies(n int) int64 {
	if n <= 1 {
		return 0
	}
	logn := 0
	for m := n; m > 1; m >>= 1 {
		logn++
	}
	return int64(n/2) * int64(logn)
}

// logSafe computes a noise-floored log10, matching embedded speech front
// ends that clamp tiny energies before the log.
func logSafe(v float32) float32 {
	const floor = 1e-12
	if v < floor {
		v = floor
	}
	return float32(math.Log10(float64(v)))
}

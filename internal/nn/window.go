package nn

// Axis is one spatial axis of a sliding-window op (convolution or
// depthwise convolution, float32 or int8): In inputs, a Kernel-tap
// window moved by Stride, Pad padded positions before the first input,
// Out outputs, of which [fullLo, fullHi) have their whole window inside
// the input. Every kernel's valid-tap arithmetic is the two methods
// below.
type Axis struct {
	In, Kernel, Stride, Pad, Out int
	fullLo, fullHi               int
}

// NewAxis builds the axis of a strided window under a padding mode.
func NewAxis(in, kernel, stride int, pad Padding) Axis {
	if stride < 1 {
		stride = 1
	}
	a := Axis{In: in, Kernel: kernel, Stride: stride, Pad: padOffset(in, kernel, stride, pad), Out: convOutDim(in, kernel, stride, pad)}
	if room := in + a.Pad - kernel; room >= 0 {
		a.fullLo, a.fullHi = (a.Pad+stride-1)/stride, min(room/stride+1, a.Out)
	}
	return a
}

// Taps returns the taps [lo, hi) of output o's window that land on real
// inputs, and the input index tap lo reads.
func (a Axis) Taps(o int) (lo, hi, first int) {
	lo, hi = 0, a.Kernel
	if d := a.Pad - o*a.Stride; d > 0 {
		lo = d
	}
	if d := a.In + a.Pad - o*a.Stride; d < hi {
		hi = d
	}
	return lo, hi, o*a.Stride + lo - a.Pad
}

// MaxRun bounds a run of outputs: long enough that a kernel call's cost
// and one block of weights are spread over many pixels, short enough
// that the run's inputs, outputs and int32 accumulators stay in L1
// while the kernel passes over them once per block of output lanes.
const MaxRun = 64

// Run is Taps for the longest run of outputs [o, o+n), n <= MaxRun,
// below end that share o's taps: the outputs with a whole window run
// together (consecutive ones read inputs Stride apart); an output whose
// window is clipped runs alone.
func (a Axis) Run(o, end int) (n, lo, hi, first int) {
	if o < a.fullLo || o >= a.fullHi {
		lo, hi, first = a.Taps(o)
		return 1, lo, hi, first
	}
	return min(end, o+MaxRun, a.fullHi) - o, 0, a.Kernel, o*a.Stride - a.Pad
}

// ConvAxes returns the row and column axes of a 2-D convolution over an
// h x w input. A 1x1 stride-1 convolution reads exactly the pixel it
// writes, so its oh x ow outputs are one row of h*w pixels: even a
// 5-wide map then runs as one tile run instead of 5-pixel rows.
func ConvAxes(h, w, kernel, stride int, pad Padding) (y, x Axis) {
	if kernel == 1 && stride <= 1 {
		return NewAxis(1, 1, 1, Valid), NewAxis(h*w, 1, 1, Valid)
	}
	return NewAxis(h, kernel, stride, pad), NewAxis(w, kernel, stride, pad)
}

// Package models is the model zoo: the architectures used by the paper's
// evaluation (Sec. 5.1). KWSDSCNN, VWWMobileNetV1 and CIFARCNN correspond
// to the three MLPerf-Tiny-derived workloads of Tables 2 and 4; Conv1DStack
// and MobileNetV2Audio are the families the EON Tuner explores in Table 3.
package models

import (
	"fmt"

	"edgepulse/internal/nn"
)

// KWSDSCNN builds the depthwise-separable CNN used for keyword spotting
// (a DS-CNN in the spirit of Sørensen et al.): an initial strided
// convolution followed by depthwise-separable blocks and global pooling.
// Input is an MFCC/MFE feature matrix [frames, coeffs]; classes is the
// number of keywords. ~2.6M MACs at the paper's 49×10 input.
func KWSDSCNN(frames, coeffs, classes int) *nn.Model {
	m := nn.NewModel(frames, coeffs)
	m.NumClasses = classes
	m.Add(nn.NewReshape(frames, coeffs, 1)).
		Add(nn.NewConv2D(64, 4, 2, nn.Same, nn.ReLU))
	for i := 0; i < 4; i++ {
		m.Add(nn.NewDepthwiseConv2D(3, 1, nn.Same, nn.ReLU)).
			Add(nn.NewConv2D(64, 1, 1, nn.Same, nn.ReLU))
	}
	m.Add(nn.NewGlobalAvgPool2D()).
		Add(nn.NewDropout(0.2)).
		Add(nn.NewDense(classes, nn.None)).
		Add(nn.NewSoftmax())
	return m
}

// dsBlock appends a MobileNetV1 depthwise-separable block.
func dsBlock(m *nn.Model, pointwiseFilters, stride int) {
	m.Add(nn.NewDepthwiseConv2D(3, stride, nn.Same, nn.ReLU6)).
		Add(nn.NewConv2D(pointwiseFilters, 1, 1, nn.Same, nn.ReLU6))
}

// VWWMobileNetV1 builds a MobileNetV1 with the given width multiplier for
// the visual wake words task ([size, size, channels] input, binary
// person/no-person head by default). alpha=0.25 at 96×96×3 gives the
// paper's ~7.5M MAC / ~220k parameter configuration.
func VWWMobileNetV1(size, channels int, alpha float64, classes int) *nn.Model {
	scale := func(c int) int {
		n := int(float64(c) * alpha)
		if n < 4 {
			n = 4
		}
		return n
	}
	m := nn.NewModel(size, size, channels)
	m.NumClasses = classes
	m.Add(nn.NewConv2D(scale(32), 3, 2, nn.Same, nn.ReLU6))
	type blk struct{ filters, stride int }
	blocks := []blk{
		{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1}, {512, 2},
		{512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {1024, 2}, {1024, 1},
	}
	for _, b := range blocks {
		dsBlock(m, scale(b.filters), b.stride)
	}
	m.Add(nn.NewGlobalAvgPool2D()).
		Add(nn.NewDropout(0.1)).
		Add(nn.NewDense(classes, nn.None)).
		Add(nn.NewSoftmax())
	return m
}

// CIFARCNN builds the "simple convolutional neural network" the paper
// trains on CIFAR-10: two conv/pool stages and a dense classifier head
// (~1.3M MACs, ~20k parameters at 32×32×3).
func CIFARCNN(size, channels, classes int) *nn.Model {
	m := nn.NewModel(size, size, channels)
	m.NumClasses = classes
	m.Add(nn.NewConv2D(16, 3, 1, nn.Same, nn.ReLU)).
		Add(nn.NewMaxPool2D(2, 2)).
		Add(nn.NewConv2D(24, 3, 1, nn.Same, nn.ReLU)).
		Add(nn.NewMaxPool2D(2, 2)).
		Add(nn.NewFlatten()).
		Add(nn.NewDropout(0.2)).
		Add(nn.NewDense(classes, nn.None)).
		Add(nn.NewSoftmax())
	return m
}

// Conv1DStack builds the 1-D convolutional family the EON Tuner sweeps in
// Table 3 ("4x conv1d (32 to 256)"): depth conv1d layers whose filter
// counts double from startFilters up to endFilters, each followed by max
// pooling, with a global flatten + dense head. Input is [frames, coeffs].
func Conv1DStack(frames, coeffs, depth, startFilters, endFilters, classes int) (*nn.Model, error) {
	if depth < 1 {
		return nil, fmt.Errorf("models: conv1d stack depth must be >= 1")
	}
	m := nn.NewModel(frames, coeffs)
	m.NumClasses = classes
	filters := startFilters
	for i := 0; i < depth; i++ {
		stride := 1
		if i == 0 {
			stride = 2 // cheap first layer, as in the platform's presets
		}
		m.Add(nn.NewConv1D(filters, 3, stride, nn.Same, nn.ReLU)).
			Add(nn.NewMaxPool1D(2, 2))
		if filters*2 <= endFilters {
			filters *= 2
		}
	}
	m.Add(nn.NewFlatten()).
		Add(nn.NewDropout(0.25)).
		Add(nn.NewDense(classes, nn.None)).
		Add(nn.NewSoftmax())
	if _, err := m.OutputShape(); err != nil {
		return nil, err
	}
	return m, nil
}

// MobileNetV2Audio builds the MobileNetV2-width model appearing at the
// top of the paper's Table 3 ("MobileNetV2 0.35"), adapted to a
// [frames, mels] audio spectrogram input. Inverted-bottleneck blocks are
// approximated without residual shortcuts (our graph is sequential); the
// expansion → depthwise → projection structure and cost profile are
// preserved.
func MobileNetV2Audio(frames, mels int, alpha float64, classes int) *nn.Model {
	scale := func(c int) int {
		n := int(float64(c) * alpha)
		if n < 4 {
			n = 4
		}
		return n
	}
	m := nn.NewModel(frames, mels)
	m.NumClasses = classes
	m.Add(nn.NewReshape(frames, mels, 1)).
		Add(nn.NewConv2D(scale(32), 3, 2, nn.Same, nn.ReLU6))
	type blk struct{ expand, out, stride int }
	blocks := []blk{
		{1, 16, 1}, {6, 24, 2}, {6, 24, 1}, {6, 32, 2}, {6, 32, 1}, {6, 32, 1},
		{6, 64, 2}, {6, 64, 1}, {6, 64, 1}, {6, 64, 1}, {6, 96, 1}, {6, 96, 1},
		{6, 96, 1}, {6, 160, 1}, {6, 160, 1}, {6, 320, 1},
	}
	for _, b := range blocks {
		in := scale(b.out) // approximation: expansion relative to output width
		if b.expand > 1 {
			m.Add(nn.NewConv2D(in*b.expand, 1, 1, nn.Same, nn.ReLU6))
		}
		m.Add(nn.NewDepthwiseConv2D(3, b.stride, nn.Same, nn.ReLU6)).
			Add(nn.NewConv2D(scale(b.out), 1, 1, nn.Same, nn.None))
	}
	m.Add(nn.NewConv2D(scale(1280), 1, 1, nn.Same, nn.ReLU6)).
		Add(nn.NewGlobalAvgPool2D()).
		Add(nn.NewDense(classes, nn.None)).
		Add(nn.NewSoftmax())
	return m
}

// TinyMLP is a small dense network for low-dimensional feature vectors
// (spectral features, flatten block outputs).
func TinyMLP(inputs, hidden, classes int) *nn.Model {
	m := nn.NewModel(inputs)
	m.NumClasses = classes
	m.Add(nn.NewDense(hidden, nn.ReLU)).
		Add(nn.NewDense(hidden/2, nn.ReLU)).
		Add(nn.NewDense(classes, nn.None)).
		Add(nn.NewSoftmax())
	return m
}

// Describe returns a short human-readable architecture string, e.g.
// "conv2d(64)->dw->... (123k params, 2.6M MACs)".
func Describe(m *nn.Model) string {
	params := m.ParamCount()
	macs := m.MACs()
	return fmt.Sprintf("%d layers, %s params, %s MACs",
		len(m.Layers), humanCount(int64(params)), humanCount(macs))
}

func humanCount(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprint(n)
	}
}

package quant

import (
	"fmt"
	"math"

	"edgepulse/internal/nn"
)

// FoldBatchNorm returns a copy of the model with every BatchNorm layer
// folded into the preceding convolution or dense layer — the operator
// fusion step the paper lists among its out-of-the-box compression
// techniques (Sec. 4.5). The returned model computes the same function
// (up to float rounding) with fewer ops.
func FoldBatchNorm(m *nn.Model) (*nn.Model, error) {
	folded, err := m.Clone()
	if err != nil {
		return nil, err
	}
	var kept []nn.Layer
	for _, l := range folded.Layers {
		bn, ok := l.(*nn.BatchNorm)
		if !ok {
			kept = append(kept, l)
			continue
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("quant: batchnorm with no preceding layer")
		}
		prev := kept[len(kept)-1]
		if err := foldInto(prev, bn); err != nil {
			return nil, err
		}
	}
	folded.Layers = kept
	if _, err := folded.OutputShape(); err != nil {
		return nil, err
	}
	return folded, nil
}

func isBatchNorm(l nn.Layer) bool {
	_, ok := l.(*nn.BatchNorm)
	return ok
}

// foldInto rewrites prev's weights so that prev(x) == bn(prev_old(x)).
// Requires prev to have no nonlinearity after its affine part... since our
// layers fuse activations, folding is only valid when prev.Act == None or
// the activation commutes with positive scaling (ReLU with gamma > 0).
func foldInto(prev nn.Layer, bn *nn.BatchNorm) error {
	ch := len(bn.Gamma.Data)
	scale := make([]float32, ch)
	shift := make([]float32, ch)
	for c := 0; c < ch; c++ {
		inv := float32(1 / math.Sqrt(float64(bn.Var.Data[c]+bn.Eps)))
		scale[c] = bn.Gamma.Data[c] * inv
		shift[c] = bn.Beta.Data[c] - bn.Mean.Data[c]*scale[c]
	}
	applyPerChannel := func(w []float32, outChannels, chStride int, b []float32, act nn.Activation) error {
		if act != nn.None {
			for c := 0; c < ch; c++ {
				if scale[c] < 0 {
					return fmt.Errorf("quant: cannot fold batchnorm with negative gamma through %v", act)
				}
			}
		}
		for i := range w {
			c := (i / chStride) % outChannels
			w[i] *= scale[c]
		}
		for c := range b {
			b[c] = b[c]*scale[c] + shift[c]
		}
		return nil
	}
	switch v := prev.(type) {
	case *nn.Conv2D:
		if v.Filters != ch {
			return fmt.Errorf("quant: batchnorm channels %d != conv filters %d", ch, v.Filters)
		}
		// W layout [k,k,cin,f]: filter index has stride 1.
		return applyPerChannel(v.W.Data, v.Filters, 1, v.B.Data, v.Act)
	case *nn.DepthwiseConv2D:
		if len(v.B.Data) != ch {
			return fmt.Errorf("quant: batchnorm channels %d != depthwise channels %d", ch, len(v.B.Data))
		}
		return applyPerChannel(v.W.Data, ch, 1, v.B.Data, v.Act)
	case *nn.Conv1D:
		if v.Filters != ch {
			return fmt.Errorf("quant: batchnorm channels %d != conv1d filters %d", ch, v.Filters)
		}
		return applyPerChannel(v.W.Data, v.Filters, 1, v.B.Data, v.Act)
	case *nn.Dense:
		if v.Units != ch {
			return fmt.Errorf("quant: batchnorm channels %d != dense units %d", ch, v.Units)
		}
		return applyPerChannel(v.W.Data, v.Units, 1, v.B.Data, v.Act)
	default:
		return fmt.Errorf("quant: cannot fold batchnorm into %s", prev.Kind())
	}
}

package nn

import (
	"math"
	"math/rand"
)

// InitWeights initializes all trainable weights with fan-in-scaled
// Gaussian noise (He initialization for ReLU-family activations, Glorot
// otherwise) and zero biases, as Model.Add allocated them. It validates
// the layer stack first. Deterministic for a given seed.
func InitWeights(m *Model, seed int64) error {
	if _, err := m.OutputShape(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, l := range m.Layers {
		switch v := l.(type) {
		case *Dense:
			fanIn := v.W.Shape[0]
			initTensor(rng, v.W.Data, fanIn, v.Act)
		case *Conv2D:
			fanIn := v.Kernel * v.Kernel * v.W.Shape[2]
			initTensor(rng, v.W.Data, fanIn, v.Act)
		case *DepthwiseConv2D:
			fanIn := v.Kernel * v.Kernel
			initTensor(rng, v.W.Data, fanIn, v.Act)
		case *Conv1D:
			fanIn := v.Kernel * v.W.Shape[1]
			initTensor(rng, v.W.Data, fanIn, v.Act)
		}
	}
	return nil
}

func initTensor(rng *rand.Rand, data []float32, fanIn int, act Activation) {
	var std float64
	switch act {
	case ReLU, ReLU6:
		std = math.Sqrt(2 / float64(fanIn)) // He
	default:
		std = math.Sqrt(1 / float64(fanIn)) // Glorot-ish
	}
	for i := range data {
		data[i] = float32(rng.NormFloat64() * std)
	}
}

// InitClassifierBias sets the bias of the final Dense layer to the log of
// the class priors, one of the training stabilizers the paper lists
// ("classifier bias initialisation", Sec. 4.3). Priors must sum to ~1.
func InitClassifierBias(m *Model, priors []float64) {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if d, ok := m.Layers[i].(*Dense); ok {
			if d.B == nil || len(d.B.Data) != len(priors) {
				return
			}
			for j, p := range priors {
				if p < 1e-9 {
					p = 1e-9
				}
				d.B.Data[j] = float32(math.Log(p))
			}
			return
		}
	}
}

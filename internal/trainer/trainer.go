// Package trainer implements model training for the edgepulse platform
// (paper Sec. 4.3): a single-machine SGD/Adam loop with the stabilizers
// the paper calls out — learning-rate finding, classifier bias
// initialization and best-model checkpoint restoration — plus the
// evaluation tooling (confusion matrix, per-class F1) behind the
// platform's model testing page.
package trainer

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"

	"edgepulse/internal/nn"
	"edgepulse/internal/tensor"
)

// Example is one labeled training sample: a feature tensor and its class.
type Example struct {
	X *tensor.F32
	Y int
}

// Config controls a training run.
type Config struct {
	// Epochs is the number of passes over the training split.
	Epochs int
	// BatchSize is the gradient accumulation size (samples are processed
	// one at a time, microcontroller-kernel style, but updates are
	// batched).
	BatchSize int
	// LearningRate is the initial step size. Zero means "find one": a
	// short range test on copies of the model picks it.
	LearningRate float64
	// Optimizer is "adam" (default) or "sgd".
	Optimizer string
	// Momentum applies to SGD only.
	Momentum float64
	// ValidationSplit is the fraction of data held out for validation
	// (default 0.2 when RestoreBest is set).
	ValidationSplit float64
	// RestoreBest restores the weights from the epoch with the highest
	// validation accuracy ("best model checkpoint restoration").
	RestoreBest bool
	// Seed seeds the train/validation split and the per-epoch shuffle.
	// Dropout masks do not depend on it: each dropout layer draws from
	// its own rand.NewSource(42) stream, restarted by every Train (see
	// nn.NewTrainState).
	Seed int64
	// Log receives per-epoch progress lines; nil discards them.
	Log io.Writer
	// Ctx cancels training cooperatively: it is observed between
	// gradient batches, so a cancelled run stops mid-epoch rather than
	// finishing the pass (nil = never cancelled).
	Ctx context.Context
	// Progress receives (epoch, total) after each completed epoch —
	// the structured progress feed behind the platform's job events.
	Progress func(epoch, total int)
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.Optimizer == "" {
		c.Optimizer = "adam"
	}
	if c.ValidationSplit <= 0 && c.RestoreBest {
		c.ValidationSplit = 0.2
	}
	return c
}

// Result summarizes a training run.
type Result struct {
	// TrainLoss holds the mean cross-entropy per epoch.
	TrainLoss []float64
	// ValAccuracy holds validation accuracy per epoch (empty without a
	// validation split).
	ValAccuracy []float64
	// BestEpoch is the epoch whose weights were kept (RestoreBest).
	BestEpoch int
	// LearningRate is the step size actually used.
	LearningRate float64
}

// Train fits the model in place. The model's final layer must be Softmax;
// the loss is categorical cross-entropy with the fused softmax gradient.
func Train(m *nn.Model, data []Example, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("trainer: no training data")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	st, err := nn.NewTrainState(m)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Train/validation split.
	idx := rng.Perm(len(data))
	nVal := int(cfg.ValidationSplit * float64(len(data)))
	val := make([]Example, 0, nVal)
	train := make([]Example, 0, len(data)-nVal)
	for i, j := range idx {
		if i < nVal {
			val = append(val, data[j])
		} else {
			train = append(train, data[j])
		}
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("trainer: validation split %.2f leaves no training data", cfg.ValidationSplit)
	}

	lr := cfg.LearningRate
	if lr <= 0 {
		lr = findLR(m, train)
	}

	// Class-prior bias initialization.
	priors := make([]float64, m.NumClasses)
	for _, ex := range train {
		if ex.Y >= 0 && ex.Y < m.NumClasses {
			priors[ex.Y] += 1 / float64(len(train))
		}
	}
	nn.InitClassifierBias(m, priors)

	opt := newOptimizer(cfg.Optimizer, lr, cfg.Momentum, m.Params(), st.Grads())

	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{LearningRate: lr}
	bestAcc := -1.0
	var bestWeights [][]float32

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(train))
		var lossSum float64
		st.ZeroGrads()
		inBatch := 0
		for _, j := range perm {
			ex := train[j]
			probs, err := st.Forward(ex.X)
			if err != nil {
				return nil, fmt.Errorf("trainer: %w", err)
			}
			lossSum += crossEntropy(probs, ex.Y)
			st.Backward(ex.Y)
			inBatch++
			if inBatch == cfg.BatchSize {
				opt.Step(float32(1 / float64(inBatch)))
				st.ZeroGrads()
				inBatch = 0
				// Cooperative cancellation at batch granularity: a
				// cancelled job abandons the rest of the epoch.
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("trainer: training cancelled in epoch %d: %w", epoch+1, err)
				}
			}
		}
		if inBatch > 0 {
			opt.Step(float32(1 / float64(inBatch)))
			st.ZeroGrads()
		}
		res.TrainLoss = append(res.TrainLoss, lossSum/float64(len(train)))

		if len(val) > 0 {
			acc := Accuracy(m, val)
			res.ValAccuracy = append(res.ValAccuracy, acc)
			if acc > bestAcc {
				bestAcc = acc
				res.BestEpoch = epoch
				bestWeights = snapshot(m)
			}
			logf(cfg.Log, "epoch %d/%d loss=%.4f val_acc=%.3f\n", epoch+1, cfg.Epochs, res.TrainLoss[epoch], acc)
		} else {
			logf(cfg.Log, "epoch %d/%d loss=%.4f\n", epoch+1, cfg.Epochs, res.TrainLoss[epoch])
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch+1, cfg.Epochs)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("trainer: training cancelled after epoch %d: %w", epoch+1, err)
		}
	}
	if cfg.RestoreBest && bestWeights != nil {
		restore(m, bestWeights)
	}
	return res, nil
}

func crossEntropy(probs []float32, y int) float64 {
	p := float64(probs[y])
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}

func snapshot(m *nn.Model) [][]float32 {
	params := m.Params()
	out := make([][]float32, len(params))
	for i, p := range params {
		out[i] = append([]float32(nil), p.Data...)
	}
	return out
}

func restore(m *nn.Model, weights [][]float32) {
	for i, p := range m.Params() {
		copy(p.Data, weights[i])
	}
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// findLR implements a small learning-rate range test: it probes a grid of
// learning rates on a copy of the model for a handful of steps each and
// returns the rate with the best short-horizon loss decrease. The copies
// train without their dropout layers, so the probes draw no mask.
func findLR(m *nn.Model, data []Example) float64 {
	candidates := []float64{0.1, 0.03, 0.01, 0.003, 0.001}
	if len(data) == 0 {
		return 0.01
	}
	probe := data
	if len(probe) > 64 {
		probe = probe[:64]
	}
	best, bestLoss := 0.01, math.Inf(1)
	for _, lr := range candidates {
		c, err := m.Clone()
		if err != nil {
			return 0.01
		}
		c.Layers = slices.DeleteFunc(c.Layers, func(l nn.Layer) bool {
			_, drop := l.(*nn.Dropout)
			return drop
		})
		st, err := nn.NewTrainState(c)
		if err != nil {
			return 0.01
		}
		opt := newOptimizer("adam", lr, 0, c.Params(), st.Grads())
		var finalLoss float64
		diverged := false
		for step := 0; step < 3 && !diverged; step++ {
			st.ZeroGrads()
			finalLoss = 0
			for _, ex := range probe {
				probs, err := st.Forward(ex.X)
				if err != nil {
					return 0.01
				}
				finalLoss += crossEntropy(probs, ex.Y)
				st.Backward(ex.Y)
			}
			finalLoss /= float64(len(probe))
			if math.IsNaN(finalLoss) || math.IsInf(finalLoss, 0) {
				diverged = true
				break
			}
			opt.Step(float32(1 / float64(len(probe))))
		}
		if !diverged && finalLoss < bestLoss {
			bestLoss = finalLoss
			best = lr
		}
	}
	return best
}

// Accuracy computes top-1 accuracy of the model on examples.
func Accuracy(m *nn.Model, data []Example) float64 {
	if len(data) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range data {
		if m.Forward(ex.X).ArgMax() == ex.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}

// Confusion computes the confusion matrix C[actual][predicted].
func Confusion(m *nn.Model, data []Example, numClasses int) [][]int {
	c := make([][]int, numClasses)
	for i := range c {
		c[i] = make([]int, numClasses)
	}
	for _, ex := range data {
		pred := m.Forward(ex.X).ArgMax()
		if ex.Y >= 0 && ex.Y < numClasses && pred >= 0 && pred < numClasses {
			c[ex.Y][pred]++
		}
	}
	return c
}

// F1Scores derives per-class F1 from a confusion matrix.
func F1Scores(confusion [][]int) []float64 {
	n := len(confusion)
	out := make([]float64, n)
	for c := 0; c < n; c++ {
		tp := confusion[c][c]
		var fp, fn int
		for o := 0; o < n; o++ {
			if o == c {
				continue
			}
			fp += confusion[o][c]
			fn += confusion[c][o]
		}
		denom := float64(2*tp + fp + fn)
		if denom > 0 {
			out[c] = 2 * float64(tp) / denom
		}
	}
	return out
}

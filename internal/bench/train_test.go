package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/simd/simdtest"
	"edgepulse/internal/tensor"
	"edgepulse/internal/trainer"
)

// paramDigest is the SHA-256 of every trainable parameter of a model, in
// Params order, each float entering as its bits.
func paramDigest(m *nn.Model) string {
	h := sha256.New()
	for _, p := range m.Params() {
		binary.Write(h, binary.LittleEndian, uint64(len(p.Data)))
		for _, v := range p.Data {
			binary.Write(h, binary.LittleEndian, math.Float32bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// syntheticExamples draws n seeded normal feature tensors of the model's
// input shape, labelled round-robin over its classes.
func syntheticExamples(m *nn.Model, n int, seed int64) []trainer.Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trainer.Example, n)
	for i := range out {
		x := tensor.NewF32(m.InputShape...)
		for j := range x.Data {
			x.Data[j] = float32(rng.NormFloat64())
		}
		out[i] = trainer.Example{X: x, Y: i % m.NumClasses}
	}
	return out
}

// avgPoolModel is the one layer kind no reference model has, between a
// convolution and a dense head.
func avgPoolModel() *nn.Model {
	m := nn.NewModel(8, 8, 2)
	m.NumClasses = 3
	m.Add(nn.NewConv2D(4, 3, 1, nn.Same, nn.ReLU)).
		Add(nn.NewAvgPool2D(2, 2)).
		Add(nn.NewFlatten()).
		Add(nn.NewDense(3, nn.None)).
		Add(nn.NewSoftmax())
	return m
}

// TestTrainDigests pins what training produces, bit for bit: each case
// trains a freshly built, seeded model once on synthetic examples and
// hashes every parameter, on every simd tier. Between them the cases run
// every trainable layer kind, both optimizers, dropout, best-checkpoint
// restoration and the learning-rate finder. A digest may only change in
// a change that says why.
func TestTrainDigests(t *testing.T) {
	simdtest.ForEachTier(t, func(t *testing.T) {
		conv1d, err := models.Conv1DStack(49, 13, 3, 8, 32, 4)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name string
			m    *nn.Model
			n    int
			cfg  trainer.Config
			want string
		}{
			{"kws_dscnn_adam", models.KWSDSCNN(49, 10, 4), 8,
				trainer.Config{Epochs: 2, BatchSize: 4, LearningRate: 0.003, Seed: 1}, "e9385bd8550a709e22ece0c5f55cf4652e9e6274bb75fc559989e4b24e154d0a"},
			{"conv1d_stack_sgd", conv1d, 16,
				trainer.Config{Epochs: 3, BatchSize: 4, LearningRate: 0.01, Optimizer: "sgd", Momentum: 0.9, Seed: 2}, "0f4a3f4b3aff0a3e913bde5ffb47c07cb0bf8198506766d73e51daaa258105ff"},
			{"cifar_cnn_adam_restore", models.CIFARCNN(32, 3, 10), 10,
				trainer.Config{Epochs: 2, BatchSize: 4, LearningRate: 0.003, RestoreBest: true, Seed: 3}, "0962af2a49a45aa067765ae8e5dc8c0f86bf31de1e7c0f67e4c6a619bbac7300"},
			{"mobilenetv2_audio_sgd", models.MobileNetV2Audio(32, 24, 0.35, 4), 6,
				trainer.Config{Epochs: 2, BatchSize: 3, LearningRate: 0.01, Optimizer: "sgd", Seed: 4}, "f6f2bd1dbab5163a9690b77b274081ebc22b5151b329a6904238c55e6a3ed3b0"},
			{"batchnorm_dropout_adam", foldedDropoutModel(), 12,
				trainer.Config{Epochs: 3, BatchSize: 4, LearningRate: 0.003, Seed: 5}, "1e0ab59ee06deea3feaa93b668217b61417610e5897dc05ba820ac8d5258beaa"},
			{"avgpool_adam", avgPoolModel(), 12,
				trainer.Config{Epochs: 3, BatchSize: 4, LearningRate: 0.003, Seed: 6}, "b64f52aa7dabcb1caa0e753786f3e4f1688610c8145dd1e279be7855daeaf8ce"},
			{"tiny_mlp_findlr", models.TinyMLP(33, 20, 3), 24,
				trainer.Config{Epochs: 3, BatchSize: 8, Seed: 7}, "42edfb8a896665e93ee3ce0529c369ed7dda155a818279773375615e328c99a2"},
		}
		for i, c := range cases {
			if err := nn.InitWeights(c.m, int64(60+i)); err != nil {
				t.Fatal(err)
			}
			if _, err := trainer.Train(c.m, syntheticExamples(c.m, c.n, int64(70+i)), c.cfg); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := paramDigest(c.m); got != c.want {
				t.Errorf("%s: parameter digest %s, want %s", c.name, got, c.want)
			}
		}
	})
}

package trainer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgepulse/internal/nn"
	"edgepulse/internal/tensor"
)

// blobs generates a linearly separable 2-class dataset in R^4.
func blobs(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, n)
	for i := range out {
		y := i % 2
		x := tensor.NewF32(4)
		center := float32(-1)
		if y == 1 {
			center = 1
		}
		for j := range x.Data {
			x.Data[j] = center + float32(rng.NormFloat64()*0.4)
		}
		out[i] = Example{X: x, Y: y}
	}
	return out
}

func mlp(seed int64) *nn.Model {
	m := nn.NewModel(4)
	m.NumClasses = 2
	m.Add(nn.NewDense(8, nn.ReLU)).Add(nn.NewDense(2, nn.None)).Add(nn.NewSoftmax())
	nn.InitWeights(m, seed)
	return m
}

func TestTrainLearnsBlobs(t *testing.T) {
	m := mlp(1)
	data := blobs(200, 2)
	res, err := Train(m, data, Config{Epochs: 15, LearningRate: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, data); acc < 0.95 {
		t.Fatalf("accuracy %.3f after training, want > 0.95", acc)
	}
	if len(res.TrainLoss) != 15 {
		t.Fatalf("got %d loss entries", len(res.TrainLoss))
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0] {
		t.Errorf("loss did not decrease: %g -> %g", res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1])
	}
}

func TestTrainSGD(t *testing.T) {
	m := mlp(4)
	data := blobs(200, 5)
	_, err := Train(m, data, Config{Epochs: 20, LearningRate: 0.05, Optimizer: "sgd", Momentum: 0.9, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, data); acc < 0.9 {
		t.Fatalf("SGD accuracy %.3f, want > 0.9", acc)
	}
}

func TestTrainValidationAndRestore(t *testing.T) {
	m := mlp(7)
	data := blobs(300, 8)
	var log strings.Builder
	res, err := Train(m, data, Config{
		Epochs: 8, LearningRate: 0.01, Seed: 9,
		ValidationSplit: 0.25, RestoreBest: true, Log: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValAccuracy) != 8 {
		t.Fatalf("got %d val entries", len(res.ValAccuracy))
	}
	if res.BestEpoch < 0 || res.BestEpoch >= 8 {
		t.Fatalf("best epoch %d", res.BestEpoch)
	}
	if !strings.Contains(log.String(), "val_acc") {
		t.Error("log missing val_acc")
	}
}

func TestTrainErrors(t *testing.T) {
	m := mlp(1)
	if _, err := Train(m, nil, Config{}); err == nil {
		t.Error("accepted empty data")
	}
	noSoftmax := nn.NewModel(4)
	noSoftmax.NumClasses = 2
	noSoftmax.Add(nn.NewDense(2, nn.None))
	nn.InitWeights(noSoftmax, 1)
	if _, err := Train(noSoftmax, blobs(10, 1), Config{}); err == nil {
		t.Error("accepted model without softmax")
	}
	empty := nn.NewModel(4)
	if _, err := Train(empty, blobs(10, 1), Config{}); err == nil {
		t.Error("accepted empty model")
	}
}

func TestFindLRReturnsCandidate(t *testing.T) {
	m := mlp(10)
	lr := findLR(m, blobs(64, 11))
	valid := map[float64]bool{0.1: true, 0.03: true, 0.01: true, 0.003: true, 0.001: true}
	if !valid[lr] {
		t.Fatalf("findLR returned %g", lr)
	}
	if lr2 := findLR(m, nil); lr2 != 0.01 {
		t.Fatalf("empty-data findLR = %g, want default 0.01", lr2)
	}
}

func TestTrainAutoLR(t *testing.T) {
	m := mlp(13)
	res, err := Train(m, blobs(100, 14), Config{Epochs: 5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.LearningRate <= 0 {
		t.Fatalf("auto LR = %g", res.LearningRate)
	}
}

func TestConfusionAndF1(t *testing.T) {
	m := mlp(16)
	data := blobs(200, 17)
	Train(m, data, Config{Epochs: 15, LearningRate: 0.01, Seed: 18})
	conf := Confusion(m, data, 2)
	total := 0
	for _, row := range conf {
		for _, v := range row {
			total += v
		}
	}
	if total != 200 {
		t.Fatalf("confusion total %d", total)
	}
	f1 := F1Scores(conf)
	if len(f1) != 2 {
		t.Fatal("f1 length")
	}
	for c, v := range f1 {
		if v < 0.9 {
			t.Errorf("class %d F1 = %.3f", c, v)
		}
	}
}

func TestF1KnownValues(t *testing.T) {
	// Perfect predictions: F1 = 1 everywhere.
	conf := [][]int{{10, 0}, {0, 10}}
	for _, v := range F1Scores(conf) {
		if v != 1 {
			t.Fatal("perfect F1 != 1")
		}
	}
	// Degenerate: never predicts class 1.
	conf = [][]int{{10, 0}, {10, 0}}
	f1 := F1Scores(conf)
	if f1[1] != 0 {
		t.Fatalf("f1[1] = %g", f1[1])
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if Accuracy(mlp(1), nil) != 0 {
		t.Fatal("empty accuracy != 0")
	}
}

func TestAdamStepDirection(t *testing.T) {
	// One parameter with positive gradient: Adam must decrease it.
	p := tensor.MustFromSlice([]float32{1}, 1)
	g := tensor.MustFromSlice([]float32{2}, 1)
	a := newAdam(0.1, []*tensor.F32{p}, []*tensor.F32{g})
	a.Step(1)
	if p.Data[0] >= 1 {
		t.Fatalf("adam did not descend: %g", p.Data[0])
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := tensor.MustFromSlice([]float32{0}, 1)
	g := tensor.MustFromSlice([]float32{1}, 1)
	s := newSGD(0.1, 0.9, []*tensor.F32{p}, []*tensor.F32{g})
	s.Step(1)
	first := p.Data[0]
	s.Step(1)
	second := p.Data[0] - first
	if math.Abs(float64(second)) <= math.Abs(float64(first)) {
		t.Fatalf("momentum did not accelerate: step1 %g step2 %g", first, second)
	}
}

func TestCrossEntropyClamp(t *testing.T) {
	l := crossEntropy([]float32{0, 1}, 0)
	if math.IsInf(l, 0) || math.IsNaN(l) {
		t.Fatal("cross entropy overflow on zero prob")
	}
}

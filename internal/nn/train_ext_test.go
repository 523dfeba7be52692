package nn_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/tensor"
)

// sampleGrads computes one sample's gradients in a fresh TrainState.
func sampleGrads(m *nn.Model, x *tensor.F32, label int) ([]*tensor.F32, error) {
	s, err := nn.NewTrainState(m)
	if err != nil {
		return nil, err
	}
	if _, err := s.Forward(x); err != nil {
		return nil, err
	}
	s.Backward(label)
	return s.Grads(), nil
}

// TestTrainStateConcurrent trains one kws model (which carries a
// dropout) from two goroutines, each into its own TrainState, while a
// third serves Forward on it (run it under -race): each gradient set
// equals a sequential run's bit for bit.
func TestTrainStateConcurrent(t *testing.T) {
	m := models.KWSDSCNN(49, 10, 12)
	if err := nn.InitWeights(m, 3); err != nil {
		t.Fatal(err)
	}
	ins := randInputs(rand.New(rand.NewSource(4)), m.InputShape, 3)
	want := make([][]*tensor.F32, 2)
	for i := range want {
		var err error
		if want[i], err = sampleGrads(m, ins[i], i); err != nil {
			t.Fatal(err)
		}
	}
	serving := m.Forward(ins[2])

	got := make([][]*tensor.F32, 2)
	errs := make([]error, 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = sampleGrads(m, ins[i], i)
		}()
	}
	served := make(chan bool)
	go func() {
		same := true
		for {
			select {
			case <-done:
				served <- same
				return
			default:
			}
			out := m.Forward(ins[2])
			for j := range out.Data {
				same = same && math.Float32bits(out.Data[j]) == math.Float32bits(serving.Data[j])
			}
		}
	}()
	wg.Wait()
	close(done)
	if !<-served {
		t.Error("Forward changed while the model trained")
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for p := range want[i] {
			for j, w := range want[i][p].Data {
				if math.Float32bits(got[i][p].Data[j]) != math.Float32bits(w) {
					t.Fatalf("goroutine %d: parameter %d gradient elem %d = %v, sequential %v", i, p, j, got[i][p].Data[j], w)
				}
			}
		}
	}
}

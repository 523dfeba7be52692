package nn_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/tensor"
)

// BenchmarkRowSplit is the measurement behind parallelMACThreshold. For
// every convolution of the three reference models, then for a ladder of
// 64-to-64-channel pointwise layers over growing maps, it alternates
// the layer on one worker with the layer split across two (a pinned
// width splits whatever the size) and prints the median of each over
// the b.N pairs. The sequential run before every split run leaves the
// pool's worker as idle as a forward pass of unsplit layers leaves it.
// It prints only for b.N >= 21:
//
//	go test ./internal/nn -run '^$' -bench RowSplit -benchtime 41x
func BenchmarkRowSplit(b *testing.B) {
	type layer struct {
		name string
		l    nn.Layer
		in   tensor.Shape
	}
	var layers []layer
	for _, m := range []struct {
		id    string
		model *nn.Model
	}{
		{"kws", models.KWSDSCNN(49, 10, 12)},
		{"vww", models.VWWMobileNetV1(96, 3, 0.25, 2)},
		{"ic", models.CIFARCNN(32, 3, 10)},
	} {
		shape := m.model.InputShape
		for i, l := range m.model.Layers {
			if l.MACs(shape) > 0 && l.Kind() != "dense" {
				layers = append(layers, layer{fmt.Sprintf("%s/%d %s", m.id, i, l.Kind()), l, shape})
			}
			var err error
			if shape, err = l.OutShape(shape); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, side := range []int{12, 24, 34, 48, 56, 62, 68, 96} {
		layers = append(layers, layer{"ladder conv2d", nn.NewConv2D(64, 1, 1, nn.Same, nn.ReLU), tensor.Shape{side, side, 64}})
	}
	defer nn.SetConvWorkers(nn.SetConvWorkers(0))
	rng := rand.New(rand.NewSource(1))
	for _, c := range layers {
		outShape, err := c.l.OutShape(c.in)
		if err != nil {
			b.Fatal(err)
		}
		in, out := tensor.NewF32(c.in...), tensor.NewF32(outShape...)
		for _, t := range append(c.l.Params(), in) {
			for i := range t.Data {
				t.Data[i] = rng.Float32() - 0.5
			}
		}
		times := [2][]time.Duration{}
		for n := -1; n < b.N; n++ { // pair -1 warms up
			for w := range times {
				nn.SetConvWorkers(w + 1)
				t0 := time.Now()
				c.l.InferInto(in, out)
				if dt := time.Since(t0); n >= 0 {
					times[w] = append(times[w], dt)
				}
			}
		}
		if b.N < 21 {
			continue
		}
		var med [2]float64
		for w, d := range times {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			med[w] = float64(d[len(d)/2]) / 1e3
		}
		fmt.Printf("%-28s %-14v %9d MACs  1 worker %7.1f us  2 workers %7.1f us  x%.2f\n",
			c.name, c.in, c.l.MACs(c.in), med[0], med[1], med[1]/med[0])
	}
}

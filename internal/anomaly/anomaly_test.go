package anomaly

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// twoBlobs generates points around (0,0,...) and (10,10,...).
func twoBlobs(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		center := float32(0)
		if i%2 == 1 {
			center = 10
		}
		row := make([]float32, dim)
		for j := range row {
			row[j] = center + float32(rng.NormFloat64()*0.5)
		}
		out[i] = row
	}
	return out
}

func TestKMeansRecoverClusters(t *testing.T) {
	x := twoBlobs(200, 3, 1)
	m, err := FitKMeans(x, 2, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One centroid near 0, one near 10.
	c0 := m.Centroids[0][0]
	c1 := m.Centroids[1][0]
	lo, hi := c0, c1
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < -1 || lo > 1 {
		t.Errorf("low centroid at %g, want ~0", lo)
	}
	if hi < 9 || hi > 11 {
		t.Errorf("high centroid at %g, want ~10", hi)
	}
}

func TestKMeansAnomalyScores(t *testing.T) {
	x := twoBlobs(200, 3, 3)
	m, err := FitKMeans(x, 2, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Training-like points score low.
	normal := []float32{0.2, -0.1, 0.3}
	anomalous := []float32{5, 5, 5} // between the blobs
	far := []float32{100, 100, 100}
	sN := m.Score(normal)
	sA := m.Score(anomalous)
	sF := m.Score(far)
	if sN > 3 {
		t.Errorf("normal point scores %g", sN)
	}
	if sA < sN*2 {
		t.Errorf("mid-point score %g not above normal %g", sA, sN)
	}
	if sF < sA {
		t.Errorf("far point %g not above mid %g", sF, sA)
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := FitKMeans(nil, 2, 10, 1); err == nil {
		t.Error("accepted empty data")
	}
	x := twoBlobs(10, 2, 1)
	if _, err := FitKMeans(x, 0, 10, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := FitKMeans(x, 11, 10, 1); err == nil {
		t.Error("accepted k > n")
	}
	ragged := [][]float32{{1, 2}, {3}}
	if _, err := FitKMeans(ragged, 1, 10, 1); err == nil {
		t.Error("accepted ragged rows")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	x := twoBlobs(100, 2, 5)
	a, _ := FitKMeans(x, 3, 20, 7)
	b, _ := FitKMeans(x, 3, 20, 7)
	for c := range a.Centroids {
		for j := range a.Centroids[c] {
			if a.Centroids[c][j] != b.Centroids[c][j] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestAssignNearestProperty(t *testing.T) {
	x := twoBlobs(60, 2, 8)
	m, err := FitKMeans(x, 3, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float32) bool {
		p := []float32{a, b}
		c := m.Assign(p)
		d := sqDist(p, m.Centroids[c])
		for o := range m.Centroids {
			if sqDist(p, m.Centroids[o]) < d-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	x := [][]float32{{1, 1}, {1.1, 0.9}, {0.9, 1.1}}
	m, err := FitKMeans(x, 1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Centroids) != 1 {
		t.Fatal("centroid count")
	}
	if m.Centroids[0][0] < 0.9 || m.Centroids[0][0] > 1.1 {
		t.Errorf("centroid %v", m.Centroids[0])
	}
}

func BenchmarkKMeansScore(b *testing.B) {
	x := twoBlobs(500, 16, 1)
	m, _ := FitKMeans(x, 8, 30, 2)
	p := x[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(p)
	}
}

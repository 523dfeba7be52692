// Package anomaly implements the unsupervised learning block of the
// platform (paper Sec. 4.3): K-means clustering for anomaly detection.
//
// The model is trained on feature vectors of normal operation; at
// inference it emits an anomaly score that grows with distance from the
// training distribution. A threshold on the score flags anomalies.
package anomaly

import (
	"fmt"
	"math"
	"math/rand"
)

// KMeans is a fitted K-means anomaly detector.
type KMeans struct {
	// Centroids holds k cluster centers.
	Centroids [][]float32
	// Spread is the mean distance of training points to their centroid,
	// per cluster; scores are normalized by it.
	Spread []float32
}

// FitKMeans clusters rows of x into k clusters with Lloyd's algorithm and
// k-means++ seeding. Deterministic for a given seed.
func FitKMeans(x [][]float32, k, iters int, seed int64) (*KMeans, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("anomaly: no training data")
	}
	if k <= 0 || k > len(x) {
		return nil, fmt.Errorf("anomaly: k=%d invalid for %d points", k, len(x))
	}
	dim := len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("anomaly: row %d has dim %d, want %d", i, len(row), dim)
		}
	}
	rng := rand.New(rand.NewSource(seed))

	// k-means++ seeding.
	centroids := make([][]float32, 0, k)
	first := x[rng.Intn(len(x))]
	centroids = append(centroids, append([]float32(nil), first...))
	dists := make([]float64, len(x))
	for len(centroids) < k {
		var total float64
		for i, row := range x {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(row, c); d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(len(x))
		} else {
			r := rng.Float64() * total
			acc := 0.0
			for i, d := range dists {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float32(nil), x[pick]...))
	}

	assign := make([]int, len(x))
	for it := 0; it < iters; it++ {
		changed := false
		for i, row := range x {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(row, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, row := range x {
			c := assign[i]
			counts[c]++
			for j, v := range row {
				sums[c][j] += float64(v)
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed empty cluster at a random point.
				copy(centroids[c], x[rng.Intn(len(x))])
				continue
			}
			for j := 0; j < dim; j++ {
				centroids[c][j] = float32(sums[c][j] / float64(counts[c]))
			}
		}
		if !changed && it > 0 {
			break
		}
	}

	// Per-cluster spread for score normalization.
	spread := make([]float32, k)
	counts := make([]int, k)
	for i, row := range x {
		c := assign[i]
		spread[c] += float32(math.Sqrt(sqDist(row, centroids[c])))
		counts[c]++
	}
	for c := range spread {
		if counts[c] > 0 {
			spread[c] /= float32(counts[c])
		}
		if spread[c] < 1e-6 {
			spread[c] = 1e-6
		}
	}
	return &KMeans{Centroids: centroids, Spread: spread}, nil
}

func sqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// Assign returns the nearest centroid index for a point.
func (m *KMeans) Assign(x []float32) int {
	best, bestD := 0, math.Inf(1)
	for c, cen := range m.Centroids {
		if d := sqDist(x, cen); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Score returns the anomaly score: distance to the nearest centroid
// normalized by that cluster's training spread. Scores near 1 are typical
// of training data; scores well above it indicate anomalies.
func (m *KMeans) Score(x []float32) float64 {
	c := m.Assign(x)
	return math.Sqrt(sqDist(x, m.Centroids[c])) / float64(m.Spread[c])
}

package search

import (
	"fmt"
	"math"
	"testing"
)

// quadObjective peaks at candidate `best`, improving with budget.
func quadObjective(best int) Objective {
	return func(c, budget int) (float64, error) {
		d := float64(c - best)
		noiselessAcc := 1 / (1 + d*d/100)
		// Larger budgets approach the true score from below.
		frac := 1 - 1/math.Sqrt(float64(budget)+1)
		return noiselessAcc * frac, nil
	}
}

func TestRandomFindsGoodCandidate(t *testing.T) {
	results, err := Random(100, 30, 10, 1, quadObjective(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 30 {
		t.Fatalf("%d results", len(results))
	}
	// Sorted descending.
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Fatal("not sorted")
		}
	}
	// With 30 of 100 samples, the best found should be within 15 of optimum.
	if d := results[0].Candidate - 42; d < -15 || d > 15 {
		t.Errorf("best candidate %d too far from 42", results[0].Candidate)
	}
}

func TestRandomEvalClamp(t *testing.T) {
	results, err := Random(5, 100, 1, 2, quadObjective(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d results, want all 5", len(results))
	}
	if _, err := Random(0, 5, 1, 1, quadObjective(0)); err == nil {
		t.Error("accepted empty space")
	}
}

func TestRandomPropagatesErrors(t *testing.T) {
	obj := func(c, b int) (float64, error) { return 0, fmt.Errorf("boom") }
	if _, err := Random(10, 3, 1, 1, obj); err == nil {
		t.Fatal("error swallowed")
	}
}

func TestHyperbandConvergesToOptimum(t *testing.T) {
	evals := map[int]int{}
	obj := func(c, budget int) (float64, error) {
		evals[c]++
		return quadObjective(50)(c, budget)
	}
	results, err := Hyperband(100, 27, 3, obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if d := results[0].Candidate - 50; d < -10 || d > 10 {
		t.Errorf("hyperband best %d far from 50", results[0].Candidate)
	}
	// Survivors were evaluated more than once (successive halving).
	if evals[results[0].Candidate] < 2 {
		t.Errorf("winner evaluated %d times", evals[results[0].Candidate])
	}
	// Final rung uses the max budget.
	if results[0].Budget != 27 {
		t.Errorf("final budget %d, want 27", results[0].Budget)
	}
}

func TestHyperbandCheaperThanFullBudget(t *testing.T) {
	var total int
	obj := func(c, budget int) (float64, error) {
		total += budget
		return quadObjective(10)(c, budget)
	}
	if _, err := Hyperband(81, 27, 4, obj); err != nil {
		t.Fatal(err)
	}
	full := 81 * 27
	if total >= full {
		t.Errorf("hyperband spent %d budget units, full search costs %d", total, full)
	}
}

func TestHyperbandEmptySpace(t *testing.T) {
	if _, err := Hyperband(0, 9, 1, quadObjective(0)); err == nil {
		t.Error("accepted empty space")
	}
}

func TestSurrogateBeatsRandomOnSmooth(t *testing.T) {
	// Features = candidate coordinate; smooth objective. The surrogate
	// should concentrate evaluations near the optimum.
	n := 200
	features := make([][]float64, n)
	for i := range features {
		features[i] = []float64{float64(i)}
	}
	results, err := Surrogate(features, 40, 5, 3, quadObjective(120))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 40 {
		t.Fatalf("%d results", len(results))
	}
	if d := results[0].Candidate - 120; d < -10 || d > 10 {
		t.Errorf("surrogate best %d far from 120", results[0].Candidate)
	}
	if _, err := Surrogate(nil, 5, 1, 1, quadObjective(0)); err == nil {
		t.Error("accepted empty space")
	}
}

func TestSurrogateNoDuplicateEvaluations(t *testing.T) {
	n := 30
	features := make([][]float64, n)
	for i := range features {
		features[i] = []float64{float64(i)}
	}
	seen := map[int]int{}
	obj := func(c, b int) (float64, error) {
		seen[c]++
		return quadObjective(5)(c, b)
	}
	if _, err := Surrogate(features, 30, 2, 4, obj); err != nil {
		t.Fatal(err)
	}
	for c, n := range seen {
		if n > 1 {
			t.Errorf("candidate %d evaluated %d times", c, n)
		}
	}
	if len(seen) != 30 {
		t.Errorf("evaluated %d of 30", len(seen))
	}
}

// BenchmarkSearchCost times random search and Hyperband on one synthetic
// objective and reports the training budget each spends per search.
func BenchmarkSearchCost(b *testing.B) {
	for _, c := range []struct {
		name string
		run  func(seed int64, obj Objective) ([]Result, error)
	}{
		{"random", func(seed int64, obj Objective) ([]Result, error) { return Random(100, 30, 27, seed, obj) }},
		{"hyperband", func(seed int64, obj Objective) ([]Result, error) { return Hyperband(100, 27, seed, obj) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var spent int64
			obj := func(cand, budget int) (float64, error) {
				spent += int64(budget)
				d := float64(cand - 40)
				return 1 / (1 + d*d), nil
			}
			for i := 0; i < b.N; i++ {
				if _, err := c.run(int64(i), obj); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(spent)/float64(b.N), "budget_units")
		})
	}
}

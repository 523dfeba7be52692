package quant_test

import (
	"fmt"
	"testing"

	"edgepulse/internal/bench"
)

// TestReferenceModelsRequantMatchTFLite lists every compute op of the
// three reference models whose requantization shift is >= 0 (a real
// multiplier of 0.5 or more). Only there does simd.Requant.Apply's
// floored high multiply differ from TFLite's truncating one: a negative
// accumulator comes out one below. The list is empty — every op shifts
// right by five or more — so the int8 engines round as TFLite does on
// these models; the test fails if a change to the models or the
// quantizer makes it non-empty.
func TestReferenceModelsRequantMatchTFLite(t *testing.T) {
	ws, err := bench.AllWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	var floored []string
	for _, w := range ws {
		for i, op := range w.QModel.Ops {
			if len(op.W) > 0 && op.RequantShift() >= 0 {
				floored = append(floored, fmt.Sprintf("%s op %d (%s) shift %d", w.ID, i, op.Kind, op.RequantShift()))
			}
		}
	}
	if len(floored) > 0 {
		t.Errorf("requantization differs from TFLite for negative accumulators in: %v", floored)
	}
}

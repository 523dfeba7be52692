package quant

// RequantShift exposes an op's requantization shift to the package's
// external tests.
func (o *QOp) RequantShift() int { return o.shift }

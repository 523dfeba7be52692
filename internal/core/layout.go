package core

import (
	"fmt"

	"edgepulse/internal/tensor"
)

// FeatureSegment is one DSP block's slice of the composite feature
// vector.
type FeatureSegment struct {
	// Name is the DSP block's instance name.
	Name string
	// Shape is the block's own output shape for the canonical window.
	Shape tensor.Shape
	// Offset and Len locate the block's flattened output inside the
	// composite feature vector.
	Offset int
	Len    int
}

// FeatureLayout is the per-block offset table of an impulse: the
// composite feature vector is the concatenation of every DSP block's
// flattened output, in impulse order.
type FeatureLayout struct {
	Segments []FeatureSegment
	// Total is the composite feature vector length.
	Total int
}

// Segment looks up a block's slice by instance name.
func (l *FeatureLayout) Segment(name string) (FeatureSegment, bool) {
	for _, s := range l.Segments {
		if s.Name == name {
			return s, true
		}
	}
	return FeatureSegment{}, false
}

// layoutCache is a computed layout with the input block it was derived
// for and a zero window of that input's geometry, which shape queries
// read the length of and never write. Layout checks it against the
// design on every call, so direct mutation of the exported Impulse
// fields (as library callers do) recomputes the layout instead of
// serving stale offsets.
type layoutCache struct {
	input  InputBlock
	zeros  []float32
	layout *FeatureLayout
}

// matches reports whether the cached layout is still the design's: the
// same input block, and every DSP block with its cached name and its
// cached output shape for the canonical window.
func (c *layoutCache) matches(imp *Impulse) bool {
	if c.input != imp.Input || len(imp.DSP) != len(c.layout.Segments) {
		return false
	}
	for i, inst := range imp.DSP {
		seg := c.layout.Segments[i]
		shape, err := inst.Block.OutputShape(imp.canonicalFor(inst, c.zeros))
		if err != nil || inst.Name != seg.Name || !shape.Equal(seg.Shape) {
			return false
		}
	}
	return true
}

// Layout returns the impulse's per-block feature offset table, cached
// across calls and recomputed whenever the input block or a DSP block's
// name or output shape changes.
func (imp *Impulse) Layout() (*FeatureLayout, error) {
	if len(imp.DSP) == 0 {
		return nil, fmt.Errorf("core: impulse has no DSP block")
	}
	c := imp.layout.Load()
	if c != nil && c.matches(imp) {
		return c.layout, nil
	}
	if c == nil || c.input != imp.Input {
		c = &layoutCache{input: imp.Input, zeros: make([]float32, imp.WindowLen())}
	}
	l := new(FeatureLayout)
	for _, inst := range imp.DSP {
		shape, err := inst.Block.OutputShape(imp.canonicalFor(inst, c.zeros))
		if err != nil {
			return nil, fmt.Errorf("core: dsp block %q: %w", inst.Name, err)
		}
		n := shape.Elems()
		l.Segments = append(l.Segments, FeatureSegment{
			Name: inst.Name, Shape: shape, Offset: l.Total, Len: n,
		})
		l.Total += n
	}
	imp.layout.Store(&layoutCache{input: c.input, zeros: c.zeros, layout: l})
	return l, nil
}

package core

import (
	"fmt"
	"sort"
	"strings"

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

// layoutCache pairs a computed layout with the design fingerprint it was
// derived from, so direct mutation of the exported Impulse fields (as
// library callers do) invalidates the cache instead of serving stale
// offsets.
type layoutCache struct {
	fingerprint string
	layout      *FeatureLayout
}

// Layout returns the impulse's per-block feature offset table, cached
// across calls and recomputed whenever the input block or DSP graph
// changes.
func (imp *Impulse) Layout() (*FeatureLayout, error) {
	if len(imp.DSP) == 0 {
		return nil, fmt.Errorf("core: impulse has no DSP block")
	}
	fp := imp.designFingerprint()
	if c := imp.layout.Load(); c != nil && c.fingerprint == fp {
		return c.layout, nil
	}
	l := new(FeatureLayout)
	for _, inst := range imp.DSP {
		shape, err := inst.Block.OutputShape(imp.canonicalFor(inst))
		if err != nil {
			return nil, fmt.Errorf("core: dsp block %q: %w", inst.Name, err)
		}
		n := shape.Elems()
		l.Segments = append(l.Segments, FeatureSegment{
			Name: inst.Name, Shape: shape, Offset: l.Total, Len: n,
		})
		l.Total += n
	}
	imp.layout.Store(&layoutCache{fingerprint: fp, layout: l})
	return l, nil
}

// designFingerprint renders the layout-relevant design (input geometry
// plus the DSP graph) as a deterministic string for cache validation.
func (imp *Impulse) designFingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "in:%s/%d/%d/%d/%d/%dx%d;",
		imp.Input.Kind, imp.Input.WindowMS, imp.Input.StrideMS,
		imp.Input.FrequencyHz, imp.Input.Axes, imp.Input.Width, imp.Input.Height)
	for _, inst := range imp.DSP {
		fmt.Fprintf(&b, "b:%s/%s/", inst.Name, inst.Block.Name())
		params := inst.Block.Params()
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%g,", k, params[k])
		}
		fmt.Fprintf(&b, "ax%v;", inst.Axes)
	}
	return b.String()
}

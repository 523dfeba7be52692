package nn

import (
	"sort"

	"edgepulse/internal/tensor"
)

// Buffer is one allocation interval for the arena planner: a size live
// over [Start, End] op indices inclusive.
type Buffer struct {
	Size       int64
	Start, End int
}

// PlanArena assigns non-overlapping offsets to buffers whose lifetimes
// intersect, using the greedy size-ordered first-fit strategy of the TFLM
// memory planner. It returns the arena size and per-buffer offsets.
func PlanArena(bufs []Buffer) (int64, []int64) {
	type placed struct {
		idx    int
		offset int64
	}
	order := make([]int, len(bufs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bufs[order[a]].Size > bufs[order[b]].Size })
	offsets := make([]int64, len(bufs))
	var placedBufs []placed
	var arena int64
	overlaps := func(a, b Buffer) bool { return a.Start <= b.End && b.Start <= a.End }
	for _, i := range order {
		b := bufs[i]
		// Collect forbidden intervals from already placed, time-overlapping buffers.
		type iv struct{ lo, hi int64 }
		var busy []iv
		for _, p := range placedBufs {
			if overlaps(b, bufs[p.idx]) {
				busy = append(busy, iv{p.offset, p.offset + bufs[p.idx].Size})
			}
		}
		sort.Slice(busy, func(x, y int) bool { return busy[x].lo < busy[y].lo })
		var off int64
		for _, s := range busy {
			if off+b.Size <= s.lo {
				break
			}
			if s.hi > off {
				off = s.hi
			}
		}
		offsets[i] = off
		placedBufs = append(placedBufs, placed{i, off})
		if off+b.Size > arena {
			arena = off + b.Size
		}
	}
	return arena, offsets
}

// NaiveArena returns the arena size without buffer reuse (every
// activation gets its own allocation) — the baseline for the arena
// ablation bench.
func NaiveArena(bufs []Buffer) int64 {
	var total int64
	for _, b := range bufs {
		total += b.Size
	}
	return total
}

// ActivationAssignments derives the arena buffers of a model with the
// given input shape and op specs, sized in elemSize units, plus the
// op-to-buffer map: bufOf[i] is the buffer holding the output of op i-1
// (bufOf[0] is the input, always buffer 0). Aliasing ops share their
// input's buffer.
func ActivationAssignments(input tensor.Shape, specs []OpSpec, elemSize int64) ([]Buffer, []int) {
	bufs := []Buffer{{Size: int64(input.Elems()) * elemSize, Start: 0, End: 0}}
	bufOf := make([]int, len(specs)+1)
	for i, s := range specs {
		in := bufOf[i]
		if Aliases(s.Kind) {
			bufOf[i+1] = in
			if bufs[in].End < i+1 {
				bufs[in].End = i + 1
			}
			continue
		}
		// Input must stay live through this op.
		if bufs[in].End < i {
			bufs[in].End = i
		}
		out := Buffer{Size: int64(s.OutShape.Elems()) * elemSize, Start: i, End: i}
		bufs = append(bufs, out)
		bufOf[i+1] = len(bufs) - 1
	}
	// The final output is read by the application after the last op.
	last := bufOf[len(specs)]
	bufs[last].End = len(specs) + 1
	return bufs, bufOf
}

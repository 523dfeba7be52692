package nn_test

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"edgepulse/internal/models"
	"edgepulse/internal/nn"
)

// checkPlan reports what is wrong with a plan of bufs, or "": every
// buffer lies inside the arena, buffers whose lifetimes overlap share no
// byte, and the arena is no larger than the no-reuse baseline.
func checkPlan(bufs []nn.Buffer, arena int64, offsets []int64) string {
	if len(offsets) != len(bufs) {
		return "one offset per buffer"
	}
	if arena > nn.NaiveArena(bufs) {
		return "arena exceeds the naive sum"
	}
	for i, b := range bufs {
		if offsets[i] < 0 || offsets[i]+b.Size > arena {
			return "buffer outside the arena"
		}
		for j := i + 1; j < len(bufs); j++ {
			c := bufs[j]
			if b.Start > c.End || c.Start > b.End {
				continue
			}
			if offsets[i] < offsets[j]+c.Size && offsets[j] < offsets[i]+b.Size {
				return "live buffers share bytes"
			}
		}
	}
	return ""
}

func TestPlanArenaNoOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		bufs := make([]nn.Buffer, n)
		for i := range bufs {
			start := rng.Intn(16)
			bufs[i] = nn.Buffer{
				Size:  int64(1 + rng.Intn(1000)),
				Start: start,
				End:   start + rng.Intn(8),
			}
		}
		arena, offsets := nn.PlanArena(bufs)
		// Arena must hold the largest buffer and not exceed the naive sum.
		for _, b := range bufs {
			if arena < b.Size {
				return false
			}
		}
		// No two time-overlapping buffers may overlap in space.
		return checkPlan(bufs, arena, offsets) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPlanArenaReusesMemory(t *testing.T) {
	// Disjoint lifetimes must share space.
	bufs := []nn.Buffer{
		{Size: 1000, Start: 0, End: 1},
		{Size: 1000, Start: 2, End: 3},
		{Size: 1000, Start: 4, End: 5},
	}
	arena, _ := nn.PlanArena(bufs)
	if arena != 1000 {
		t.Fatalf("arena = %d, want 1000 (full reuse)", arena)
	}
	if nn.NaiveArena(bufs) != 3000 {
		t.Fatal("naive should be 3000")
	}
}

func TestActivationBuffersAliasing(t *testing.T) {
	m := nn.NewModel(4, 4, 1)
	m.NumClasses = 2
	m.Add(nn.NewFlatten()).Add(nn.NewDense(2, nn.None)).Add(nn.NewSoftmax())
	specs, err := m.Spec()
	if err != nil {
		t.Fatal(err)
	}
	bufs, _ := nn.ActivationAssignments(m.InputShape, specs, 4)
	// flatten aliases: buffers = input, dense out, softmax out.
	if len(bufs) != 3 {
		t.Fatalf("%d buffers, want 3", len(bufs))
	}
	if bufs[0].Size != 16*4 {
		t.Errorf("input buffer %d bytes", bufs[0].Size)
	}
}

// FuzzPlanArena feeds the liveness planner arbitrary buffer lists, four
// bytes a buffer (size, first op, lifetime length): every plan must keep
// each buffer inside the arena, give buffers whose lifetimes overlap
// disjoint bytes, and need no more than the no-reuse arena.
func FuzzPlanArena(f *testing.F) {
	encode := func(bufs ...nn.Buffer) []byte {
		var b []byte
		for _, x := range bufs {
			b = binary.LittleEndian.AppendUint16(b, uint16(x.Size))
			b = append(b, byte(x.Start), byte(x.End-x.Start))
		}
		return b
	}
	m := randModel(f, 11)
	specs, err := m.Spec()
	if err != nil {
		f.Fatal(err)
	}
	model, _ := nn.ActivationAssignments(m.InputShape, specs, 1)
	f.Add(encode())
	f.Add(encode(nn.Buffer{Size: 40, Start: 0, End: 0}))
	f.Add(encode(nn.Buffer{Size: 1000, Start: 0, End: 1}, nn.Buffer{Size: 1000, Start: 2, End: 3}, nn.Buffer{Size: 1000, Start: 4, End: 5}))
	f.Add(encode(nn.Buffer{Size: 7, Start: 0, End: 9}, nn.Buffer{Size: 300, Start: 2, End: 4}, nn.Buffer{Size: 5, Start: 3, End: 3}))
	f.Add(encode(model...))
	f.Add(encode(nn.Buffer{Size: 0, Start: 0, End: 3}, nn.Buffer{Size: 64, Start: 1, End: 2}, nn.Buffer{Size: 0, Start: 2, End: 2}))
	f.Add(encode(nn.Buffer{Size: 16, Start: 0, End: 1}, nn.Buffer{Size: 16, Start: 1, End: 2}, nn.Buffer{Size: 16, Start: 2, End: 3}))
	f.Add(encode(nn.Buffer{Size: 65535, Start: 0, End: 15}, nn.Buffer{Size: 1, Start: 15, End: 30}, nn.Buffer{Size: 65535, Start: 30, End: 30}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var bufs []nn.Buffer
		for ; len(data) >= 4 && len(bufs) < 64; data = data[4:] {
			start := int(data[2] % 32)
			bufs = append(bufs, nn.Buffer{
				Size:  int64(binary.LittleEndian.Uint16(data)),
				Start: start,
				End:   start + int(data[3]%16),
			})
		}
		arena, offsets := nn.PlanArena(bufs)
		if msg := checkPlan(bufs, arena, offsets); msg != "" {
			t.Fatalf("%s: arena %d, offsets %v for %v", msg, arena, offsets, bufs)
		}
	})
}

// BenchmarkPlanArenaKWS times planning the KWS model's int8 arena and
// reports the planned size beside the no-reuse baseline.
func BenchmarkPlanArenaKWS(b *testing.B) {
	m := models.KWSDSCNN(49, 10, 12)
	nn.InitWeights(m, 1)
	specs, _ := m.Spec()
	bufs, _ := nn.ActivationAssignments(m.InputShape, specs, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var planned int64
	for i := 0; i < b.N; i++ {
		planned, _ = nn.PlanArena(bufs)
	}
	naive := nn.NaiveArena(bufs)
	b.ReportMetric(float64(planned), "planned_bytes")
	b.ReportMetric(float64(naive), "naive_bytes")
	b.ReportMetric(float64(naive)/float64(planned), "reuse_factor")
}

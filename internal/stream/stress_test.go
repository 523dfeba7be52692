package stream

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgepulse/internal/dsp"
)

// TestSessionsUnderLoadStress hammers the manager with concurrent
// sessions, producers fast enough to trigger backpressure, subscribers
// slow enough to be dropped and resume, and a drain racing it all.
// Run with -race (CI does): this is the concurrency gate for the
// streaming plane.
func TestSessionsUnderLoadStress(t *testing.T) {
	const (
		nSessions   = 6
		nBatches    = 200
		batchFrames = 16
	)
	m := NewManager(nSessions, nil)
	cls := func() Classifier {
		return &fakeClassifier{
			classes: []string{"a", "b"},
			fn: func(win dsp.Signal, scores []float32) error {
				var sum float32
				for _, v := range win.Data {
					sum += v
				}
				scores[0] = sum / float32(len(win.Data))
				scores[1] = 1 - scores[0]
				return nil
			},
		}
	}

	var wg sync.WaitGroup
	var shed, pushed atomic.Int64
	// Signaled once per producer after its first push attempt settles,
	// so the drain below starts mid-flight deterministically instead of
	// after a wall-clock guess.
	started := make(chan struct{}, nSessions)
	for i := 0; i < nSessions; i++ {
		cfg := Config{
			WindowFrames: 32, StrideFrames: 8, Axes: 1, Rate: 1000,
			QueueDepth: 4, RingFrames: 64, IdleTimeout: time.Minute,
			Debounce: DebounceConfig{Threshold: 0.7, Smooth: 2},
		}
		s, err := m.Open(cfg, cls())
		if err != nil {
			t.Fatal(err)
		}
		// Producer: pushes as fast as possible, counting sheds.
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var once sync.Once
			markStarted := func() { once.Do(func() { started <- struct{}{} }) }
			defer markStarted()
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < nBatches; b++ {
				batch := make([]float32, batchFrames)
				for j := range batch {
					batch[j] = rng.Float32()
				}
				switch err := s.Push(batch); {
				case err == nil:
					pushed.Add(1)
				case errors.Is(err, ErrBackpressure):
					shed.Add(1)
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Error(err)
					return
				}
				markStarted()
			}
		}(int64(i))
		// Tailing subscriber that keeps resuming after being dropped.
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				replay, ch, cancel := s.Events.Subscribe(last)
				for _, e := range replay {
					if e.Seq <= last {
						t.Errorf("replay went backwards: %d after %d", e.Seq, last)
					}
					last = e.Seq
					if e.Terminal() {
						cancel()
						return
					}
				}
				for e := range ch {
					last = e.Seq
					if e.Terminal() {
						cancel()
						return
					}
					// Simulate a consumer that occasionally stalls long
					// enough to be dropped.
					if e.Seq%97 == 0 {
						time.Sleep(2 * time.Millisecond)
					}
				}
				cancel()
				select {
				case <-s.Done():
					// Terminal may have been emitted while we were
					// resubscribing; one final replay pass sees it.
					replay, _, c2 := s.Events.Subscribe(last)
					c2()
					for _, e := range replay {
						last = e.Seq
					}
					return
				default:
				}
			}
		}()
		// Concurrent metric readers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = s.Stats()
				_ = m.Snapshot()
			}
		}()
	}

	// Every producer has landed at least one batch; drain mid-flight.
	for i := 0; i < nSessions; i++ {
		<-started
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	snap := m.Snapshot()
	if snap.ActiveSessions != 0 {
		t.Fatalf("active sessions after drain: %d", snap.ActiveSessions)
	}
	if snap.Opened != nSessions {
		t.Fatalf("opened = %d, want %d", snap.Opened, nSessions)
	}
	if snap.Stats.FramesIn != pushed.Load()*batchFrames {
		t.Fatalf("frames in = %d, want %d pushed batches * %d",
			snap.Stats.FramesIn, pushed.Load(), batchFrames)
	}
	if snap.Stats.Windows == 0 {
		t.Fatal("no windows classified under load")
	}
	t.Logf("stress: %d batches pushed, %d shed, %d windows, %d dropped frames",
		pushed.Load(), shed.Load(), snap.Stats.Windows, snap.Stats.DroppedFrames)
}

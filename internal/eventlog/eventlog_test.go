package eventlog

import (
	"context"
	"runtime"
	"testing"
	"time"
)

type event struct {
	Seq  int64
	Last bool
}

func newLog() *Log[event] { return New(func(e *event) *int64 { return &e.Seq }) }

// checkContiguous fails unless events carry seqs first, first+1, ...
func checkContiguous(t testing.TB, events []event, first int64) {
	t.Helper()
	for i, e := range events {
		if e.Seq != first+int64(i) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, first+int64(i))
		}
	}
}

// TestLogRetainsWindow: past Retain events the oldest are dropped, seqs
// stay contiguous, the terminal event is kept, and a cursor older than
// the window resumes at the oldest retained event.
func TestLogRetainsWindow(t *testing.T) {
	l := newLog()
	const total = Retain + 100
	for i := 1; i < total; i++ {
		l.Append(event{})
	}
	l.Close(event{Last: true})
	events, closed := l.Since(0)
	if !closed || len(events) != Retain {
		t.Fatalf("retained %d events (closed %v), want %d", len(events), closed, Retain)
	}
	checkContiguous(t, events, total-Retain+1)
	if !events[Retain-1].Last {
		t.Fatalf("terminal event trimmed: %+v", events[Retain-1])
	}
	if rest, _ := l.Since(total - 3); len(rest) != 3 || rest[0].Seq != total-2 {
		t.Fatalf("resume inside the window: %+v", rest)
	}
	if rest, _ := l.Since(total); rest != nil {
		t.Fatalf("resume at the end: %+v", rest)
	}
	// Appends after the terminal event are ignored.
	l.Append(event{})
	l.Close(event{})
	if events, _ := l.Since(0); events[len(events)-1].Seq != total {
		t.Fatalf("closed log grew to seq %d", events[len(events)-1].Seq)
	}
}

func TestSubscribeReplayLiveAndClose(t *testing.T) {
	l := newLog()
	l.Append(event{})
	l.Append(event{})
	replay, ch, cancel := l.Subscribe(1)
	defer cancel()
	checkContiguous(t, replay, 2)
	if len(replay) != 1 || l.Subscribers() != 1 {
		t.Fatalf("replay %+v, %d subscribers", replay, l.Subscribers())
	}
	l.Append(event{})
	l.Close(event{Last: true})
	var live []event
	for e := range ch {
		live = append(live, e)
	}
	checkContiguous(t, live, 3)
	if len(live) != 2 || !live[1].Last || l.Subscribers() != 0 {
		t.Fatalf("live %+v, %d subscribers", live, l.Subscribers())
	}
	// A closed log replays and hands out a closed channel.
	replay, ch, cancel2 := l.Subscribe(0)
	cancel2()
	if _, open := <-ch; open || len(replay) != 4 {
		t.Fatalf("closed log: replay %d, channel open %v", len(replay), open)
	}
}

func TestCancelEndsSubscription(t *testing.T) {
	l := newLog()
	_, ch, cancel := l.Subscribe(0)
	cancel()
	cancel()
	if _, open := <-ch; open || l.Subscribers() != 0 {
		t.Fatalf("cancelled subscription: open %v, %d subscribers", open, l.Subscribers())
	}
	l.Append(event{}) // nothing left to deliver to
}

// TestSlowSubscriberDropped: a subscriber that stops reading is dropped
// once Buffer events are waiting, without ever blocking Append, and its
// channel still yields the Buffer events it holds.
func TestSlowSubscriberDropped(t *testing.T) {
	l := newLog()
	_, ch, cancel := l.Subscribe(0)
	defer cancel()
	for i := 0; i <= Buffer; i++ {
		l.Append(event{})
	}
	if l.Subscribers() != 0 {
		t.Fatal("slow subscriber not dropped")
	}
	var got []event
	for e := range ch {
		got = append(got, e)
	}
	checkContiguous(t, got, 1)
	if len(got) != Buffer {
		t.Fatalf("dropped subscriber held %d events, want %d", len(got), Buffer)
	}
}

// TestFollowResumesAfterDrop: Follow yields every seq once and in order
// across a dropped subscription, and ends at the terminal event.
func TestFollowResumesAfterDrop(t *testing.T) {
	l := newLog()
	l.Append(event{})
	release := make(chan struct{})
	var got []event
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Follow(context.Background(), 0, func(e event) bool {
			if e.Seq == 1 {
				<-release
			}
			got = append(got, e)
			return true
		})
	}()
	waitFor(t, func() bool { return l.Subscribers() == 1 })
	for i := 0; i < 3*Buffer; i++ {
		l.Append(event{})
	}
	if l.Subscribers() != 0 {
		t.Fatal("blocked follower not dropped")
	}
	l.Close(event{Last: true})
	close(release)
	<-done
	checkContiguous(t, got, 1)
	if len(got) != 3*Buffer+2 || !got[len(got)-1].Last {
		t.Fatalf("followed %d events, last %+v", len(got), got[len(got)-1])
	}
}

func TestFollowStops(t *testing.T) {
	l := newLog()
	l.Append(event{})
	l.Append(event{})
	n := 0
	l.Follow(context.Background(), 0, func(event) bool { n++; return false })
	if n != 1 || l.Subscribers() != 0 {
		t.Fatalf("yield false: %d events, %d subscribers", n, l.Subscribers())
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Follow(ctx, 2, func(event) bool { return true })
	}()
	waitFor(t, func() bool { return l.Subscribers() == 1 })
	cancel()
	<-done
	if l.Subscribers() != 0 {
		t.Fatal("cancelled follow kept its subscription")
	}
	// A cursor past the end of a closed log ends at once.
	l.Close(event{Last: true})
	l.Follow(context.Background(), 10, func(e event) bool {
		t.Fatalf("yielded %+v past the end", e)
		return true
	})
}

// TestFollowCursorAhead: a cursor past the newest event yields only the
// events after it, live or at close.
func TestFollowCursorAhead(t *testing.T) {
	l := newLog()
	l.Append(event{})
	var got []event
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Follow(context.Background(), 3, func(e event) bool {
			got = append(got, e)
			return true
		})
	}()
	waitFor(t, func() bool { return l.Subscribers() == 1 })
	for i := 0; i < 3; i++ {
		l.Append(event{})
	}
	l.Close(event{Last: true})
	<-done
	checkContiguous(t, got, 4)
	if len(got) != 2 || !got[1].Last {
		t.Fatalf("followed %+v from cursor 3", got)
	}
}

// waitFor yields until cond holds, failing after 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
	}
}

// FuzzEventLog drives a log with appends, closes and up to four
// consumers that subscribe at a cursor, read a few events, cancel, and
// resume from the last seq they saw. Every consumer must see contiguous
// seqs with no duplicates; the one allowed gap is a cursor older than
// the retained window, which resumes at the oldest retained event.
func FuzzEventLog(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 2, 4, 0})
	f.Add([]byte{1, 0, 5, 90, 2, 9, 3, 0, 1, 0, 2, 255})
	f.Add([]byte{5, 255, 5, 255, 5, 255, 1, 1, 1, 7, 2, 255, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type consumer struct {
			last   int64
			ch     <-chan event
			cancel func()
		}
		l := newLog()
		var cons [4]consumer
		var total int64
		closed := false
		appendN := func(n int) {
			for i := 0; i < n; i++ {
				l.Append(event{})
				if !closed {
					total++
				}
			}
		}
		// receive checks one delivered event against the consumer's cursor.
		receive := func(c *consumer, e event, first bool) {
			want := c.last + 1
			if oldest := total - Retain + 1; first && want < oldest {
				want = oldest
			}
			if e.Seq != want {
				t.Fatalf("consumer at %d got seq %d, want %d", c.last, e.Seq, want)
			}
			c.last = e.Seq
		}
		subscribe := func(c *consumer) {
			replay, ch, cancel := l.Subscribe(c.last)
			for i, e := range replay {
				receive(c, e, i == 0)
			}
			c.ch, c.cancel = ch, cancel
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, ops[i+1]
			c := &cons[arg%4]
			switch op {
			case 0:
				appendN(1)
			case 1:
				if c.ch == nil {
					if c.last == 0 {
						c.last = int64(arg) * 3 % (total + 1)
					}
					subscribe(c)
				}
			case 2:
				for k := int(arg); k > 0 && c.ch != nil; k-- {
					select {
					case e, open := <-c.ch:
						if !open {
							c.cancel()
							c.ch = nil
							break
						}
						receive(c, e, false)
					default:
						k = 0
					}
				}
			case 3:
				if c.ch != nil {
					c.cancel()
					c.ch = nil
				}
			case 4:
				l.Close(event{Last: true})
				if !closed {
					total++
				}
				closed = true
			case 5:
				appendN(int(arg) * 4)
			}
		}
		events, isClosed := l.Since(0)
		if isClosed != closed || int64(len(events)) != min(total, Retain) {
			t.Fatalf("retained %d of %d events (closed %v)", len(events), total, isClosed)
		}
		if len(events) > 0 {
			checkContiguous(t, events, total-int64(len(events))+1)
		}
		if closed && !events[len(events)-1].Last {
			t.Fatal("closed log does not end with the terminal event")
		}
		// Every consumer drains and resumes until it has caught up.
		l.Close(event{Last: true})
		if !closed {
			total++
		}
		for i := range cons {
			c := &cons[i]
			for c.last < total {
				if c.ch == nil {
					subscribe(c)
				}
				for e := range c.ch {
					receive(c, e, false)
				}
				c.cancel()
				c.ch = nil
			}
		}
	})
}

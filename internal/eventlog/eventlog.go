// Package eventlog is the bounded, seq-numbered feed behind a job's
// progress events and a streaming session's results. Append gives each
// event the next seq (1, 2, 3, ...), the newest Retain events stay
// replayable, and any number of subscribers tail the log live. A
// subscriber that falls Buffer events behind is dropped rather than ever
// blocking the writer; it resumes from the last seq it received, which
// Follow does for it. Close appends the terminal event and ends the feed.
package eventlog

import (
	"context"
	"sync"
)

const (
	// Retain is how many of the newest events a log keeps. A cursor older
	// than the retained window resumes at the oldest retained event; the
	// gap shows in the first seq received.
	Retain = 512
	// Buffer is the channel depth of each subscriber. A subscriber that
	// falls further behind is dropped: its channel is closed.
	Buffer = 64
)

// Log is one seq-numbered event feed. Build it with New.
type Log[E any] struct {
	seq func(*E) *int64

	mu     sync.Mutex
	last   int64 // seq of the newest event, 0 before the first
	ring   []E   // retained events; seq s sits at ring[(s-1)%Retain]
	subs   []chan E
	closed bool
}

// New returns an empty log. seq returns the address of an event's seq
// field, which the log fills in on append and reads to resume a Follow;
// the log calls it under its lock, so it must do nothing else.
func New[E any](seq func(*E) *int64) *Log[E] { return &Log[E]{seq: seq} }

// Append assigns e the next seq, retains it and delivers it to every
// live subscriber. Appending to a closed log does nothing.
func (l *Log[E]) Append(e E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(e)
}

// Close appends last, the feed's terminal event, and closes the log:
// live subscriptions end after delivering it, and later ones get the
// replay and an already closed channel. Closing a closed log does
// nothing.
func (l *Log[E]) Close(last E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(last)
	l.closed = true
	for _, ch := range l.subs {
		close(ch)
	}
	l.subs = nil
}

func (l *Log[E]) appendLocked(e E) {
	if l.closed {
		return
	}
	l.last++
	*l.seq(&e) = l.last
	if len(l.ring) < Retain {
		l.ring = append(l.ring, e)
	} else {
		l.ring[(l.last-1)%Retain] = e
	}
	live := l.subs[:0]
	for _, ch := range l.subs {
		select {
		case ch <- e:
			live = append(live, ch)
		default:
			close(ch)
		}
	}
	clear(l.subs[len(live):])
	l.subs = live
}

// Since returns a copy of the retained events with seq > after, and
// whether the log is closed.
func (l *Log[E]) Since(after int64) (events []E, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceLocked(after), l.closed
}

func (l *Log[E]) sinceLocked(after int64) []E {
	first := max(after+1, l.last-int64(len(l.ring))+1)
	if first > l.last {
		return nil
	}
	out := make([]E, 0, l.last-first+1)
	for s := first; s <= l.last; s++ {
		out = append(out, l.ring[(s-1)%Retain])
	}
	return out
}

// Subscribe returns the retained events with seq > after and a channel
// delivering every later event in order. The channel is closed after the
// terminal event (at once, if the log is already closed), on cancel, or
// when the subscriber falls more than Buffer events behind; then it
// resumes by subscribing again from the last seq it received. cancel
// must be called once the subscription is no longer read.
func (l *Log[E]) Subscribe(after int64) (replay []E, ch <-chan E, cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	replay = l.sinceLocked(after)
	if l.closed {
		done := make(chan E)
		close(done)
		return replay, done, func() {}
	}
	sub := make(chan E, Buffer)
	l.subs = append(l.subs, sub)
	return replay, sub, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		for i, c := range l.subs {
			if c == sub {
				l.subs = append(l.subs[:i], l.subs[i+1:]...)
				close(sub)
				return
			}
		}
	}
}

// Subscribers reports how many live subscriptions the log has.
func (l *Log[E]) Subscribers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.subs)
}

// Follow calls yield with each event after seq after, in order and
// once: the retained replay, then live events, subscribing again from
// the last seq yielded whenever the subscription is dropped. It returns
// after yielding the terminal event, when yield returns false, or when
// ctx is done.
func (l *Log[E]) Follow(ctx context.Context, after int64, yield func(E) bool) {
	for l.followOnce(ctx, &after, yield) {
	}
}

// followOnce tails one subscription and reports whether the feed goes
// on, that is, the subscription was dropped before the terminal event.
func (l *Log[E]) followOnce(ctx context.Context, after *int64, yield func(E) bool) bool {
	replay, ch, cancel := l.Subscribe(*after)
	defer cancel()
	for _, e := range replay {
		if !yield(e) {
			return false
		}
		*after = *l.seq(&e)
	}
	for {
		select {
		case e, open := <-ch:
			if !open {
				l.mu.Lock()
				defer l.mu.Unlock()
				return !l.closed || *after < l.last
			}
			// A cursor ahead of the log skips live events up to it.
			if seq := *l.seq(&e); seq > *after {
				if !yield(e) {
					return false
				}
				*after = seq
			}
		case <-ctx.Done():
			return false
		}
	}
}

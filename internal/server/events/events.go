// Package events holds the per-job progress log behind the daemon's SSE
// endpoint (GET /v1/jobs/{id}/events): an append-only sequence of events
// with monotonic IDs that any number of subscribers can replay from an
// arbitrary position and then follow live. Because the full history stays
// in the log until the job is evicted, a client that reconnects with
// Last-Event-ID loses nothing — the handler replays the missed suffix and
// keeps streaming.
package events

import (
	"context"
	"slices"
	"sync"

	"uflip/internal/api"
)

// Log is one job's append-only event history. It is safe for concurrent
// use by one appender and any number of readers.
type Log struct {
	mu     sync.Mutex
	events []api.Event
	closed bool          //uflint:scratch — the reloader re-derives it from the persisted job status
	wake   chan struct{} //uflint:scratch — sync primitive; made by a waiting reader, closed by the next append or Close
}

// NewLog returns an empty open log.
func NewLog() *Log {
	return &Log{}
}

// Restore rebuilds a log from persisted events (IDs must already be the
// contiguous sequence 1..n, as Append assigned them). The log is returned
// closed: a restored job is finished, its history complete.
func Restore(evs []api.Event) *Log {
	l := NewLog()
	l.events = append(l.events, evs...)
	l.closed = true
	return l
}

// Append assigns the next monotonic ID (starting at 1), appends the event
// and wakes blocked readers. Appending to a closed log is a no-op that
// returns the event unmodified.
func (l *Log) Append(e api.Event) api.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return e
	}
	e.ID = int64(len(l.events)) + 1
	l.events = append(l.events, e)
	if l.wake != nil { // a reader waits on it
		close(l.wake)
		l.wake = nil
	}
	return e
}

// Close marks the history complete: blocked and future Next calls beyond
// the last event return ok=false instead of waiting.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	if l.wake != nil {
		close(l.wake)
	}
}

// Next returns the first event with ID > after, blocking until it exists.
// ok=false means the log closed with no further events; an error means ctx
// ended first.
func (l *Log) Next(ctx context.Context, after int64) (api.Event, bool, error) {
	if after < 0 {
		after = 0
	}
	for {
		l.mu.Lock()
		if after < int64(len(l.events)) {
			e := l.events[after] // events[i].ID == i+1
			l.mu.Unlock()
			return e, true, nil
		}
		if l.closed {
			l.mu.Unlock()
			return api.Event{}, false, nil
		}
		if l.wake == nil {
			l.wake = make(chan struct{})
		}
		wake := l.wake
		l.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return api.Event{}, false, ctx.Err()
		}
	}
}

// Snapshot returns the history so far, the persisted form of the log, as is:
// Append only writes past its events, and its cap keeps appends to it out.
func (l *Log) Snapshot() []api.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events[:len(l.events):len(l.events)]
}

// Grow makes room for n more events at once, so a job that knows how many
// it will append grows its history once instead of doubling it.
func (l *Log) Grow(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = slices.Grow(l.events, n)
}

// Len returns the number of events appended so far.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

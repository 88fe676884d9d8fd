package events_test

import (
	"context"
	"testing"
	"time"

	"uflip/internal/api"
	"uflip/internal/server/events"
)

func TestAppendAssignsMonotonicIDs(t *testing.T) {
	l := events.NewLog()
	for i := 0; i < 5; i++ {
		l.Append(api.Event{Type: api.EventProgress})
	}
	snap := l.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("got %d events, want 5", len(snap))
	}
	for i, ev := range snap {
		if ev.ID != int64(i+1) {
			t.Fatalf("event %d has ID %d, want %d", i, ev.ID, i+1)
		}
	}
}

func TestNextReplaysHistoryThenBlocks(t *testing.T) {
	l := events.NewLog()
	l.Append(api.Event{Type: api.EventQueued})
	l.Append(api.Event{Type: api.EventRunning})

	ctx := context.Background()
	ev, ok, err := l.Next(ctx, 0)
	if err != nil || !ok || ev.ID != 1 || ev.Type != api.EventQueued {
		t.Fatalf("Next(0) = %+v, %v, %v", ev, ok, err)
	}
	ev, ok, err = l.Next(ctx, 1)
	if err != nil || !ok || ev.ID != 2 {
		t.Fatalf("Next(1) = %+v, %v, %v", ev, ok, err)
	}

	// Beyond the history Next blocks until an append arrives.
	got := make(chan api.Event, 1)
	go func() {
		ev, ok, err := l.Next(ctx, 2)
		if err == nil && ok {
			got <- ev
		}
	}()
	select {
	case <-got:
		t.Fatal("Next returned before an event was appended")
	case <-time.After(20 * time.Millisecond):
	}
	l.Append(api.Event{Type: api.EventDone})
	select {
	case ev := <-got:
		if ev.ID != 3 || ev.Type != api.EventDone {
			t.Fatalf("woken Next = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("Next did not wake on append")
	}
}

func TestNextClampsNegativeAfter(t *testing.T) {
	l := events.NewLog()
	l.Append(api.Event{Type: api.EventQueued})
	ev, ok, err := l.Next(context.Background(), -7)
	if err != nil || !ok || ev.ID != 1 {
		t.Fatalf("Next(-7) = %+v, %v, %v", ev, ok, err)
	}
}

func TestCloseDrainsThenEnds(t *testing.T) {
	l := events.NewLog()
	l.Append(api.Event{Type: api.EventQueued})
	l.Close()
	// History before the close still replays...
	ev, ok, err := l.Next(context.Background(), 0)
	if err != nil || !ok || ev.ID != 1 {
		t.Fatalf("Next after close = %+v, %v, %v", ev, ok, err)
	}
	// ...then the stream reports closed instead of blocking.
	if _, ok, err := l.Next(context.Background(), 1); ok || err != nil {
		t.Fatalf("Next past close: ok=%v err=%v, want closed", ok, err)
	}
	// Appends after close are dropped.
	l.Append(api.Event{Type: api.EventDone})
	if l.Len() != 1 {
		t.Fatalf("append after close grew the log to %d", l.Len())
	}
}

func TestNextHonorsContext(t *testing.T) {
	l := events.NewLog()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := l.Next(ctx, 0)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Next returned nil error on canceled context")
		}
	case <-time.After(time.Second):
		t.Fatal("Next did not observe context cancellation")
	}
}

func TestRestoreIsClosedHistory(t *testing.T) {
	hist := []api.Event{
		{ID: 1, Type: api.EventQueued},
		{ID: 2, Type: api.EventRunning},
		{ID: 3, Type: api.EventDone},
	}
	l := events.Restore(hist)
	for i := range hist {
		ev, ok, err := l.Next(context.Background(), int64(i))
		if err != nil || !ok || ev.ID != hist[i].ID {
			t.Fatalf("restored Next(%d) = %+v, %v, %v", i, ev, ok, err)
		}
	}
	if _, ok, _ := l.Next(context.Background(), 3); ok {
		t.Fatal("restored log did not end after its history")
	}
}

// TestSnapshotStaysWhileTheLogGrows: a snapshot, which shares the log's
// memory, keeps its events while the log appends and grows past them, and
// an append to the snapshot does not reach the log. Under the race detector
// the snapshot is read while the log is appended to.
func TestSnapshotStaysWhileTheLogGrows(t *testing.T) {
	l := events.NewLog()
	l.Grow(8)
	for i := 0; i < 3; i++ {
		l.Append(api.Event{Type: api.EventProgress, Done: i})
	}
	snap := l.Snapshot()
	l.Append(api.Event{Type: api.EventProgress, Done: 3})
	_ = append(snap, api.Event{Type: api.EventFailed}) // where the log holds its fourth
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 4; i < 100; i++ {
			if i%10 == 0 {
				l.Grow(5)
			}
			l.Append(api.Event{Type: api.EventProgress, Done: i})
		}
	}()
	check := func() {
		if len(snap) != 3 {
			t.Fatalf("snapshot holds %d events, want 3", len(snap))
		}
		for i, ev := range snap {
			if ev.ID != int64(i+1) || ev.Done != i || ev.Type != api.EventProgress {
				t.Fatalf("snapshot event %d is %+v", i, ev)
			}
		}
	}
	check()
	<-done
	check()
	ev, ok, err := l.Next(context.Background(), 3)
	if err != nil || !ok || ev.ID != 4 || ev.Done != 3 || ev.Type != api.EventProgress || l.Len() != 100 {
		t.Fatalf("after the snapshot the log holds %d events, the fourth %+v", l.Len(), ev)
	}
}

package core

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

// span is the address range a window's capacity covers.
func span(w []time.Duration) (lo, hi uintptr) {
	w = w[:cap(w)]
	return uintptr(unsafe.Pointer(&w[0])), uintptr(unsafe.Pointer(&w[len(w)-1])) + 8
}

// takeJob takes one window per size, checks that each is empty with exactly
// the capacity asked for, and fills each to its capacity with a value of its
// own; it returns the windows.
func takeJob(t *testing.T, s *Series, sizes []int) [][]time.Duration {
	t.Helper()
	var ws [][]time.Duration
	for k, n := range sizes {
		w := s.Take(n)
		if len(w) != 0 || cap(w) != n {
			t.Fatalf("Take(%d) = len %d cap %d, want an empty window of capacity %d", n, len(w), cap(w), n)
		}
		w = w[:n]
		for i := range w {
			w[i] = time.Duration(k + 1)
		}
		ws = append(ws, w)
	}
	return ws
}

// disjoint fails if two windows share a slot, or a window lost a value its
// filler wrote.
func disjoint(t *testing.T, ws [][]time.Duration) {
	t.Helper()
	for k, w := range ws {
		for _, v := range w {
			if v != time.Duration(k+1) {
				t.Fatalf("window %d holds %d: another window overlaps it", k, v)
			}
		}
		lo, hi := span(w)
		for j := range k {
			if l, h := span(ws[j]); lo < h && l < hi {
				t.Fatalf("windows %d and %d overlap", j, k)
			}
		}
	}
}

// TestSeriesCarvesAndReuses: windows never overlap and have exactly the
// capacity asked for; the first job's windows are allocated beside the
// empty buffer, Reset then sizes one slab to all of them, and every later
// job that fits takes its windows from that slab, in order, from its start.
// A job that outgrows the slab leaves one of exactly what it took, and a job
// that takes nothing drops it.
func TestSeriesCarvesAndReuses(t *testing.T) {
	sizes := []int{5, 1, 300, 64}
	s := new(Series)
	disjoint(t, takeJob(t, s, sizes))
	s.Reset()
	if len(s.slab) != 370 {
		t.Fatalf("after a job of 370 slots the slab holds %d", len(s.slab))
	}
	for range 3 {
		ws := takeJob(t, s, sizes)
		disjoint(t, ws)
		at := 0
		for k, w := range ws {
			if &w[0] != &s.slab[at] {
				t.Fatalf("window %d does not start at slot %d of the slab", k, at)
			}
			at += len(w)
		}
		s.Reset()
	}

	// A smaller job keeps the slab; a larger one replaces it.
	disjoint(t, takeJob(t, s, []int{10}))
	s.Reset()
	if len(s.slab) != 370 {
		t.Fatalf("a job that took 10 slots of the slab left %d, want the 370 it took them from", len(s.slab))
	}
	disjoint(t, takeJob(t, s, []int{300, 100}))
	s.Reset()
	if len(s.slab) != 400 {
		t.Fatalf("a job that took 400 slots left a slab of %d, want 400", len(s.slab))
	}
	s.Reset()
	if s.slab != nil {
		t.Fatalf("a job that took nothing left a slab of %d", len(s.slab))
	}
}

// TestSeriesConcurrentTakes: one job's engine workers take windows at once;
// none overlaps another.
func TestSeriesConcurrentTakes(t *testing.T) {
	s := new(Series)
	takeJob(t, s, []int{4000})
	s.Reset()
	const workers, each = 4, 100
	ws := make([][]time.Duration, workers*each)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				ws[g*each+i] = s.Take(8 + i%3)
			}
		}()
	}
	wg.Wait()
	for k := range ws {
		ws[k] = ws[k][:cap(ws[k])]
		for i := range ws[k] {
			ws[k][i] = time.Duration(k + 1)
		}
	}
	disjoint(t, ws)
}

// TestNilSeriesAllocates: without a buffer every window is a new array, as
// a run's response times were before there was one.
func TestNilSeriesAllocates(t *testing.T) {
	var s *Series
	disjoint(t, takeJob(t, s, []int{3, 3, 7}))
	var sink []time.Duration
	if got := testing.AllocsPerRun(10, func() { sink = s.Take(64) }); got != 1 {
		t.Errorf("Take on a nil Series allocates %v times, want 1", got)
	}
	_ = sink
}

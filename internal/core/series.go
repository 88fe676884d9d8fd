package core

import (
	"sync"
	"time"
)

// Series is the memory a long-lived worker carves its runs' response times
// from, so that once a job's series have left the heap its next job reuses
// them. Take hands out windows of one slab in turn, and allocates a window
// the slab cannot hold on its own. Reset keeps the slab if the job took a
// window of it and drops it otherwise; if the job outgrew it, Reset makes one
// slab of exactly what the job took. So the worker keeps one job's series:
// ≈1.6 MB for a serve-small plan (200,704 response times), 160 KB for its
// replay (20,000), 8.8 MB for a 1 GiB nine-micro plan. A replay that follows
// a plan takes its window from the plan's slab, which stays.
//
// A nil *Series allocates every window, as a run without one always did.
// Take is safe for concurrent use by one job's engine workers; Reset must not
// overlap a Take.
type Series struct {
	mu    sync.Mutex
	slab  []time.Duration
	off   int // slots of slab taken since the last Reset
	spill int // slots allocated beside slab since the last Reset
}

// Take returns an empty window of capacity exactly n, so an append within
// it never reaches the next window. Its slots hold whatever an earlier job
// left there: a run writes every slot it reads.
func (s *Series) Take(n int) []time.Duration {
	if s == nil {
		return make([]time.Duration, 0, n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.off+n > len(s.slab) {
		s.spill += n
		return make([]time.Duration, 0, n)
	}
	w := s.slab[s.off : s.off : s.off+n]
	s.off += n
	return w
}

// Reset makes the memory free for the next job, which overwrites it: no
// window taken since the last Reset may be read after it.
func (s *Series) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.spill > 0:
		s.slab = make([]time.Duration, s.off+s.spill)
	case s.off == 0:
		s.slab = nil
	}
	s.off, s.spill = 0, 0
}

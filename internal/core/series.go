package core

import (
	"sync"
	"time"
)

// RunState is what a long-lived worker (a daemon's) keeps across the jobs it
// runs: the Series their response times are carved from, shared by a job's
// engine workers, and one Scratch per engine worker. A nil *RunState gives
// each execution fresh scratch and allocates every series, as a one-shot
// run always did. A RunState serves one job at a time.
type RunState struct {
	// Series is where the jobs' response times are carved from; nil
	// allocates them. Its owner resets it after a job, or replaces it when
	// the job keeps the memory.
	Series  *Series
	scratch []Scratch
}

// Scratch returns the scratch of an execution on n engine workers, one each:
// st's own, grown to n, or n fresh ones for a nil st.
func (st *RunState) Scratch(n int) []Scratch {
	if st == nil {
		return make([]Scratch, n)
	}
	for len(st.scratch) < n {
		st.scratch = append(st.scratch, Scratch{state: st})
	}
	return st.scratch[:n]
}

// Take is st.Series.Take; a nil st allocates the window.
func (st *RunState) Take(n int) []time.Duration {
	if st == nil {
		return make([]time.Duration, 0, n)
	}
	return st.Series.Take(n)
}

// Series is the memory a RunState's runs carve their response times from,
// so that once a job's series have left the heap its next job reuses them.
// Take hands out windows of one slab in turn, and allocates a window
// the slab cannot hold on its own. Reset keeps the slab if the job took a
// window of it and drops it otherwise; if the job outgrew it, Reset makes one
// slab of exactly what the job took. So the worker keeps one job's series:
// ≈1.6 MB for a serve-small plan (200,704 response times), 160 KB for its
// replay (20,000), 8.8 MB for a 1 GiB nine-micro plan. A replay that follows
// a plan takes its window from the plan's slab, which stays.
//
// A nil *Series allocates every window. Take is safe for concurrent use by
// one job's engine workers; Reset must not overlap a Take.
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

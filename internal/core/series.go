package core

import (
	"slices"
	"sync"
	"time"

	"uflip/internal/stats"
	"uflip/internal/trace"
)

// RunState is what a long-lived worker (a daemon's) keeps across the jobs it
// runs: the Series their response times are carved from, one Scratch per
// engine worker with the Runs it returned, and the rest of what a job's one
// execution returns, which the next job overwrites. Beside the series a plan
// keeps ≈550 B a run (a Run, a result, a record and three slots): 53 KB for
// serve-small's plan at 64 MiB (96 runs, 1.6 MB of series), 164 KB for a
// nine-micro plan at 1 GiB (298 runs, 8.8 MB) and 167 KB at 32 GiB (302 runs,
// 7.9 MB); a replay of 20,000 ops keeps 25 KB of windows and histogram. An
// execution without a RunState runs on a fresh one, as a one-shot run does.
// A RunState serves one job at a time; the owner resets its Series after each.
type RunState struct {
	Series  *Series           // nil allocates every window
	Runs    []*Run            // the runs engine.ExecuteEach merged
	Ends    []time.Duration   // where each plan run's shard timeline ends
	Results []PlanResult      // a plan's results (engine.ExecutePlan)
	Records []trace.RunRecord // the run records (paperexp.AppendRecords)
	Windows []stats.Window    // a replay's windows (workload.ReplaySource)
	Select  stats.Selector    // and its percentile histogram
	scratch []Scratch
}

// Resize sets *buf to n zero elements, in its memory when that holds n.
func Resize[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	clear(*buf)
	return *buf
}

// OrFresh returns st, or a fresh RunState for a nil st.
func (st *RunState) OrFresh() *RunState {
	if st == nil {
		return new(RunState)
	}
	return st
}

// Scratch returns st's scratch for an execution on n engine workers, one
// each; the Runs it returned before are free again (Scratch.NewRun).
func (st *RunState) Scratch(n int) []Scratch {
	for len(st.scratch) < n {
		st.scratch = append(st.scratch, Scratch{state: st})
	}
	for i := range st.scratch {
		st.scratch[i].nrun = 0
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

package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the ID of the span that caused this one (-1 for the job's
// root). Times are nanoseconds since the process's trace epoch.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// jobTrace collects the raw spans of one job. begin/end/add are safe for
// concurrent use: engine workers record clone and segment spans while the
// job's goroutine holds the enclosing span open.
type jobTrace struct {
	job   int
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// What the job's goroutine notes beside the spans.
	totals      layerTotals   // interposer accumulators, merged at job end
	execCPU     time.Duration // process CPU time inside engine.execute
	loads, hits int           // statestore.Load calls and hits
	events      int           // SSE frames received
	refused     int           // 429/503 answers to Submit
	queueWait   time.Duration // JobStatus.Started - Submitted
	daemonRun   time.Duration // JobStatus.Finished - Started
}

func newJobTrace(job int, epoch time.Time) *jobTrace {
	return &jobTrace{job: job, epoch: epoch}
}

// begin opens a span under parent (-1 for the root) and returns its ID.
func (jt *jobTrace) begin(name string, parent int) int {
	now := int64(time.Since(jt.epoch))
	jt.mu.Lock()
	defer jt.mu.Unlock()
	id := len(jt.spans)
	jt.spans = append(jt.spans, span{Name: name, Job: jt.job, ID: id, Parent: parent, Start: now, End: now})
	return id
}

// end closes the span begin returned.
func (jt *jobTrace) end(id int) {
	now := int64(time.Since(jt.epoch))
	jt.mu.Lock()
	jt.spans[id].End = now
	jt.mu.Unlock()
}

// add records a span whose both ends the caller already measured.
func (jt *jobTrace) add(name string, parent int, start, end time.Time) {
	jt.mu.Lock()
	jt.spans = append(jt.spans, span{
		Name: name, Job: jt.job, ID: len(jt.spans), Parent: parent,
		Start: int64(start.Sub(jt.epoch)), End: int64(end.Sub(jt.epoch)),
	})
	jt.mu.Unlock()
}

// timed runs fn inside a span.
func (jt *jobTrace) timed(name string, parent int, fn func() error) error {
	id := jt.begin(name, parent)
	err := fn()
	jt.end(id)
	return err
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int
	Total time.Duration // sum of durations (inclusive of children)
	Self  time.Duration // sum of durations minus the part child spans cover
	Max   time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the length of the union of its children's intervals clipped to it:
// children that overlap each other (parallel workers under one parent) are
// counted once, never twice.
func selfTimes(spans []span) map[string]spanStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanStat)
	for _, s := range spans {
		st := out[s.Name]
		d := s.dur()
		st.Count++
		st.Total += d
		st.Self += d - covered(s, children[s.ID])
		if d > st.Max {
			st.Max = d
		}
		out[s.Name] = st
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = parent.Start
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return time.Duration(total)
}

// reservoirCap bounds the raw spans kept for -trace-out: enough for every
// span of a few plan jobs (~300 each), small enough that a 600-job serve
// run cannot grow it.
const reservoirCap = 8192

// reservoir keeps a uniform sample of at most reservoirCap spans
// (Algorithm R), so the span file is bounded whatever the job count.
type reservoir struct {
	rng   *rand.Rand
	seen  int
	spans []span
}

func newReservoir(seed int64) *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) offer(spans []span) {
	for _, s := range spans {
		r.seen++
		if len(r.spans) < reservoirCap {
			r.spans = append(r.spans, s)
			continue
		}
		if j := r.rng.Intn(r.seen); j < reservoirCap {
			r.spans[j] = s
		}
	}
}

// spanFile is the JSON document -trace-out receives.
type spanFile struct {
	Workload string `json:"workload"`
	Seen     int    `json:"spans_seen"`
	Spans    []span `json:"spans"`
}

func (r *reservoir) write(path, workload string) error {
	data, err := json.Marshal(spanFile{Workload: workload, Seen: r.seen, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

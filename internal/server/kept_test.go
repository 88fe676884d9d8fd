package server

// Tests for what a daemon keeps across jobs: each worker's state (run state
// and encode buffers) and the trace store's open replay sources.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"uflip/internal/api"
	"uflip/internal/core"
	runner "uflip/internal/job"
	"uflip/internal/paperexp"
	"uflip/internal/server/events"
	"uflip/internal/workload"
)

// utrUpload is a seeded zipf stream of n ops in the .utr form.
func utrUpload(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	gen, err := workload.Spec{Kind: "zipf", Count: n, Seed: seed, TargetSize: 32 << 20}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := workload.WriteUTR(&b, ops); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// keptServer is a daemon with a state and a job directory, and the normalized
// requests of a two-micro plan and a replay of a 2,000-op .utr upload: the
// two kinds of job serve-small repeats.
func keptServer(t *testing.T) (*Server, []api.JobRequest) {
	t.Helper()
	dir := t.TempDir()
	s, err := New(Config{StateDir: filepath.Join(dir, "state"), JobDir: filepath.Join(dir, "jobs"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	info, err := s.traces.ingest(bytes.NewReader(utrUpload(t, 2000, 5)))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []api.JobRequest{
		{Kind: "plan", Device: "memoright", Capacity: 64 << 20, IOCount: 64, Micros: []string{"Granularity", "Locality"}, Parallel: 1},
		{Kind: "workload", Device: "kingston-dthx", Capacity: 64 << 20, Parallel: 1,
			Workload: &api.WorkloadRequest{TraceHash: info.Hash, SegmentOps: 500, WindowOps: 256}},
	}
	for i := range reqs {
		if err := runner.Normalize(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s, reqs
}

// runOn runs req to done through runJob on ws, resets ws's series, as a
// worker does, and returns the job.
func (s *Server) runOn(t testing.TB, ws *workerState, id string, req api.JobRequest) *job {
	j := &job{jobRecord: jobRecord{ID: id, Req: req, Status: api.StatusRunning}, log: events.NewLog(), cancel: func() {}}
	s.runJob(context.Background(), j, ws)
	if j.Status != api.StatusDone || j.results != nil {
		t.Fatalf("job %s: %s (%s), results in memory: %v", id, j.Status, j.Error, j.results != nil)
	}
	ws.run.Series.Reset()
	return j
}

// TestRepeatedJobAllocations pins what a repeated daemon job allocates: a
// plan and a .utr replay, each run again on one worker state, with the
// daemon's kept devices, plans and trace sources. Measured with go1.24: 152 a
// plan and 160 a replay on amd64, 151 and 159 on 386. Rebuilding the plan
// adds ~285, fresh scratch ~107 a plan and 4 a replay (batch, decode
// buffer), reopening and verifying the trace 14, a fresh results encoder 36
// and 13, formatting the run IDs again ~380 a plan, fresh render buffers 10
// and 5, a fresh record encoder 21 and 12, a clone per job instead of a lent
// device copy 22 and 13, fresh Runs 96 and 4, fresh result slices, records,
// windows and histogram 4 and 5, and a string per cell (and a boxed number)
// in the CSV and the report ~2,030 a plan and ~140 a replay: each passes its
// ceiling.
func TestRepeatedJobAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	s, reqs := keptServer(t)
	ws := &workerState{run: core.RunState{Series: new(core.Series)}}
	for k, c := range []struct {
		name    string
		ceiling float64
	}{
		{"plan", 153},
		{"replay", 161},
	} {
		n := 0
		run := func() {
			n++
			s.runOn(t, ws, fmt.Sprintf("j-%d%05d", k, n), reqs[k])
		}
		run() // the first job prepares what the second reuses
		got := testing.AllocsPerRun(5, run)
		t.Logf("a repeated %s job allocates %v times", c.name, got)
		if got > c.ceiling {
			t.Errorf("a repeated %s job allocates %v times, want at most %v", c.name, got, c.ceiling)
		}
	}
}

// TestKeptTraceOutlivesItsDrop: two replays at once share the one source
// kept for their trace; a replay holding it keeps it open while the store
// drops it for keptTraces newer traces, and its release closes it.
func TestKeptTraceOutlivesItsDrop(t *testing.T) {
	s, reqs := keptServer(t)
	hash := reqs[1].Workload.TraceHash
	replay := func(src workload.Source) ([]byte, error) {
		res, err := workload.ReplaySource(context.Background(), src, paperexp.ShardFactory("mtron", paperexp.Config{Capacity: 64 << 20, Seed: 1}), workload.Options{SegmentOps: 500, Workers: 2})
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	k, err := s.traces.source(hash)
	if err != nil {
		t.Fatal(err)
	}
	want, err := replay(k.src)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	held := make([]*keptTrace, 2)
	for i := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if held[i], err = s.traces.source(hash); err != nil {
				t.Error(err)
				return
			}
			if got, err := replay(held[i].src); err != nil || !bytes.Equal(got, want) {
				t.Errorf("concurrent replay %d: %v, same bytes %v", i, err, bytes.Equal(got, want))
			}
		}()
	}
	wg.Wait()
	if held[0] != k || held[1] != k {
		t.Fatal("concurrent replays of one trace did not share its kept source")
	}
	s.traces.release(held[0])
	s.traces.release(held[1])

	for i := range keptTraces {
		info, err := s.traces.ingest(bytes.NewReader(utrUpload(t, 100, int64(10+i))))
		if err != nil {
			t.Fatal(err)
		}
		other, err := s.traces.source(info.Hash)
		if err != nil {
			t.Fatal(err)
		}
		s.traces.release(other)
	}
	for _, kept := range s.traces.kept {
		if kept == k {
			t.Fatalf("the store keeps the least recently replayed of %d traces", keptTraces+1)
		}
	}
	if got, err := replay(k.src); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a replay holding a dropped source: %v, same bytes %v", err, bytes.Equal(got, want))
	}
	s.traces.release(k)
	if _, err := replay(k.src); err == nil {
		t.Fatal("the dropped source still reads after its last replay released it")
	}
}

package server_test

// Tests for where a finished job's results file lives: in the daemon's heap
// only while the job directory does not hold it, in <id>.results once it does
// — with the same bytes served either way.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/server"
)

// clockedDaemon starts a daemon whose clock stands at a fixed instant plus
// the returned offset, which the test moves.
func clockedDaemon(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	srv, ts := newTestServer(t, cfg)
	base := time.Unix(1_700_000_000, 0)
	offset := new(atomic.Int64)
	server.SetClock(srv, func() time.Time { return base.Add(time.Duration(offset.Load())) })
	return srv, ts, offset
}

// noneHeld fails the test if a retained job keeps its results file in
// memory: with a job directory, a job is done once <id>.results holds it.
func noneHeld(t *testing.T, srv *server.Server) {
	t.Helper()
	if held := server.HeldResults(srv); len(held) != 0 {
		t.Fatalf("jobs %v keep their results in memory although the job directory holds them", held)
	}
}

// TestRecordsServedAlikeFromHeapAndDisk: a plan job and a workload job serve
// the same status (runs included), /result, /csv and /report on a daemon
// without a job directory, which keeps their results files in memory, on one
// with a job directory, which keeps them there only, and on a daemon
// restarted over that directory.
func TestRecordsServedAlikeFromHeapAndDisk(t *testing.T) {
	reqs := []api.JobRequest{planRequest("mtron", "Order"), workloadRequest()}
	served := func(ts *httptest.Server, id string) map[string][]byte {
		out := servedBytes(t, ts, id)
		code, status := get(t, ts, "/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, code, status)
		}
		out["status"] = status
		return out
	}
	run := func(cfg server.Config) (*server.Server, map[string]map[string][]byte) {
		srv, ts, _ := clockedDaemon(t, cfg)
		var ids []string
		for _, req := range reqs {
			ids = append(ids, submit(t, ts, req).ID)
		}
		for _, id := range ids {
			waitFor(t, ts, id, api.StatusDone)
		}
		if cfg.JobDir != "" {
			noneHeld(t, srv)
		}
		out := make(map[string]map[string][]byte)
		for _, id := range ids {
			out[id] = served(ts, id)
		}
		return srv, out
	}

	inMemory, want := run(server.Config{Workers: 1})
	if held := server.HeldResults(inMemory); len(held) != len(reqs) {
		t.Errorf("without a job directory %d jobs keep their results, want %d: they are the only copy", len(held), len(reqs))
	}
	for id, routes := range want {
		var st api.JobStatus
		if err := json.Unmarshal(routes["status"], &st); err != nil || st.Runs == 0 {
			t.Fatalf("%s: status %s reports no runs (%v)", id, routes["status"], err)
		}
	}

	jobDir := t.TempDir()
	durable, got := run(server.Config{JobDir: jobDir, Workers: 1})
	for id := range want {
		sameServed(t, id+" read back from the job directory", got[id], want[id])
	}
	durable.Close()

	restarted, ts, _ := clockedDaemon(t, server.Config{JobDir: jobDir, Workers: 1})
	noneHeld(t, restarted)
	for id := range want {
		sameServed(t, id+" after a restart", served(ts, id), want[id])
	}
}

// TestFailedPersistKeepsRecords: when a job's results file cannot be
// written, the job keeps it in memory — the only copy — and /result serves
// its run records.
func TestFailedPersistKeepsRecords(t *testing.T) {
	_, clean := newTestServer(t, server.Config{Workers: 1})
	id := submit(t, clean, planRequest("mtron", "Order")).ID
	waitFor(t, clean, id, api.StatusDone)
	_, want := get(t, clean, "/jobs/"+id+"/result")

	jobDir := t.TempDir()
	// A directory where the job's run records go makes their write fail.
	if err := os.MkdirAll(filepath.Join(jobDir, "jobs", id+".results"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, server.Config{JobDir: jobDir, Workers: 1})
	if got := submit(t, ts, planRequest("mtron", "Order")).ID; got != id {
		t.Fatalf("job ID %s, want %s", got, id)
	}
	waitFor(t, ts, id, api.StatusDone)
	srv.Close() // drains the worker: the persist has been tried
	if held := server.HeldResults(srv); !slices.Equal(held, []string{id}) {
		t.Fatalf("after a failed persist the jobs keeping their results are %v, want [%s]", held, id)
	}
	if code, got := get(t, ts, "/jobs/"+id+"/result"); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("/result after a failed persist: HTTP %d, %d bytes; want the %d bytes of an undisturbed run", code, len(got), len(want))
	}
	if got := durableStatus(t, jobDir, id); got != api.StatusQueued {
		t.Fatalf("durable record says %q although %s.results was never written; want queued", got, id)
	}
}

// TestResultsFileBeforeDone: with a job directory, <id>.results is complete
// as soon as a client has the job's done event: the worker writes it before
// the job turns done, and the job keeps no copy.
func TestResultsFileBeforeDone(t *testing.T) {
	jobDir := t.TempDir()
	srv, ts := newTestServer(t, server.Config{JobDir: jobDir, Workers: 1})
	c := &client.Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, req := range []api.JobRequest{planRequest("mtron", "Order"), workloadRequest()} {
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var last api.Event
		if err := c.Events(ctx, st.ID, 0, func(ev api.Event) { last = ev }); err != nil {
			t.Fatal(err)
		}
		if last.Type != api.EventDone || last.Runs == 0 {
			t.Fatalf("%s ended on %+v, want done with runs", st.ID, last)
		}
		res, err := server.ReadResults(filepath.Join(jobDir, "jobs", st.ID+".results"))
		if err != nil || len(res.Records) != last.Runs {
			t.Fatalf("%s.results at the done event: %d run records, %v; want the %d done reports", st.ID, len(res.Records), err, last.Runs)
		}
		noneHeld(t, srv)
	}
}

// TestResultDuringEviction: clients fetch /result of every finished job in a
// loop while later jobs finish and KeepJobs 1 evicts the earlier ones, their
// files included. Each answer is the exact bytes or 404 not_found — never a
// 500 or a torn body — whether eviction comes before the lookup, between the
// lookup and the read from disk, or during that read.
func TestResultDuringEviction(t *testing.T) {
	srv, ts, offset := clockedDaemon(t, server.Config{JobDir: t.TempDir(), Workers: 1, KeepJobs: 1})
	c := &client.Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	finish := func() string {
		st, err := c.Submit(ctx, evictionRequest())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Events(ctx, st.ID, 0, func(api.Event) {}); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	first := finish()
	noneHeld(t, srv)
	code, want := get(t, ts, "/jobs/"+first+"/result")
	if code != http.StatusOK || !bytes.Contains(want, []byte(`"rts"`)) {
		t.Fatalf("/result: HTTP %d: %.200s", code, want)
	}

	var (
		mu       sync.Mutex
		done     = []string{first}
		stop     atomic.Bool
		ok, gone atomic.Int64
		wg       sync.WaitGroup
	)
	fetch := func(id string) {
		resp, err := http.Get(ts.URL + v1 + "/jobs/" + id + "/result")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Errorf("%s: reading /result: %v", id, err)
			return
		}
		var env api.ErrorEnvelope
		switch {
		case resp.StatusCode == http.StatusOK && bytes.Equal(body.Bytes(), want):
			ok.Add(1)
		case resp.StatusCode == http.StatusNotFound && json.Unmarshal(body.Bytes(), &env) == nil && env.Err.Code == api.CodeNotFound:
			gone.Add(1)
		default:
			t.Errorf("%s: /result answered HTTP %d with %d bytes: %.200s", id, resp.StatusCode, body.Len(), body.String())
		}
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && !t.Failed() {
				mu.Lock()
				ids := slices.Clone(done)
				mu.Unlock()
				for _, id := range ids {
					fetch(id)
				}
			}
		}()
	}
	for range 5 {
		offset.Add(int64(time.Second)) // every job so far is past its grace
		id := finish()
		mu.Lock()
		done = append(done, id)
		mu.Unlock()
	}
	noneHeld(t, srv)
	stop.Store(true)
	wg.Wait()
	for _, id := range done {
		fetch(id) // all but the last are evicted by now
	}
	if gone.Load() == 0 || ok.Load() == 0 {
		t.Errorf("%d exact answers and %d 404s; want some of each", ok.Load(), gone.Load())
	}
}

// evictionRequest is a short plan job.
func evictionRequest() api.JobRequest {
	return api.JobRequest{Kind: "plan", Device: "kingston-dti", Capacity: testCapacity, IOCount: testIOCount, Micros: []string{"Order"}, Parallel: 1}
}

// TestRetainedJobsLeaveRecordsOnDisk: 24 retained Granularity plan jobs
// (memoright, 64 MiB, iocount 64: 56 runs and 114,688 response times each,
// 0.92 MB as []time.Duration) grow the live heap by what their CSVs, reports
// and events take under a job directory, and by their results files as well
// without one — not by their series. The heap after runtime.GC grew 22.0 MB
// when every retained job kept its series in memory (21.8 MB under
// GOARCH=386, 22.0 MB under -race), with a job directory or without one.
// Since each job keeps its results bytes instead, it grows 10.4–10.8 MB
// without a job directory (0.37 MB of results file a job), and 1.6–2.0 MB
// with one, where the heap also holds the second worker's encode buffer
// (amd64, 386 and -race alike).
// The bounds, 6 MB and 14 MB, are 3.6× and 1.6× below the first.
func TestRetainedJobsLeaveRecordsOnDisk(t *testing.T) {
	t.Run("jobdir", func(t *testing.T) { retainedHeap(t, t.TempDir(), 6<<20) })
	t.Run("memory", func(t *testing.T) { retainedHeap(t, "", 14<<20) })
}

func retainedHeap(t *testing.T, jobDir string, bound int64) {
	const jobs = 24
	srv, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), JobDir: jobDir, Workers: 2})
	req := api.JobRequest{Kind: "plan", Device: "memoright", Capacity: 64 << 20, Seed: 42, IOCount: 64, Micros: []string{"Granularity"}, Parallel: 1}
	// One job first: it enforces the device state into the store, and the
	// first use of every code path allocates what later jobs share.
	waitFor(t, ts, submit(t, ts, req).ID, api.StatusDone)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var ids []string
	for range jobs {
		ids = append(ids, submit(t, ts, req).ID)
	}
	for _, id := range ids {
		waitFor(t, ts, id, api.StatusDone)
	}
	srv.Close() // drains the workers: every job is persisted
	after := heap()
	runtime.KeepAlive(srv)
	grown := int64(after) - int64(before)
	t.Logf("live heap grew %.2f MB for %d retained jobs", float64(grown)/(1<<20), jobs)
	if grown >= bound {
		t.Fatalf("live heap grew %.2f MB for %d retained jobs, bound %.0f MB: their run records stayed in memory",
			float64(grown)/(1<<20), jobs, float64(bound)/(1<<20))
	}
}

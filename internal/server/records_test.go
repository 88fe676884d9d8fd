package server_test

// Tests for where a finished job's run records live: in the daemon's heap
// only while the job directory does not hold them, read back from
// <id>.jsonl once it does — with the same bytes served either way.

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

// awaitNoneHeld polls until no retained job holds its run records: the
// worker drops them after the done event, once they are on disk.
func awaitNoneHeld(t *testing.T, srv *server.Server) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		held := server.HeldRunRecords(srv)
		if len(held) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs %v still hold their run records after being persisted", held)
		}
	}
}

// TestRecordsServedAlikeFromHeapAndDisk: a plan job and a workload job serve
// the same status (runs included), /result, /csv and /report on a daemon
// without a job directory, which keeps their run records in memory, on one
// with a job directory, which drops them once persisted, and on a daemon
// restarted over that directory — whose missing CSVs it re-renders.
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
			awaitNoneHeld(t, srv)
		}
		out := make(map[string]map[string][]byte)
		for _, id := range ids {
			out[id] = served(ts, id)
		}
		return srv, out
	}

	inMemory, want := run(server.Config{Workers: 1})
	if held := server.HeldRunRecords(inMemory); len(held) != len(reqs) {
		t.Errorf("without a job directory %d jobs hold their run records, want %d: they are the only copy", len(held), len(reqs))
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
	for id := range want {
		// A missing CSV is re-rendered from the run records read back.
		if err := os.Remove(filepath.Join(jobDir, "jobs", id+".csv")); err != nil {
			t.Fatal(err)
		}
	}

	restarted, ts, _ := clockedDaemon(t, server.Config{JobDir: jobDir, Workers: 1})
	if held := server.HeldRunRecords(restarted); len(held) != 0 {
		t.Errorf("a restarted daemon holds the run records of %v", held)
	}
	for id := range want {
		sameServed(t, id+" after a restart", served(ts, id), want[id])
	}
}

// TestFailedPersistKeepsRecords: when a job's .jsonl cannot be written, its
// run records stay in memory — the only copy — and /result serves them.
func TestFailedPersistKeepsRecords(t *testing.T) {
	_, clean := newTestServer(t, server.Config{Workers: 1})
	id := submit(t, clean, planRequest("mtron", "Order")).ID
	waitFor(t, clean, id, api.StatusDone)
	_, want := get(t, clean, "/jobs/"+id+"/result")

	jobDir := t.TempDir()
	// A directory where the job's run records go makes their write fail.
	if err := os.MkdirAll(filepath.Join(jobDir, "jobs", id+".jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, server.Config{JobDir: jobDir, Workers: 1})
	if got := submit(t, ts, planRequest("mtron", "Order")).ID; got != id {
		t.Fatalf("job ID %s, want %s", got, id)
	}
	waitFor(t, ts, id, api.StatusDone)
	srv.Close() // drains the worker: the persist has been tried
	if held := server.HeldRunRecords(srv); !slices.Equal(held, []string{id}) {
		t.Fatalf("after a failed persist the jobs holding run records are %v, want [%s]", held, id)
	}
	if code, got := get(t, ts, "/jobs/"+id+"/result"); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("/result after a failed persist: HTTP %d, %d bytes; want the %d bytes of an undisturbed run", code, len(got), len(want))
	}
	if got := durableStatus(t, jobDir, id); got != api.StatusQueued {
		t.Fatalf("durable record says %q although %s.jsonl was never written; want queued", got, id)
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
	awaitNoneHeld(t, srv)
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
	awaitNoneHeld(t, srv)
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
// 0.92 MB as []time.Duration) under a job directory grow the live heap by
// what their CSVs, reports and events take, not by their series. The heap
// after runtime.GC grew 22.0 MB when every retained job kept its series in
// memory (21.8 MB under GOARCH=386, 22.0 MB under -race) and -0.3 to
// 0.7 MB once they live on disk only; the 6 MB bound is 3.6× below the
// first.
func TestRetainedJobsLeaveRecordsOnDisk(t *testing.T) {
	const jobs, bound = 24, 6 << 20
	srv, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), JobDir: t.TempDir(), Workers: 2})
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

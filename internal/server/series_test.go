package server_test

// Tests for the response-time buffer each worker owns: a job's run records
// live on in its results file, so every job hands its series memory to the
// worker's next job, and what a job serves does not change when it does.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"uflip/internal/api"
	"uflip/internal/server"
	"uflip/internal/trace"
)

// otherPlanRequest is planRequest("mtron", "Order") at another seed: a job
// whose series would overwrite that one's with other values.
func otherPlanRequest() api.JobRequest {
	req := planRequest("mtron", "Order")
	req.Seed = 43
	return req
}

// runAll runs the requests one after another, each to done.
func runAll(t *testing.T, ts *httptest.Server, reqs ...api.JobRequest) []string {
	t.Helper()
	var ids []string
	for _, req := range reqs {
		id := submit(t, ts, req).ID
		waitFor(t, ts, id, api.StatusDone)
		ids = append(ids, id)
	}
	return ids
}

// result fetches a job's /result, which must answer 200.
func result(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	code, body := get(t, ts, "/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("/result of %s: HTTP %d: %s", id, code, body)
	}
	return body
}

// heldWriter is a ResponseWriter that holds a 200 in WriteHeader — after
// the handler took the records, before it encodes them — until release is
// closed; held is closed once it does.
type heldWriter struct {
	header        http.Header
	code          int
	body          bytes.Buffer
	held, release chan struct{}
}

func (w *heldWriter) Header() http.Header { return w.header }

func (w *heldWriter) WriteHeader(code int) {
	w.code = code
	if code == http.StatusOK {
		close(w.held)
		<-w.release
	}
}

func (w *heldWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// TestHeldResultOutlivesReuse: a /result held before encoding a job's
// records while the same worker runs two more jobs still serves the job's
// records byte for byte. A first job gives the worker a slab, so the held
// job's series were carved from memory the later jobs reuse.
func TestHeldResultOutlivesReuse(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Workers: 1})
	id := runAll(t, ts, planRequest("mtron", "Order"), planRequest("mtron", "Order"))[1]
	want := result(t, ts, id)
	w := &heldWriter{header: http.Header{}, held: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, v1+"/jobs/"+id+"/result", nil))
	}()
	select {
	case <-w.held:
	case <-served:
		t.Fatalf("/result of %s: HTTP %d: %s", id, w.code, w.body.Bytes())
	}
	runAll(t, ts, otherPlanRequest(), workloadRequest())
	close(w.release)
	<-served
	if !bytes.Equal(w.body.Bytes(), want) {
		t.Fatalf("the /result held while two more jobs ran served %d bytes that differ from the %d served before", w.body.Len(), len(want))
	}
}

// TestFailedPersistResultSurvivesLaterJobs: a job whose results file could
// not be written keeps it in memory, and its /result is unchanged after
// three more jobs ran on the same worker.
func TestFailedPersistResultSurvivesLaterJobs(t *testing.T) {
	jobDir := t.TempDir()
	srv, ts := newTestServer(t, server.Config{JobDir: jobDir, Workers: 1})
	runAll(t, ts, planRequest("mtron", "Order")) // j-000001: the worker's slab
	// A directory where the next job's results go makes their write fail.
	if err := os.Mkdir(filepath.Join(jobDir, "jobs", "j-000002.results"), 0o755); err != nil {
		t.Fatal(err)
	}
	id := runAll(t, ts, planRequest("mtron", "Order"))[0]
	first := result(t, ts, id)
	runAll(t, ts, otherPlanRequest(), workloadRequest(), otherPlanRequest())
	if held := server.HeldResults(srv); !slices.Equal(held, []string{id}) {
		t.Fatalf("jobs %v keep their results in memory, want only %s", held, id)
	}
	if got := result(t, ts, id); !bytes.Equal(got, first) {
		t.Fatalf("/result of %s after a failed persist and three more jobs: %d bytes that differ from the %d it served first", id, len(got), len(first))
	}
}

// TestRetainedResultsSurviveLaterJobs: without a job directory every
// retained job's results file is the only copy, and each job's /result after
// later jobs ran is its first fetch.
func TestRetainedResultsSurviveLaterJobs(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	reqs := []api.JobRequest{planRequest("mtron", "Order"), workloadRequest(), otherPlanRequest(), workloadRequest(), planRequest("mtron", "Order")}
	var ids []string
	var first [][]byte
	for _, req := range reqs {
		id := runAll(t, ts, req)[0]
		ids, first = append(ids, id), append(first, result(t, ts, id))
	}
	for i, id := range ids {
		if got := result(t, ts, id); !bytes.Equal(got, first[i]) {
			t.Errorf("/result of %s after %d later jobs: %d bytes that differ from the %d it served first", id, len(ids)-1-i, len(got), len(first[i]))
		}
	}
}

// TestWorkerReusesItsSeries: with a job directory or without one, the
// worker's buffer stops growing after the first plan and replay pair —
// every later job of the pair carves its series from the same slab, which
// holds the larger job's.
func TestWorkerReusesItsSeries(t *testing.T) {
	t.Run("jobdir", func(t *testing.T) { reusesItsSeries(t, t.TempDir()) })
	t.Run("memory", func(t *testing.T) { reusesItsSeries(t, "") })
}

func reusesItsSeries(t *testing.T, jobDir string) {
	srv, ts := newTestServer(t, server.Config{JobDir: jobDir, Workers: 1})
	slots := 0
	for _, id := range runAll(t, ts, planRequest("mtron", "Order"), workloadRequest()) {
		var recs []trace.RunRecord
		if err := json.Unmarshal(result(t, ts, id), &recs); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, rec := range recs {
			n += len(rec.RTs)
		}
		slots = max(slots, n)
	}
	// A job is claimed once the worker has reset its buffer after the one
	// before: this plan's, after the replay's. Every job is still retained.
	runAll(t, ts, planRequest("mtron", "Order"))
	series, held := server.WorkerSeries(srv, 0)
	if held < slots {
		t.Fatalf("after a plan and a replay the worker's slab holds %d response times, want at least the %d of the larger", held, slots)
	}
	t.Logf("the slab holds %d response times; the larger job took %d", held, slots)
	for range 3 {
		for _, id := range runAll(t, ts, planRequest("mtron", "Order"), workloadRequest()) {
			if s, n := server.WorkerSeries(srv, 0); s != series || n != held {
				t.Fatalf("job %s ran on a slab of %d response times (same buffer: %v), want the buffer of %d the first pair left", id, n, s == series, held)
			}
		}
	}
}

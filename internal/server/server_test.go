package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"uflip/internal/api"
	"uflip/internal/job"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/server"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

const (
	testCapacity = int64(24 << 20)
	testIOCount  = 64
	// v1 is the prefix every route lives under; get and trySubmit add it.
	v1 = "/" + api.Version
)

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, req api.JobRequest) api.JobStatus {
	t.Helper()
	st, code := trySubmit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func trySubmit(t *testing.T, ts *httptest.Server, req api.JobRequest) (api.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+v1+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return api.JobStatus{}, resp.StatusCode
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + v1 + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func waitFor(t *testing.T, ts *httptest.Server, id string, want ...string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, body := get(t, ts, "/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, code, body)
		}
		var st api.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.Status == w {
				return st
			}
		}
		if st.Status == api.StatusFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %v in time", id, want)
	return api.JobStatus{}
}

func planRequest(device, micro string) api.JobRequest {
	return api.JobRequest{
		Kind:     "plan",
		Device:   device,
		Capacity: testCapacity,
		Seed:     42,
		IOCount:  testIOCount,
		Micros:   []string{micro},
		Parallel: 2,
	}
}

// runLocally runs req the way `uflip`, `uflip workload` and `uflip array` run
// the job their flags describe: normalized, then through job.Run, in-process.
// src is the opened trace when req replays one.
func runLocally(t *testing.T, req api.JobRequest, src workload.Source) *job.Outcome {
	t.Helper()
	if err := job.Normalize(&req); err != nil {
		t.Fatal(err)
	}
	out, err := job.Run(context.Background(), req, job.Env{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPlanJobMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), Workers: 2})
	st := submit(t, ts, planRequest("mtron", "Granularity"))
	done := waitFor(t, ts, st.ID, api.StatusDone)
	if done.Runs == 0 {
		t.Fatal("done job reports no runs")
	}
	code, csv := get(t, ts, "/jobs/"+st.ID+"/csv")
	if code != http.StatusOK {
		t.Fatalf("csv: HTTP %d", code)
	}
	if want := runLocally(t, planRequest("mtron", "Granularity"), nil).CSV; !bytes.Equal(csv, want) {
		t.Fatal("server CSV differs from the equivalent CLI run")
	}
	code, rep := get(t, ts, "/jobs/"+st.ID+"/report")
	if code != http.StatusOK || !strings.Contains(string(rep), "Granularity") {
		t.Fatalf("report: HTTP %d, %d bytes", code, len(rep))
	}
	code, result := get(t, ts, "/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	var records []trace.RunRecord
	if err := json.Unmarshal(result, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != done.Runs {
		t.Fatalf("result has %d records, status says %d", len(records), done.Runs)
	}
}

// TestEightConcurrentJobs pins the acceptance criterion: >= 8 experiment
// jobs in flight at once, every result identical to the equivalent CLI run.
// The shared state store means each (device, capacity, seed) state is
// enforced once even though several jobs need it concurrently.
func TestEightConcurrentJobs(t *testing.T) {
	_, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), Workers: 8, QueueSize: 16})
	type jobCase struct {
		device string
		micro  string
	}
	cases := []jobCase{
		{"mtron", "Granularity"},
		{"mtron", "Order"},
		{"kingston-dti", "Granularity"},
		{"kingston-dti", "Alignment"},
		{"memoright", "Order"},
		{"memoright", "Locality"},
		{"samsung", "Granularity"},
		{"mtron", "Alignment"},
	}
	ids := make([]string, len(cases))
	for i, c := range cases {
		ids[i] = submit(t, ts, planRequest(c.device, c.micro)).ID
	}
	for i, c := range cases {
		waitFor(t, ts, ids[i], api.StatusDone)
		_, csv := get(t, ts, "/jobs/"+ids[i]+"/csv")
		if want := runLocally(t, planRequest(c.device, c.micro), nil).CSV; !bytes.Equal(csv, want) {
			t.Fatalf("job %s (%s/%s): CSV differs from the CLI run", ids[i], c.device, c.micro)
		}
	}
}

func TestWorkloadJobMatchesDirectReplay(t *testing.T) {
	_, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), Workers: 2})
	st := submit(t, ts, workloadRequest())
	waitFor(t, ts, st.ID, api.StatusDone)
	_, csv := get(t, ts, "/jobs/"+st.ID+"/csv")
	if !bytes.Equal(csv, runLocally(t, workloadRequest(), nil).CSV) {
		t.Fatal("server workload CSV differs from the direct replay")
	}
}

func TestArrayJobProducesGrid(t *testing.T) {
	_, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), Workers: 2})
	st := submit(t, ts, api.JobRequest{
		Kind:     "array",
		Capacity: 16 << 20,
		Seed:     42,
		IOCount:  testIOCount,
		Parallel: 2,
		Array: &api.ArrayRequest{
			Member:      "mtron",
			Layouts:     []string{"stripe", "mirror"},
			Counts:      []int{1, 2},
			QueueDepths: []int{2},
			Degree:      2,
		},
	})
	done := waitFor(t, ts, st.ID, api.StatusDone)
	if done.Runs != 4 { // 2 layouts x 2 counts x 1 qd
		t.Fatalf("grid has %d rows, want 4", done.Runs)
	}
	code, _ := get(t, ts, "/jobs/"+st.ID+"/csv")
	if code != http.StatusNotFound {
		t.Fatalf("array csv: HTTP %d, want 404", code)
	}
	code, rep := get(t, ts, "/jobs/"+st.ID+"/report")
	if code != http.StatusOK || !strings.Contains(string(rep), "stripe") {
		t.Fatalf("array report: HTTP %d", code)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	// A deliberately large job so the cancel lands mid-plan.
	big := api.JobRequest{Kind: "plan", Device: "mtron", Capacity: 512 << 20, IOCount: 1024, Parallel: 1}
	st := submit(t, ts, big)
	waitFor(t, ts, st.ID, api.StatusRunning)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+v1+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	canceled := waitFor(t, ts, st.ID, api.StatusCanceled, api.StatusDone)
	if canceled.Status == api.StatusDone {
		t.Skip("job finished before the cancel landed")
	}
	code, _ := get(t, ts, "/jobs/"+st.ID+"/result")
	if code != http.StatusGone {
		t.Fatalf("canceled job result: HTTP %d, want 410", code)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueSize: 4})
	// Occupy the single worker, then cancel a queued job before it starts.
	running := submit(t, ts, api.JobRequest{Kind: "plan", Device: "mtron", Capacity: 256 << 20, IOCount: 512, Parallel: 1})
	queued := submit(t, ts, planRequest("mtron", "Order"))
	if st := cancelJob(t, ts, queued.ID); st.Status != api.StatusCanceled && st.Status != api.StatusRunning {
		t.Fatalf("canceled queued job status %q", st.Status)
	}
	waitFor(t, ts, running.ID, api.StatusDone)
}

func TestQueueBound(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueSize: 1})
	// One job runs, one fits the queue; the next submission must be
	// rejected with 503, not block.
	slow := api.JobRequest{Kind: "plan", Device: "mtron", Capacity: 256 << 20, IOCount: 512, Parallel: 1}
	a := submit(t, ts, slow)
	ids := []string{a.ID}
	sawReject := false
	for i := 0; i < 4; i++ {
		st, code := trySubmit(t, ts, planRequest("mtron", "Order"))
		switch code {
		case http.StatusAccepted:
			ids = append(ids, st.ID)
		case http.StatusServiceUnavailable:
			sawReject = true
		default:
			t.Fatalf("unexpected submit status %d", code)
		}
	}
	if !sawReject {
		t.Fatal("queue never rejected a submission beyond its bound")
	}
	for _, id := range ids {
		waitFor(t, ts, id, api.StatusDone)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	cases := []api.JobRequest{
		{Kind: "nope", Device: "mtron"},
		{Kind: "plan"},
		{Kind: "plan", Device: "not-a-device"},
		{Kind: "workload", Device: "mtron"},
		{Kind: "workload", Device: "mtron", Workload: &api.WorkloadRequest{Spec: workload.Spec{Kind: "bogus", Count: 10}}},
		{Kind: "array"},
		{Kind: "array", Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"raid9"}}},
	}
	for i, req := range cases {
		if _, code := trySubmit(t, ts, req); code != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, code)
		}
	}
	if code, _ := get(t, ts, "/jobs/j-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", code)
	}
	if code, body := get(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: HTTP %d: %s", code, body)
	}
	// Routes exist under /v1 only: the unversioned paths are gone.
	for _, bare := range []string{"/jobs", "/healthz"} {
		resp, err := http.Get(ts.URL + bare)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unversioned %s: HTTP %d, want 404", bare, resp.StatusCode)
		}
	}
}

// TestSharedStateStoreAcrossJobs: two sequential jobs against the same
// device share one persisted state — the second job's master loads from
// disk. Observable via the store: exactly one state file, and a later
// PrepareCached against the same directory is a hit.
func TestSharedStateStoreAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, server.Config{StateDir: dir, Workers: 2})
	a := submit(t, ts, planRequest("mtron", "Order"))
	b := submit(t, ts, planRequest("mtron", "Granularity"))
	waitFor(t, ts, a.ID, api.StatusDone)
	waitFor(t, ts, b.ID, api.StatusDone)

	store, err := statestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperexp.Config{Capacity: testCapacity, Seed: 42, Store: store}
	if _, err := os.Stat(store.Path(paperexp.StateKey("mtron", cfg))); err != nil {
		t.Fatalf("server jobs did not persist the enforced state: %v", err)
	}
	_, _, hit, err := paperexp.PrepareCached("mtron", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("state persisted by the server is not a cache hit for the CLI path")
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 2})
	a := submit(t, ts, planRequest("mtron", "Order"))
	waitFor(t, ts, a.ID, api.StatusDone)
	code, body := get(t, ts, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	var out struct {
		Jobs []api.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].ID != a.ID {
		t.Fatalf("list = %+v", out.Jobs)
	}
}

// TestCanceledQueuedJobFreesQueueSlot: canceling a queued job must free its
// slot immediately — later submissions may not be rejected on account of
// jobs that will never run.
func TestCanceledQueuedJobFreesQueueSlot(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueSize: 1})
	running := submit(t, ts, api.JobRequest{Kind: "plan", Device: "mtron", Capacity: 256 << 20, IOCount: 512, Parallel: 1})
	waitFor(t, ts, running.ID, api.StatusRunning, api.StatusDone)
	queued := submit(t, ts, planRequest("mtron", "Order")) // fills the queue
	if _, code := trySubmit(t, ts, planRequest("mtron", "Order")); code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d, want 503", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+v1+"/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The freed slot must accept a new job right away (unless the worker
	// already drained the queue, in which case acceptance is trivial).
	replacement, code := trySubmit(t, ts, planRequest("mtron", "Granularity"))
	if code != http.StatusAccepted {
		t.Fatalf("submit after cancel: status %d, want 202", code)
	}
	waitFor(t, ts, replacement.ID, api.StatusDone)
}

func TestBadMicroRejectedAtSubmission(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	req := planRequest("mtron", "Oder") // typo
	if _, code := trySubmit(t, ts, req); code != http.StatusBadRequest {
		t.Fatalf("typo'd micro: status %d, want 400", code)
	}
}

// TestWorkloadOmittedKnobsTakeCLIDefaults: a minimal JSON workload request
// (knobs omitted) must run the same workload as the minimal CLI invocation —
// read fraction 0.7, page 8 KB, ops 2048, segment 512 — not the Go zero
// values.
func TestWorkloadOmittedKnobsTakeCLIDefaults(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 2})
	resp, err := http.Post(ts.URL+v1+"/jobs", "application/json", strings.NewReader(
		`{"kind":"workload","device":"kingston-dti","capacity":25165824,"workload":{"kind":"oltp"}}`))
	if err != nil {
		t.Fatal(err)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("minimal workload request: status %d", resp.StatusCode)
	}
	waitFor(t, ts, st.ID, api.StatusDone)
	_, csv := get(t, ts, "/jobs/"+st.ID+"/csv")

	// The CLI-default equivalent: every knob as api.Defaults has it, the table
	// the local command's flags default to — run as the local command runs it.
	local := api.Defaults()
	local.Kind, local.Device, local.Capacity = "workload", "kingston-dti", 25165824
	local.Workload.Kind = "oltp"
	if !bytes.Equal(csv, runLocally(t, local, nil).CSV) {
		t.Fatal("minimal server workload differs from the CLI-default replay")
	}
}

// TestNewRefusesDefaultParallelAboveCeiling: the daemon's default worker
// count is held to the ceiling a request's own is held to, with the same
// message. New refuses it before it opens a directory or starts a worker; the
// ceiling itself is accepted.
func TestNewRefusesDefaultParallelAboveCeiling(t *testing.T) {
	stateDir := t.TempDir() + "/state"
	before := runtime.NumGoroutine()
	srv, err := server.New(server.Config{StateDir: stateDir, DefaultParallel: profile.MaxParallel + 1, Workers: 4})
	want := job.Normalize(&api.JobRequest{Kind: "plan", Parallel: profile.MaxParallel + 1})
	if srv != nil || err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("New: server %v, error %v; want none and %v", srv, err, want)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the refusal, %d before", n, before)
	}
	if _, err := os.Stat(stateDir); !os.IsNotExist(err) {
		t.Errorf("the refused daemon opened its state directory: %v", err)
	}
	srv, err = server.New(server.Config{DefaultParallel: profile.MaxParallel})
	if err != nil {
		t.Fatalf("New at the ceiling: %v", err)
	}
	srv.Close()
}

package server_test

// Tests for the /v1 API surface: the typed error envelope, the server-sent
// event stream (ordering, monotonic IDs, Last-Event-ID resume), durable-job
// restarts, per-tenant admission control and trace upload. They drive the
// server through internal/client wherever a real client would, so the client
// package is exercised against the real handler stack rather than mocks.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/server"
	"uflip/internal/workload"
)

// slowPlanRequest is big enough to still be running when a test acts on it.
func slowPlanRequest() api.JobRequest {
	return api.JobRequest{Kind: "plan", Device: "mtron", Capacity: 256 << 20, IOCount: 512, Parallel: 1}
}

// submitKeyed posts a job under a tenant API key and returns the decoded
// status (on 202) or error envelope.
func submitKeyed(t *testing.T, ts *httptest.Server, key string, jr api.JobRequest) (api.JobStatus, int, api.ErrorCode) {
	t.Helper()
	body, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(api.KeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var env api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("non-202 submit (%d) without an error envelope: %v", resp.StatusCode, err)
		}
		return api.JobStatus{}, resp.StatusCode, env.Err.Code
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode, ""
}

// TestErrorEnvelope pins the typed error shape on non-2xx responses.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	cases := []struct {
		path     string
		wantHTTP int
		wantCode api.ErrorCode
	}{
		{"/jobs/j-999999", http.StatusNotFound, api.CodeNotFound},
		{"/jobs/j-999999/csv", http.StatusNotFound, api.CodeNotFound},
		{"/jobs/j-999999/events", http.StatusNotFound, api.CodeNotFound},
		{"/traces/deadbeef", http.StatusNotFound, api.CodeNotFound},
	}
	for _, c := range cases {
		code, body := get(t, ts, c.path)
		if code != c.wantHTTP {
			t.Fatalf("%s: HTTP %d, want %d", c.path, code, c.wantHTTP)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: body is not an error envelope: %v (%s)", c.path, err, body)
		}
		if env.Err.Code != c.wantCode || env.Err.Message == "" {
			t.Fatalf("%s: envelope %+v, want code %q with a message", c.path, env.Err, c.wantCode)
		}
	}
	if _, code, errCode := submitKeyed(t, ts, "", api.JobRequest{Kind: "nope"}); code != http.StatusBadRequest || errCode != api.CodeBadRequest {
		t.Fatalf("bad submit: HTTP %d code %q, want 400 bad_request", code, errCode)
	}
}

// TestSubmitRefusesParallelAboveCeiling: a request for more engine workers
// than job.Normalize allows is refused at admission with 400 bad_request, so
// no job is queued and no device is built for it.
func TestSubmitRefusesParallelAboveCeiling(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	req := planRequest("mtron", "Granularity")
	req.Parallel = 1 << 20
	if _, code, errCode := submitKeyed(t, ts, "", req); code != http.StatusBadRequest || errCode != api.CodeBadRequest {
		t.Fatalf("parallel %d: HTTP %d code %q, want 400 bad_request", req.Parallel, code, errCode)
	}
	code, body := get(t, ts, "/jobs")
	var list api.JobList
	if err := json.Unmarshal(body, &list); code != http.StatusOK || err != nil || len(list.Jobs) != 0 {
		t.Fatalf("after the refusal the job list reads HTTP %d %s, want no job", code, body)
	}
}

// TestEventStreamOrdering watches a full job through the client's SSE
// stream: IDs must be monotonic from 1, the lifecycle must read
// queued -> running -> stages/progress -> done, and the terminal event must
// agree with the final status.
func TestEventStreamOrdering(t *testing.T) {
	_, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), Workers: 2})
	cl := &client.Client{BaseURL: ts.URL}
	st := submit(t, ts, planRequest("mtron", "Granularity"))

	var evs []api.Event
	if err := cl.Events(context.Background(), st.ID, 0, func(ev api.Event) {
		evs = append(evs, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) < 4 {
		t.Fatalf("only %d events, want at least queued/running/stages/done", len(evs))
	}
	for i, ev := range evs {
		if ev.ID != int64(i+1) {
			t.Fatalf("event %d has ID %d, want %d (IDs must be gapless and monotonic)", i, ev.ID, i+1)
		}
		if ev.Job != st.ID {
			t.Fatalf("event %d belongs to %q, want %q", i, ev.Job, st.ID)
		}
	}
	if evs[0].Type != api.EventQueued || evs[1].Type != api.EventRunning {
		t.Fatalf("lifecycle starts %s, %s; want queued, running", evs[0].Type, evs[1].Type)
	}
	last := evs[len(evs)-1]
	if last.Type != api.EventDone {
		t.Fatalf("terminal event is %s, want done", last.Type)
	}
	var stages, progress int
	for _, ev := range evs {
		switch ev.Type {
		case api.EventStage:
			stages++
		case api.EventProgress:
			progress++
		}
	}
	if stages == 0 || progress == 0 {
		t.Fatalf("stream carried %d stage and %d progress events; want both", stages, progress)
	}
	final, err := cl.Status(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.StatusDone || final.Runs != last.Runs {
		t.Fatalf("final status %s/%d runs does not match terminal event %d runs", final.Status, final.Runs, last.Runs)
	}
}

// sseFetch reads a finished job's whole event stream over raw HTTP with an
// optional Last-Event-ID, returning the SSE ids observed and the raw body.
func sseFetch(t *testing.T, ts *httptest.Server, id, lastEventID string) ([]int64, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "id: "); ok {
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			ids = append(ids, n)
		}
	}
	return ids, string(body)
}

// TestEventStreamResume pins Last-Event-ID semantics: reconnecting with the
// last seen ID replays exactly the suffix, nothing dropped, nothing twice.
func TestEventStreamResume(t *testing.T) {
	_, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), Workers: 2})
	st := submit(t, ts, planRequest("mtron", "Granularity"))
	waitFor(t, ts, st.ID, api.StatusDone)

	all, _ := sseFetch(t, ts, st.ID, "")
	if len(all) < 4 || all[0] != 1 {
		t.Fatalf("full stream ids = %v", all)
	}
	mid := all[len(all)/2]
	resumed, _ := sseFetch(t, ts, st.ID, strconv.FormatInt(mid, 10))
	if len(resumed) != len(all)-int(mid) {
		t.Fatalf("resume after %d returned %d events, want %d", mid, len(resumed), len(all)-int(mid))
	}
	for i, id := range resumed {
		if id != mid+int64(i+1) {
			t.Fatalf("resumed ids = %v, want the gapless suffix after %d", resumed, mid)
		}
	}
	// Resuming past the end yields an empty, cleanly-closed stream.
	tail, _ := sseFetch(t, ts, st.ID, strconv.FormatInt(all[len(all)-1], 10))
	if len(tail) != 0 {
		t.Fatalf("resume past the terminal event replayed %v", tail)
	}
	// An unparsable Last-Event-ID is a 400, not a silent full replay.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "bogus")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus Last-Event-ID: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestRestartDurability pins the durable-job guarantee: a daemon restarted
// on the same job directory serves finished results byte-identically
// (records, CSV, report, event history) and re-queues jobs the old process
// never finished.
func TestRestartDurability(t *testing.T) {
	stateDir, jobDir := t.TempDir(), t.TempDir()
	cfg := server.Config{StateDir: stateDir, JobDir: jobDir, Workers: 1}

	srv1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	// One finished job of each kind. /csv on the array job, and /result and
	// /csv on the paper job, are 404 envelopes, which must survive the
	// restart like any other answer.
	var finished []api.JobStatus
	for _, req := range []api.JobRequest{
		planRequest("mtron", "Granularity"),
		workloadRequest(),
		{Kind: "array", Capacity: 16 << 20, Seed: 42, IOCount: testIOCount, Parallel: 2,
			Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe"}, Counts: []int{2}, QueueDepths: []int{2}}},
		{Kind: "paper", Experiments: []string{"table1", "fig5"}, Capacity: testCapacity, Parallel: 2},
	} {
		// Under a tenant key, so the status routes show that it survives too.
		st, code, errCode := submitKeyed(t, ts1, "tenant-r", req)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d (%s)", req.Kind, code, errCode)
		}
		waitFor(t, ts1, st.ID, api.StatusDone)
		finished = append(finished, st)
	}
	// Besides the results and the event history, GET /jobs/{id} and the
	// finished jobs' entries of GET /jobs carry what the record restores:
	// tenant, timestamps and run count.
	served := func(ts *httptest.Server) map[string]string {
		out := make(map[string]string)
		for _, st := range finished {
			for _, what := range []string{"", "/result", "/csv", "/report"} {
				code, body := get(t, ts, "/jobs/"+st.ID+what)
				out[st.Kind+what] = strconv.Itoa(code) + " " + string(body)
			}
			_, out[st.Kind+"/events"] = sseFetch(t, ts, st.ID, "")
		}
		code, body := get(t, ts, "/jobs")
		var list api.JobList
		if err := json.Unmarshal(body, &list); code != http.StatusOK || err != nil || len(list.Jobs) < len(finished) {
			t.Fatalf("GET /jobs: HTTP %d %v, %d jobs, want the %d finished ones first", code, err, len(list.Jobs), len(finished))
		}
		first, err := json.Marshal(list.Jobs[:len(finished)])
		if err != nil {
			t.Fatal(err)
		}
		out["list"] = string(first)
		return out
	}
	before := served(ts1)
	for _, what := range []string{"paper/result", "paper/csv"} {
		if got := before[what]; !strings.HasPrefix(got, "404 ") || !strings.Contains(got, `"not_found"`) || !strings.Contains(got, "fetch /report") {
			t.Errorf("%s: %s, want a 404 not_found naming /report", what, got)
		}
	}
	if got := before["paper/report"]; !strings.HasPrefix(got, "200 Table 1: ") {
		t.Errorf("paper/report: %.80q, want the rendered tables", got)
	}

	// Leave one job mid-flight: with a single worker the second submission
	// is still queued (or just started) when the daemon dies.
	interruptedA := submit(t, ts1, slowPlanRequest())
	interruptedB := submit(t, ts1, planRequest("mtron", "Order"))
	ts1.Close()
	srv1.Close()

	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Close()
	}()

	// The finished jobs must come back byte-identical on every route.
	after := served(ts2)
	for what, want := range before {
		if got := after[what]; got != want {
			t.Errorf("restarted %s differs:\nbefore: %.300q\nafter:  %.300q", what, want, got)
		}
	}

	// The interrupted jobs re-queue and complete under the new process.
	for _, id := range []string{interruptedA.ID, interruptedB.ID} {
		done := waitFor(t, ts2, id, api.StatusDone)
		if done.Runs == 0 {
			t.Fatalf("re-queued job %s finished with no runs", id)
		}
	}
	// The restarted daemon must not reuse IDs of recovered jobs.
	fresh := submit(t, ts2, planRequest("mtron", "Alignment"))
	for _, st := range append(finished, interruptedA, interruptedB) {
		if id := st.ID; fresh.ID == id {
			t.Fatalf("restarted daemon reissued job ID %s", id)
		}
	}
	waitFor(t, ts2, fresh.ID, api.StatusDone)
}

// TestTenantRateLimit: a tenant that exhausts its token bucket gets 429
// rate_limited while a different tenant (and the anonymous one) submit
// unimpeded — one tenant's burst must not affect another's admissions.
func TestTenantRateLimit(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueSize: 16, RatePerSec: 0.0001, Burst: 2})
	var rejected bool
	for i := 0; i < 3; i++ {
		_, code, errCode := submitKeyed(t, ts, "tenant-b", planRequest("mtron", "Order"))
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			if errCode != api.CodeRateLimited {
				t.Fatalf("429 carried code %q, want rate_limited", errCode)
			}
			rejected = true
		default:
			t.Fatalf("tenant-b submit %d: HTTP %d", i, code)
		}
	}
	if !rejected {
		t.Fatal("tenant-b burst was never rate limited")
	}
	if _, code, errCode := submitKeyed(t, ts, "tenant-a", planRequest("mtron", "Order")); code != http.StatusAccepted {
		t.Fatalf("tenant-a submit alongside tenant-b's burst: HTTP %d (%s), want 202", code, errCode)
	}
	if _, code, _ := submitKeyed(t, ts, "", planRequest("mtron", "Order")); code != http.StatusAccepted {
		t.Fatalf("anonymous submit alongside tenant-b's burst: HTTP %d, want 202", code)
	}
}

// TestTenantQueueQuota: a tenant may only hold TenantQueue jobs waiting to
// run; the excess gets 429 quota_exceeded while other tenants keep their
// full quota.
func TestTenantQueueQuota(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueSize: 16, TenantQueue: 1})
	running, code, _ := submitKeyed(t, ts, "tenant-b", slowPlanRequest())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	waitFor(t, ts, running.ID, api.StatusRunning, api.StatusDone)
	if _, code, _ := submitKeyed(t, ts, "tenant-b", planRequest("mtron", "Order")); code != http.StatusAccepted {
		t.Fatalf("tenant-b within quota: HTTP %d, want 202", code)
	}
	_, code, errCode := submitKeyed(t, ts, "tenant-b", planRequest("mtron", "Granularity"))
	if code != http.StatusTooManyRequests || errCode != api.CodeQuotaExceeded {
		t.Fatalf("tenant-b beyond quota: HTTP %d code %q, want 429 quota_exceeded", code, errCode)
	}
	if _, code, _ := submitKeyed(t, ts, "tenant-a", planRequest("mtron", "Order")); code != http.StatusAccepted {
		t.Fatalf("tenant-a while tenant-b is at quota: HTTP %d, want 202", code)
	}
}

// traceCSV renders a small deterministic block trace as CSV bytes.
func traceCSV(t *testing.T) ([]byte, []workload.Op) {
	t.Helper()
	gen, err := workload.Spec{
		Kind: "oltp", Count: 200, Seed: 7, PageSize: 8 * 1024,
		TargetSize: testCapacity / 2, ReadFraction: 0.5,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ops
}

// TestTraceUploadAndReplayJob uploads a trace, replays it by hash through a
// workload job and pins the result against a direct in-process replay of the
// same ops.
func TestTraceUploadAndReplayJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 2})
	cl := &client.Client{BaseURL: ts.URL}
	ctx := context.Background()
	body, ops := traceCSV(t)

	info, err := cl.UploadTrace(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ops != len(ops) || info.Bytes != int64(len(body)) || len(info.Hash) != 64 {
		t.Fatalf("upload info %+v, want %d ops, %d bytes, sha256 hash", info, len(ops), len(body))
	}
	if info.Format != workload.TraceFormatCSV || len(info.OpsHash) != 64 {
		t.Fatalf("upload info %+v, want csv format and a sha256 ops-hash", info)
	}
	again, err := cl.UploadTrace(ctx, body)
	if err != nil || again.Hash != info.Hash {
		t.Fatalf("re-upload: %+v, %v — want the same hash back", again, err)
	}

	if code, fetched := get(t, ts, "/traces/"+info.Hash); code != http.StatusOK || !bytes.Equal(fetched, body) {
		t.Fatalf("trace round-trip failed: HTTP %d", code)
	}
	var list api.TraceList
	code, listed := get(t, ts, "/traces")
	if err := json.Unmarshal(listed, &list); err != nil || code != http.StatusOK || len(list.Traces) != 1 || list.Traces[0].Hash != info.Hash {
		t.Fatalf("trace list = HTTP %d %+v, %v", code, list, err)
	}

	req := api.JobRequest{
		Kind:     "workload",
		Device:   "kingston-dti",
		Capacity: testCapacity,
		Seed:     42,
		Parallel: 2,
		Workload: &api.WorkloadRequest{TraceHash: info.Hash, SegmentOps: 100},
	}
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, ts, st.ID, api.StatusDone)
	csv, err := cl.CSV(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The same request run in-process over the same ops, labeled as the
	// daemon labels an upload: by the head of its ops-hash.
	direct := workload.OpsSource(workload.TraceName(info.OpsHash[:12]), ops)
	if !bytes.Equal(csv, runLocally(t, req, direct).CSV) {
		t.Fatal("trace job CSV differs from the direct replay of the same ops")
	}

	// Referencing a hash nobody uploaded is a 400 at submission.
	_, err = cl.Submit(ctx, api.JobRequest{
		Kind:     "workload",
		Device:   "kingston-dti",
		Capacity: testCapacity,
		Workload: &api.WorkloadRequest{TraceHash: strings.Repeat("ab", 32)},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Err.Code != api.CodeBadRequest {
		t.Fatalf("unknown hash submit: %v, want 400 bad_request", err)
	}
}

// TestTraceDualFormatReplayIdentical uploads the same op stream as CSV and
// as binary .utr: the two uploads are distinct blobs (different content
// hashes) with the same ops-hash, both survive a daemon restart, and replay
// jobs against either hash produce byte-identical result CSVs — the format a
// trace arrives in must never leak into the measurements.
func TestTraceDualFormatReplayIdentical(t *testing.T) {
	cfg := server.Config{JobDir: t.TempDir(), Workers: 2}
	srv1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cl := &client.Client{BaseURL: ts1.URL}
	ctx := context.Background()
	csvBody, ops := traceCSV(t)
	var utrBuf bytes.Buffer
	if err := workload.WriteUTR(&utrBuf, ops); err != nil {
		t.Fatal(err)
	}
	utrBody := utrBuf.Bytes()

	infoCSV, err := cl.UploadTrace(ctx, csvBody)
	if err != nil {
		t.Fatal(err)
	}
	infoUTR, err := cl.UploadTrace(ctx, utrBody)
	if err != nil {
		t.Fatal(err)
	}
	if infoCSV.Hash == infoUTR.Hash {
		t.Fatal("CSV and utr uploads share a content hash")
	}
	if infoCSV.OpsHash != infoUTR.OpsHash || infoCSV.OpsHash == "" {
		t.Fatalf("ops-hash split across formats: csv %q, utr %q", infoCSV.OpsHash, infoUTR.OpsHash)
	}
	if infoCSV.Format != workload.TraceFormatCSV || infoUTR.Format != workload.TraceFormatUTR {
		t.Fatalf("formats = %q/%q, want csv/utr", infoCSV.Format, infoUTR.Format)
	}
	if infoCSV.Ops != len(ops) || infoUTR.Ops != len(ops) {
		t.Fatalf("op counts = %d/%d, want %d", infoCSV.Ops, infoUTR.Ops, len(ops))
	}

	// The binary blob round-trips exactly and is served as an octet stream.
	resp, err := http.Get(ts1.URL + "/v1/traces/" + infoUTR.Hash)
	if err != nil {
		t.Fatal(err)
	}
	gotUTR, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(gotUTR, utrBody) {
		t.Fatalf("utr download: HTTP %d, err %v, identical=%v", resp.StatusCode, err, bytes.Equal(gotUTR, utrBody))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("utr Content-Type = %q", ct)
	}

	replay := func(ts *httptest.Server, hash string) []byte {
		t.Helper()
		c := &client.Client{BaseURL: ts.URL}
		st, err := c.Submit(ctx, api.JobRequest{
			Kind:     "workload",
			Device:   "kingston-dti",
			Capacity: testCapacity,
			Seed:     42,
			Parallel: 2,
			Workload: &api.WorkloadRequest{TraceHash: hash, SegmentOps: 50},
		})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, ts, st.ID, api.StatusDone)
		csv, err := c.CSV(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return csv
	}
	fromCSV := replay(ts1, infoCSV.Hash)
	fromUTR := replay(ts1, infoUTR.Hash)
	if !bytes.Equal(fromCSV, fromUTR) {
		t.Fatal("replaying the utr form differs from replaying the CSV form")
	}

	// Both formats reload from the persistent store across a restart, and a
	// replay under the new process still matches.
	ts1.Close()
	srv1.Close()
	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	var list api.TraceList
	code, listed := get(t, ts2, "/traces")
	if err := json.Unmarshal(listed, &list); err != nil || code != http.StatusOK || len(list.Traces) != 2 {
		t.Fatalf("restarted trace list = HTTP %d %+v, %v — want both formats back", code, list, err)
	}
	reloaded := map[string]api.TraceInfo{}
	for _, info := range list.Traces {
		reloaded[info.Hash] = info
	}
	for _, want := range []api.TraceInfo{infoCSV, infoUTR} {
		if got := reloaded[want.Hash]; got != want {
			t.Fatalf("restarted metadata for %s = %+v, want %+v", want.Hash[:12], got, want)
		}
	}
	if again := replay(ts2, infoUTR.Hash); !bytes.Equal(again, fromCSV) {
		t.Fatal("utr replay after restart differs")
	}
}

// TestTraceUploadBounds: oversize uploads are 413 payload_too_large, garbage
// is 400 — both as typed envelopes.
func TestTraceUploadBounds(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, MaxTraceBytes: 128})
	cl := &client.Client{BaseURL: ts.URL}
	ctx := context.Background()
	body, _ := traceCSV(t) // well over 128 bytes

	_, err := cl.UploadTrace(ctx, body)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge || apiErr.Err.Code != api.CodeTooLarge {
		t.Fatalf("oversize upload: %v, want 413 payload_too_large", err)
	}
	// Garbage, and a well-formed trace of no IOs.
	for _, bad := range []string{"not,a\ntrace", "offset,size,mode,gap_us\n"} {
		_, err = cl.UploadTrace(ctx, []byte(bad))
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("upload of %q: %v, want 400", bad, err)
		}
	}
}

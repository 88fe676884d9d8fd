package server_test

// Tests for the job directory's on-disk layout: which of a job's four files
// holds what, that the record saying "done" is the commit point, and that
// records written before run records moved to <id>.jsonl still load.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uflip/internal/server"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

func workloadRequest() server.JobRequest {
	return server.JobRequest{
		Kind: "workload", Device: "kingston-dti", Capacity: testCapacity, Seed: 42, Parallel: 2,
		Workload: &server.WorkloadRequest{Spec: workload.Spec{Kind: "oltp", Count: 400, ReadFraction: 0.5}, SegmentOps: 100},
	}
}

// startOn starts a daemon on jobDir; stop shuts it down and returns only
// once its workers — and so every persistFinished — have finished.
func startOn(t *testing.T, jobDir string) (ts *httptest.Server, stop func()) {
	t.Helper()
	srv, err := server.New(server.Config{JobDir: jobDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(srv.Handler())
	stopped := false
	stop = func() {
		if !stopped {
			stopped = true
			ts.Close()
			srv.Close()
		}
	}
	t.Cleanup(stop)
	return ts, stop
}

// servedBytes fetches the three result routes of a finished job.
func servedBytes(t *testing.T, ts *httptest.Server, id string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, what := range []string{"result", "csv", "report"} {
		code, body := get(t, ts, "/jobs/"+id+"/"+what)
		if code != http.StatusOK {
			t.Fatalf("%s/%s: HTTP %d: %s", id, what, code, body)
		}
		out[what] = body
	}
	return out
}

func sameServed(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	for what := range want {
		if !bytes.Equal(got[what], want[what]) {
			t.Errorf("%s: /%s differs from the undisturbed run", label, what)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// durableStatus reads the status the job's durable record carries.
func durableStatus(t *testing.T, jobDir, id string) string {
	t.Helper()
	var rec struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(readFile(t, filepath.Join(jobDir, "jobs", id+".json")), &rec); err != nil {
		t.Fatal(err)
	}
	return rec.Status
}

// TestJobFilesLayout: the job record carries no run records, and <id>.jsonl
// is the file a local run of the same experiment writes with -out.
func TestJobFilesLayout(t *testing.T) {
	jobDir := t.TempDir()
	ts, stop := startOn(t, jobDir)
	plan := submit(t, ts, planRequest("mtron", "Order"))
	wl := submit(t, ts, workloadRequest())
	results := make(map[string][]byte)
	for _, id := range []string{plan.ID, wl.ID} {
		waitFor(t, ts, id, server.StatusDone)
		_, results[id] = get(t, ts, "/jobs/"+id+"/result")
	}
	stop()

	local := map[string][]trace.RunRecord{
		plan.ID: runLocally(t, planRequest("mtron", "Order"), nil).Records,
		wl.ID:   runLocally(t, workloadRequest(), nil).Records,
	}

	for id, result := range results {
		record := readFile(t, filepath.Join(jobDir, "jobs", id+".json"))
		for _, key := range []string{`"rts"`, `"records"`} {
			if bytes.Contains(record, []byte(key)) {
				t.Errorf("%s.json contains %s: run records belong in %s.jsonl", id, key, id)
			}
		}
		jsonl := readFile(t, filepath.Join(jobDir, "jobs", id+".jsonl"))

		var served []trace.RunRecord
		if err := json.Unmarshal(result, &served); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := trace.WriteJSON(&want, served); err != nil {
			t.Fatal(err)
		}
		if len(served) == 0 || len(served[0].RTs) == 0 || !bytes.Equal(jsonl, want.Bytes()) {
			t.Errorf("%s.jsonl is not trace.WriteJSON of the %d /result records", id, len(served))
		}

		cli := filepath.Join(t.TempDir(), "out", "local.jsonl")
		if err := trace.SaveJSON(cli, local[id]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonl, readFile(t, cli)) {
			t.Errorf("%s.jsonl differs from the .jsonl a local run writes", id)
		}
	}
}

// TestRecordIsCommitPoint: a finished job whose artifacts cannot all be
// written keeps its queued record (the old order wrote "done" first and left
// a done job with an empty report forever), a restart re-runs it over the
// files the failed attempt left, and once the obstacle is gone it commits —
// serving, at every step, the bytes of an undisturbed run.
func TestRecordIsCommitPoint(t *testing.T) {
	clean, stopClean := startOn(t, t.TempDir())
	st := submit(t, clean, planRequest("mtron", "Order"))
	waitFor(t, clean, st.ID, server.StatusDone)
	want := servedBytes(t, clean, st.ID)
	stopClean()

	jobDir := t.TempDir()
	id := st.ID // a fresh job directory issues the same first ID
	obstacle := filepath.Join(jobDir, "jobs", id+".report")
	if err := os.MkdirAll(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	ts, stop := startOn(t, jobDir)
	if got := submit(t, ts, planRequest("mtron", "Order")); got.ID != id {
		t.Fatalf("job ID %s, want %s", got.ID, id)
	}
	waitFor(t, ts, id, server.StatusDone)
	sameServed(t, "report unwritable", servedBytes(t, ts, id), want)
	stop()
	if got := durableStatus(t, jobDir, id); got != server.StatusQueued {
		t.Fatalf("durable record says %q although %s.report was never written; want queued", got, id)
	}

	// The failed attempt got as far as <id>.jsonl; the record is still
	// queued, so those bytes are not trusted: the job runs again.
	jsonl := filepath.Join(jobDir, "jobs", id+".jsonl")
	if err := os.WriteFile(jsonl, []byte("left by a crashed attempt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	ts, stop = startOn(t, jobDir)
	waitFor(t, ts, id, server.StatusDone)
	_, history := sseFetch(t, ts, id, "")
	if !strings.Contains(history, "re-queued after daemon restart") {
		t.Fatalf("job was not re-run after the restart:\n%s", history)
	}
	sameServed(t, "re-run", servedBytes(t, ts, id), want)
	stop()
	if got := durableStatus(t, jobDir, id); got != server.StatusDone {
		t.Fatalf("durable record says %q after a clean re-run; want done", got)
	}

	ts, _ = startOn(t, jobDir)
	sameServed(t, "served from disk", servedBytes(t, ts, id), want)
	if _, again := sseFetch(t, ts, id, ""); again != history {
		t.Error("event history changed across the restart")
	}
}

// TestDoneJobWithoutRunRecordsFailsLoudly: a done plan job whose .jsonl is
// gone is a damaged job directory, reported by job at start-up.
func TestDoneJobWithoutRunRecordsFailsLoudly(t *testing.T) {
	jobDir := t.TempDir()
	ts, stop := startOn(t, jobDir)
	st := submit(t, ts, planRequest("mtron", "Order"))
	waitFor(t, ts, st.ID, server.StatusDone)
	stop()
	if err := os.Remove(filepath.Join(jobDir, "jobs", st.ID+".jsonl")); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{JobDir: jobDir})
	if err == nil {
		srv.Close()
		t.Fatal("server.New accepted a done plan job with no run records")
	}
	if !strings.Contains(err.Error(), st.ID) {
		t.Fatalf("error does not name the job: %v", err)
	}
}

// TestSingleFileRecordStillLoads: a job directory written by the daemon
// before this layout (run records inline in <id>.json, no .jsonl) serves the
// bytes that daemon served. testdata/jobs-v0 and the two -served files were
// produced by the parent commit's build.
func TestSingleFileRecordStillLoads(t *testing.T) {
	jobDir := t.TempDir()
	for _, name := range []string{"j-000001.json", "j-000001.csv", "j-000001.report"} {
		dst := filepath.Join(jobDir, "jobs", name)
		if err := trace.WriteFileAtomic(dst, readFile(t, filepath.Join("testdata", "jobs-v0", name))); err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := startOn(t, jobDir)
	got := servedBytes(t, ts, "j-000001")
	sameServed(t, "old-format record", got, map[string][]byte{
		"result": readFile(t, filepath.Join("testdata", "jobs-v0-served.result")),
		"csv":    readFile(t, filepath.Join("testdata", "jobs-v0", "j-000001.csv")),
		"report": readFile(t, filepath.Join("testdata", "jobs-v0", "j-000001.report")),
	})
	if _, history := sseFetch(t, ts, "j-000001", ""); history != string(readFile(t, filepath.Join("testdata", "jobs-v0-served.events"))) {
		t.Errorf("old-format record: event history differs:\n%s", history)
	}
}

// TestStrayTempFilesRemoved: temporary files a crash left in the job
// directory are deleted at start-up — regular files only — and do not
// disturb the records beside them.
func TestStrayTempFilesRemoved(t *testing.T) {
	jobDir := t.TempDir()
	ts, stop := startOn(t, jobDir)
	st := submit(t, ts, planRequest("mtron", "Order"))
	waitFor(t, ts, st.ID, server.StatusDone)
	want := servedBytes(t, ts, st.ID)
	stop()

	stray := filepath.Join(jobDir, "jobs", ".tmp-123456")
	strayDir := filepath.Join(jobDir, "jobs", ".tmp-dir")
	if err := os.WriteFile(stray, []byte(`{"id":"j-0000`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(strayDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ts, _ = startOn(t, jobDir)
	sameServed(t, "after clean-up", servedBytes(t, ts, st.ID), want)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stray temporary file survived start-up (stat: %v)", err)
	}
	if _, err := os.Stat(strayDir); err != nil {
		t.Errorf("a directory is not a stray temporary file, yet: %v", err)
	}
}

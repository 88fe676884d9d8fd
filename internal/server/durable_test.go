package server_test

// Tests for the job directory's on-disk layout: which of a job's two files
// holds what, that the record saying "done" is the commit point, and that
// the layouts older daemons wrote still load.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"uflip/internal/api"
	"uflip/internal/server"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

func workloadRequest() api.JobRequest {
	return api.JobRequest{
		Kind: "workload", Device: "kingston-dti", Capacity: testCapacity, Seed: 42, Parallel: 2,
		Workload: &api.WorkloadRequest{Spec: workload.Spec{Kind: "oltp", Count: 400, ReadFraction: 0.5}, SegmentOps: 100},
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

// TestJobFilesLayout: a done job is two files, its record and its results
// file. The record carries no run records; the results file holds the CSV
// and report the daemon serves, and run records that trace.WriteJSON renders
// to the /result records' bytes and to the .jsonl a local run of the same
// experiment writes with -out.
func TestJobFilesLayout(t *testing.T) {
	jobDir := t.TempDir()
	ts, stop := startOn(t, jobDir)
	plan := submit(t, ts, planRequest("mtron", "Order"))
	wl := submit(t, ts, workloadRequest())
	served := make(map[string]map[string][]byte)
	for _, id := range []string{plan.ID, wl.ID} {
		waitFor(t, ts, id, api.StatusDone)
		served[id] = servedBytes(t, ts, id)
	}
	stop()

	local := map[string][]trace.RunRecord{
		plan.ID: runLocally(t, planRequest("mtron", "Order"), nil).Records,
		wl.ID:   runLocally(t, workloadRequest(), nil).Records,
	}
	var files []string
	for _, e := range readDir(t, filepath.Join(jobDir, "jobs")) {
		files = append(files, e.Name())
	}
	if want := []string{plan.ID + ".json", plan.ID + ".results", wl.ID + ".json", wl.ID + ".results"}; !slices.Equal(files, want) {
		t.Errorf("job directory holds %v, want %v", files, want)
	}

	for id, routes := range served {
		record := readFile(t, filepath.Join(jobDir, "jobs", id+".json"))
		for _, key := range []string{`"rts"`, `"records"`} {
			if bytes.Contains(record, []byte(key)) {
				t.Errorf("%s.json contains %s: run records belong in %s.results", id, key, id)
			}
		}
		res, err := server.ReadResults(filepath.Join(jobDir, "jobs", id+".results"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.CSV, routes["csv"]) || !bytes.Equal(res.Report, routes["report"]) {
			t.Errorf("%s.results: the CSV and report are not the bytes /csv and /report serve", id)
		}
		var jsonl bytes.Buffer
		if err := trace.WriteJSON(&jsonl, res.Records); err != nil {
			t.Fatal(err)
		}

		var fromResult []trace.RunRecord
		if err := json.Unmarshal(routes["result"], &fromResult); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := trace.WriteJSON(&want, fromResult); err != nil {
			t.Fatal(err)
		}
		if len(fromResult) == 0 || len(fromResult[0].RTs) == 0 || !bytes.Equal(jsonl.Bytes(), want.Bytes()) {
			t.Errorf("%s.results does not hold the %d /result records", id, len(fromResult))
		}

		cli := filepath.Join(t.TempDir(), "out", "local.jsonl")
		if err := trace.SaveJSON(cli, local[id]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonl.Bytes(), readFile(t, cli)) {
			t.Errorf("%s.results rendered differs from the .jsonl a local run writes", id)
		}
	}
}

func readDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestRecordIsCommitPoint: a finished job whose results file cannot be
// written keeps its queued record (the old order wrote "done" first and left
// a done job with an empty report forever), a restart re-runs it over the
// files the failed attempt left, and once the obstacle is gone it commits —
// serving, at every step, the bytes of an undisturbed run.
func TestRecordIsCommitPoint(t *testing.T) {
	clean, stopClean := startOn(t, t.TempDir())
	st := submit(t, clean, planRequest("mtron", "Order"))
	waitFor(t, clean, st.ID, api.StatusDone)
	want := servedBytes(t, clean, st.ID)
	stopClean()

	jobDir := t.TempDir()
	id := st.ID // a fresh job directory issues the same first ID
	results := filepath.Join(jobDir, "jobs", id+".results")
	obstacle := results
	if err := os.MkdirAll(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	ts, stop := startOn(t, jobDir)
	if got := submit(t, ts, planRequest("mtron", "Order")); got.ID != id {
		t.Fatalf("job ID %s, want %s", got.ID, id)
	}
	waitFor(t, ts, id, api.StatusDone)
	sameServed(t, "results unwritable", servedBytes(t, ts, id), want)
	stop()
	if got := durableStatus(t, jobDir, id); got != api.StatusQueued {
		t.Fatalf("durable record says %q although %s.results was never written; want queued", got, id)
	}

	// A crashed attempt left <id>.results behind; the record is still
	// queued, so those bytes are not trusted: the job runs again.
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(results, []byte("left by a crashed attempt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, stop = startOn(t, jobDir)
	waitFor(t, ts, id, api.StatusDone)
	_, history := sseFetch(t, ts, id, "")
	if !strings.Contains(history, "re-queued after daemon restart") {
		t.Fatalf("job was not re-run after the restart:\n%s", history)
	}
	sameServed(t, "re-run", servedBytes(t, ts, id), want)
	stop()
	if got := durableStatus(t, jobDir, id); got != api.StatusDone {
		t.Fatalf("durable record says %q after a clean re-run; want done", got)
	}

	ts, _ = startOn(t, jobDir)
	sameServed(t, "served from disk", servedBytes(t, ts, id), want)
	if _, again := sseFetch(t, ts, id, ""); again != history {
		t.Error("event history changed across the restart")
	}
}

// TestDoneJobWithoutRunRecordsFailsLoudly: a done plan job whose results
// file has one byte flipped, or is gone, is a damaged job directory, reported
// by job at start-up.
func TestDoneJobWithoutRunRecordsFailsLoudly(t *testing.T) {
	jobDir := t.TempDir()
	ts, stop := startOn(t, jobDir)
	st := submit(t, ts, planRequest("mtron", "Order"))
	waitFor(t, ts, st.ID, api.StatusDone)
	stop()
	results := filepath.Join(jobDir, "jobs", st.ID+".results")
	refused := func(damage string) {
		t.Helper()
		srv, err := server.New(server.Config{JobDir: jobDir})
		if err == nil {
			srv.Close()
			t.Fatalf("server.New accepted a done plan job whose results file is %s", damage)
		}
		if !strings.Contains(err.Error(), st.ID) {
			t.Fatalf("%s results file: error does not name the job: %v", damage, err)
		}
	}

	data := readFile(t, results)
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 1
	if err := os.WriteFile(results, flipped, 0o600); err != nil {
		t.Fatal(err)
	}
	refused("one byte off")
	if err := os.WriteFile(results, data, 0o600); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{JobDir: jobDir})
	if err != nil {
		t.Fatalf("the restored results file is refused: %v", err)
	}
	srv.Close()

	if err := os.Remove(results); err != nil {
		t.Fatal(err)
	}
	refused("missing")
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

// restoreFixture copies the job files of testdata/<fixture> into a fresh job
// directory.
func restoreFixture(t *testing.T, fixture string) (jobDir string) {
	t.Helper()
	jobDir = t.TempDir()
	for _, e := range readDir(t, filepath.Join("testdata", fixture)) {
		dst := filepath.Join(jobDir, "jobs", e.Name())
		if err := trace.WriteFileAtomic(dst, readFile(t, filepath.Join("testdata", fixture, e.Name()))); err != nil {
			t.Fatal(err)
		}
	}
	return jobDir
}

// TestJSONLinesLayoutStillLoads: a job directory written by the daemon
// before results files (run records in <id>.jsonl beside <id>.csv and
// <id>.report) serves the bytes that daemon served, and re-renders a missing
// CSV. testdata/jobs-v1 and jobs-v1-served.events were produced by the parent
// commit's build; jobsV1Result is the SHA-256 of the /result it served.
func TestJSONLinesLayoutStillLoads(t *testing.T) {
	const jobsV1Result = "3e2384160edc78199bc72bd9e6bed4cdf6be2ee408f5fe291fd63c8d3862e17e"
	jobDir := restoreFixture(t, "jobs-v1")
	wantCSV := readFile(t, filepath.Join("testdata", "jobs-v1", "j-000001.csv"))
	check := func(label string) {
		t.Helper()
		ts, stop := startOn(t, jobDir)
		defer stop()
		got := servedBytes(t, ts, "j-000001")
		if sum := sha256.Sum256(got["result"]); hex.EncodeToString(sum[:]) != jobsV1Result {
			t.Errorf("%s: /result differs from the bytes the writing daemon served", label)
		}
		delete(got, "result")
		sameServed(t, label, got, map[string][]byte{
			"csv":    wantCSV,
			"report": readFile(t, filepath.Join("testdata", "jobs-v1", "j-000001.report")),
		})
		if _, history := sseFetch(t, ts, "j-000001", ""); history != string(readFile(t, filepath.Join("testdata", "jobs-v1-served.events"))) {
			t.Errorf("%s: event history differs:\n%s", label, history)
		}
	}
	check("JSON-lines layout")
	// A missing CSV is re-rendered from the run records read back.
	if err := os.Remove(filepath.Join(jobDir, "jobs", "j-000001.csv")); err != nil {
		t.Fatal(err)
	}
	check("JSON-lines layout without its CSV")
}

// TestEvictingOlderLayoutsLeavesNoFile: a restored job of either layout an
// older daemon wrote is evicted with all its files.
func TestEvictingOlderLayoutsLeavesNoFile(t *testing.T) {
	for _, fixture := range []string{"jobs-v0", "jobs-v1"} {
		jobDir := restoreFixture(t, fixture)
		srv, err := server.New(server.Config{JobDir: jobDir, Workers: 1, KeepJobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		id := submit(t, ts, evictionRequest()).ID
		want := []string{id + ".json", id + ".results"}
		var files []string
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			files = files[:0]
			for _, e := range readDir(t, filepath.Join(jobDir, "jobs")) {
				files = append(files, e.Name())
			}
			if slices.Equal(files, want) {
				break
			}
		}
		ts.Close()
		srv.Close()
		if !slices.Equal(files, want) {
			t.Errorf("%s: after evicting j-000001 the job directory holds %v, want %v", fixture, files, want)
		}
	}
}

// TestStrayTempFilesRemoved: temporary files a crash left in the job
// directory are deleted at start-up — regular files only — and do not
// disturb the records beside them.
func TestStrayTempFilesRemoved(t *testing.T) {
	jobDir := t.TempDir()
	ts, stop := startOn(t, jobDir)
	st := submit(t, ts, planRequest("mtron", "Order"))
	waitFor(t, ts, st.ID, api.StatusDone)
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

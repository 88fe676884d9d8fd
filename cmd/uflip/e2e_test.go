package main

// End-to-end agreement of the three surfaces, in-process: what the CI shell
// smokes (serve, trace, workload, chaos) used to prove by diffing the outputs
// of a built binary and a curl'ed daemon. A job is described once, by argv;
// the local side runs it with job.Run and saves it with Outcome.Save, as
// `uflip <kind> -out` does; the remote side is runSubmit itself — flags,
// upload, submission, event stream, fetch, the same Save — against a real
// daemon behind httptest. Every file must come out the same bytes.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/job"
	"uflip/internal/server"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// startDaemon runs a daemon for the test; stop shuts it down and returns once
// its workers — and so every durable write — have finished.
func startDaemon(t *testing.T, cfg server.Config) (cl *client.Client, stop func()) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	stopped := false
	stop = func() {
		if !stopped {
			stopped = true
			ts.Close()
			srv.Close()
		}
	}
	t.Cleanup(stop)
	return &client.Client{BaseURL: ts.URL}, stop
}

// runLocally runs the job argv describes as the local command does, at the
// given worker count, and saves it under a fresh directory, which it returns.
func runLocally(t *testing.T, kind string, argv []string, workers int, src workload.Source) string {
	t.Helper()
	req, err := parseLocal(kind, argv)
	if err != nil {
		t.Fatal(err)
	}
	req.Parallel = workers
	out, err := job.Run(context.Background(), req, job.Env{Source: src})
	if err != nil {
		t.Fatalf("uflip %s %v: %v", kind, argv, err)
	}
	dir := t.TempDir()
	if _, err := out.Save(dir, stem(req)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runRemotely is `uflip submit <kind> argv -out DIR` against the daemon. It
// returns DIR and the ID the daemon gave the job.
func runRemotely(t *testing.T, cl *client.Client, kind string, argv []string) (dir, id string) {
	t.Helper()
	dir = t.TempDir()
	args := append([]string{kind, "-server", cl.BaseURL, "-out", dir}, argv...)
	if err := runSubmit(context.Background(), args); err != nil {
		t.Fatalf("uflip submit %v: %v", args, err)
	}
	list, err := cl.List(context.Background())
	if err != nil || len(list.Jobs) == 0 {
		t.Fatalf("job list after submit: %+v, %v", list, err)
	}
	return dir, list.Jobs[len(list.Jobs)-1].ID
}

// dirFiles reads every file of a result directory.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = body
	}
	if len(files) == 0 {
		t.Fatalf("%s holds no result files", dir)
	}
	return files
}

// sameFiles requires two result directories to hold the same files with the
// same bytes, and returns them.
func sameFiles(t *testing.T, what, gotDir, wantDir string) map[string][]byte {
	t.Helper()
	got, want := dirFiles(t, gotDir), dirFiles(t, wantDir)
	if len(got) != len(want) {
		t.Errorf("%s: %d files, want %d", what, len(got), len(want))
	}
	for name, body := range want {
		if !bytes.Equal(got[name], body) {
			t.Errorf("%s: %s differs", what, name)
		}
	}
	return want
}

// pick returns the one file of files with the given extension.
func pick(t *testing.T, files map[string][]byte, ext string) []byte {
	t.Helper()
	for name, body := range files {
		if filepath.Ext(name) == ext {
			return body
		}
	}
	t.Fatalf("no %s among the result files", ext)
	return nil
}

// TestSurfacesAgree: a plan, an armed-schedule plan, a mirror whose member
// dies mid-run, a synthetic workload on a stripe, an armed-schedule workload
// and an array sweep each produce the same result files run locally on one
// worker, locally on four, and through `uflip submit`; the daemon serves the
// CSV those files hold and its durable <id>.jsonl is the local .jsonl.
func TestSurfacesAgree(t *testing.T) {
	jobDir := t.TempDir()
	cl, stop := startDaemon(t, server.Config{JobDir: jobDir, StateDir: t.TempDir(), Workers: 2})
	ctx := context.Background()
	const capacity = "33554432"
	cases := []struct {
		name, kind string
		argv       []string
		armed      bool // a fault schedule that must fire and be retried
	}{
		{"plan", "plan", []string{"-device", "memoright", "-capacity", capacity, "-micro", "Order", "-iocount", "64"}, false},
		{"plan-faulty", "plan", []string{"-device", "faulty(mtron,readerr=5e-3,writeerr=5e-3,seed=7)", "-capacity", capacity, "-micro", "Order", "-iocount", "64"}, true},
		{"plan-dying-mirror", "plan", []string{"-device", "mirror(faulty(mtron,failat=64),mtron)", "-capacity", capacity, "-micro", "Order", "-iocount", "64"}, false},
		{"workload", "workload", []string{"-device", "stripe(2,mtron,mtron)", "-capacity", capacity, "-kind", "oltp", "-ops", "400", "-segment", "100"}, false},
		{"workload-faulty", "workload", []string{"-device", "faulty(kingston-dti,readerr=2e-2,writeerr=2e-2,seed=11)", "-capacity", capacity, "-kind", "oltp", "-ops", "400", "-segment", "100"}, true},
		{"array", "array", []string{"-member", "mtron", "-capacity", "16777216", "-iocount", "128", "-counts", "1,2", "-qd", "1,4"}, false},
	}
	durable := map[string][]byte{} // job ID -> the .jsonl a local run wrote
	for _, c := range cases {
		local := runLocally(t, c.kind, c.argv, 1, nil)
		sameFiles(t, c.name+": 4 workers vs 1", runLocally(t, c.kind, c.argv, 4, nil), local)
		remote, id := runRemotely(t, cl, c.kind, c.argv)
		files := sameFiles(t, c.name+": submit vs local", remote, local)
		if c.kind == "array" {
			continue
		}
		durable[id] = pick(t, files, ".jsonl")
		csv := pick(t, files, ".csv")
		if served, err := cl.CSV(ctx, id); err != nil || !bytes.Equal(served, csv) {
			t.Errorf("%s: GET /csv differs from the local .csv (err %v)", c.name, err)
		}
		if c.armed {
			records, err := trace.ReadSummaryCSV(bytes.NewReader(csv))
			if err != nil {
				t.Fatal(err)
			}
			var faults, retries int64
			for _, r := range records {
				faults, retries = faults+r.Faults, retries+r.Retries
			}
			if faults == 0 || retries == 0 {
				t.Errorf("%s: %d faults, %d retries in the CSV: the schedule never fired", c.name, faults, retries)
			}
		}
	}

	// The daemon's durable run records are the bytes a local run writes, and
	// its job record holds none of them.
	stop()
	for id, jsonl := range durable {
		got, err := os.ReadFile(filepath.Join(jobDir, "jobs", id+".jsonl"))
		if err != nil || !bytes.Equal(got, jsonl) {
			t.Errorf("%s.jsonl differs from the local .jsonl (err %v)", id, err)
		}
		record, err := os.ReadFile(filepath.Join(jobDir, "jobs", id+".json"))
		if err != nil || bytes.Contains(record, []byte(`"rts"`)) {
			t.Errorf("%s.json holds response times or is unreadable (err %v)", id, err)
		}
	}
}

// TestTraceFormsAgree: a 20,000-op stream converts CSV -> .utr -> CSV without
// loss, and replays to the same result files from either form on one worker
// or four; uploaded to a daemon in both forms and replayed through `uflip
// submit`, the two jobs again agree with each other and with what the daemon
// serves. (Local and daemon replays are not compared: a local replay labels
// the trace by its file name, the daemon by the hash of its ops.)
func TestTraceFormsAgree(t *testing.T) {
	src, err := job.Synthetic(workload.Spec{Kind: "oltp", Count: 20000, Seed: 42, PageSize: 8192, TargetSize: 16 << 20, ReadFraction: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := src.Segment(0, src.Len())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvPath, utrPath, backPath := filepath.Join(dir, "T.csv"), filepath.Join(dir, "T.utr"), filepath.Join(dir, "back.csv")
	if err := workload.SaveOps(csvPath, ops); err != nil {
		t.Fatal(err)
	}
	for _, step := range [][2]string{{csvPath, utrPath}, {utrPath, backPath}} {
		if n, err := workload.ConvertTraceFile(step[0], step[1], workload.FormatForPath(step[1])); err != nil || n != len(ops) {
			t.Fatalf("convert %s -> %s: %d records, %v", step[0], step[1], n, err)
		}
	}
	forms := map[string][]byte{}
	for _, path := range []string{csvPath, utrPath, backPath} {
		if forms[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(forms[csvPath], forms[backPath]) {
		t.Fatal("CSV -> utr -> CSV changed the trace")
	}

	argv := []string{"-device", "memoright", "-capacity", "33554432", "-segment", "2000"}
	var first string
	for _, path := range []string{csvPath, utrPath} {
		for _, workers := range []int{1, 4} {
			body := forms[path]
			opened, err := workload.OpenTrace(bytes.NewReader(body), int64(len(body)), traceLabel(path))
			if err != nil {
				t.Fatal(err)
			}
			got := runLocally(t, "workload", append([]string{"-trace", path}, argv...), workers, opened)
			if first == "" {
				first = got
			}
			sameFiles(t, filepath.Base(path)+" replayed locally", got, first)
		}
	}

	cl, _ := startDaemon(t, server.Config{Workers: 2})
	fromCSV, csvID := runRemotely(t, cl, "workload", append([]string{"-trace", csvPath}, argv...))
	fromUTR, utrID := runRemotely(t, cl, "workload", append([]string{"-trace", utrPath}, argv...))
	files := sameFiles(t, "utr upload vs CSV upload", fromUTR, fromCSV)
	for _, id := range []string{csvID, utrID} {
		if served, err := cl.CSV(context.Background(), id); err != nil || !bytes.Equal(served, pick(t, files, ".csv")) {
			t.Errorf("job %s: GET /csv differs from the file submit wrote (err %v)", id, err)
		}
	}
	if traces, err := cl.Traces(context.Background()); err != nil || len(traces.Traces) != 2 || traces.Traces[0].OpsHash != traces.Traces[1].OpsHash {
		t.Errorf("uploads: %+v, %v — want two blobs of one op stream", traces, err)
	}
}

// TestInterruptedSubmitCancelsTheJob: Ctrl-C on a `uflip submit` that is
// following a job stops that job on the daemon, as it stops a local run.
func TestInterruptedSubmitCancelsTheJob(t *testing.T) {
	cl, _ := startDaemon(t, server.Config{Workers: 1})
	ctx, interrupt := context.WithCancel(context.Background())
	defer interrupt()
	done := make(chan error, 1)
	go func() {
		// Seconds of work, so that the interrupt lands while it runs.
		done <- runSubmit(ctx, []string{"-server", cl.BaseURL, "-device", "mtron", "-capacity", "536870912", "-iocount", "16384", "-parallel", "1"})
	}()
	bg := context.Background()
	var id string
	for id == "" {
		select {
		case err := <-done:
			t.Fatalf("submit returned before it could be interrupted: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		list, err := cl.List(bg)
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) == 1 && list.Jobs[0].Status == api.StatusRunning {
			id = list.Jobs[0].ID
		}
	}
	interrupt()
	if err := <-done; err == nil {
		t.Fatal("interrupted submit reported success")
	}
	var last api.Event
	if err := cl.Events(bg, id, 0, func(ev api.Event) { last = ev }); err != nil {
		t.Fatal(err)
	}
	if last.Type != api.EventCanceled {
		t.Errorf("the job's event stream ends with %q, want %q", last.Type, api.EventCanceled)
	}
	if st, err := cl.Status(bg, id); err != nil || st.Status != api.StatusCanceled {
		t.Errorf("job status after the interrupt: %q (err %v), want %q", st.Status, err, api.StatusCanceled)
	}
}

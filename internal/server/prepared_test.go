package server_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/job"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/server"
	"uflip/internal/statestore"
	"uflip/internal/workload"
)

// keptBound is how many devices a daemon keeps prepared (paperexp's
// keptDevices).
const keptBound = 4

// servedJob is what a finished job serves: its CSV, its report and its event
// stream, the events without the job's ID.
type servedJob struct {
	csv, report []byte
	events      []api.Event
}

// runJob submits req, waits for it and returns what it serves.
func runJob(t *testing.T, cl *client.Client, req api.JobRequest) servedJob {
	t.Helper()
	st, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return awaitServed(t, cl, st.ID)
}

// awaitServed reads job id's event stream to its end, which must be done,
// and then its CSV and report.
func awaitServed(t *testing.T, cl *client.Client, id string) servedJob {
	t.Helper()
	ctx := context.Background()
	var s servedJob
	if err := cl.Events(ctx, id, 0, func(ev api.Event) {
		ev.Job = ""
		s.events = append(s.events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if last := s.events[len(s.events)-1]; last.Type != api.EventDone {
		t.Fatalf("job %s ended %s: %s", id, last.Type, last.Error)
	}
	var err error
	if s.csv, err = cl.CSV(ctx, id); err != nil {
		t.Fatal(err)
	}
	if s.report, err = cl.Report(ctx, id); err != nil {
		t.Fatal(err)
	}
	return s
}

// stateKey is the state key of req's device.
func stateKey(req api.JobRequest) statestore.Key {
	return paperexp.StateKey(req.Device, paperexp.Config{Capacity: req.Capacity, Seed: req.Seed})
}

// TestRepeatedJobsServeTheSameBytes submits the repository benchmark's two
// daemon requests (a two-micro plan and an uploaded trace's replay) four
// times each at once, on two workers, so jobs share kept devices while
// others run on them. Every job serves the bytes of the first and of the
// local run, and afterwards each kept master still holds exactly the state
// its file holds: a shard only ever copies it.
func TestRepeatedJobsServeTheSameBytes(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, server.Config{StateDir: dir, Workers: 2, QueueSize: 16})
	cl := &client.Client{BaseURL: ts.URL}
	ops, err := workload.OLTP{PageSize: 8192, TargetSize: 32 << 20, ReadFraction: 0.7, Count: 5000, Seed: 42}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var utr bytes.Buffer
	if err := workload.WriteUTR(&utr, ops); err != nil {
		t.Fatal(err)
	}
	info, err := cl.UploadTrace(context.Background(), utr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	plan := api.JobRequest{
		Kind: "plan", Device: "memoright", Capacity: 64 << 20, Seed: 42, IOCount: 64,
		Micros: []string{"Granularity", "Locality"}, Parallel: 1,
	}
	replay := api.JobRequest{
		Kind: "workload", Device: "kingston-dthx", Capacity: 64 << 20, Seed: 42, Parallel: 1,
		Workload: &api.WorkloadRequest{TraceHash: info.Hash, SegmentOps: 1000, WindowOps: 256},
	}

	// The local runs go first, through the daemon's state directory: they
	// save both states, so every plan job narrates a cache hit, from the file
	// or from memory alike.
	store, err := statestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	local := map[string]*job.Outcome{}
	for _, req := range []api.JobRequest{plan, replay} {
		var src workload.Source
		if req.Kind == "workload" {
			src = workload.OpsSource(workload.TraceName(info.OpsHash[:12]), ops)
		}
		if err := job.Normalize(&req); err != nil {
			t.Fatal(err)
		}
		out, err := job.Run(context.Background(), req, job.Env{Store: store, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		local[req.Kind] = out
	}

	var ids []string
	var kinds []string
	for range 4 {
		for _, req := range []api.JobRequest{plan, replay} {
			st, err := cl.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			ids, kinds = append(ids, st.ID), append(kinds, req.Kind)
		}
	}
	first := map[string]servedJob{}
	for i, id := range ids {
		got := awaitServed(t, cl, id)
		want, ok := first[kinds[i]]
		if !ok {
			first[kinds[i]], want = got, got
			if !bytes.Equal(got.csv, local[kinds[i]].CSV) || !bytes.Equal(got.report, local[kinds[i]].Report) {
				t.Fatalf("%s job %s: CSV or report differs from the local run", kinds[i], id)
			}
			if kinds[i] == "plan" && !strings.Contains(eventText(got.events), "state cache hit") {
				t.Fatalf("%s job %s does not narrate a cache hit: %s", kinds[i], id, eventText(got.events))
			}
		}
		if !bytes.Equal(got.csv, want.csv) || !bytes.Equal(got.report, want.report) {
			t.Fatalf("%s job %s: CSV or report differs from the first such job", kinds[i], id)
		}
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("%s job %s: events differ from the first such job:\n%s\nwant\n%s", kinds[i], id, eventText(got.events), eventText(want.events))
		}
	}

	kept := server.KeptDevices(srv)
	for _, req := range []api.JobRequest{plan, replay} {
		sk := stateKey(req)
		master, at, ok := kept.Master(sk)
		if !ok {
			t.Fatalf("%s: no kept master", req.Device)
		}
		fresh, err := profile.BuildDevice(req.Device, req.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		loadedAt, hit, err := store.Load(sk, fresh)
		if err != nil || !hit {
			t.Fatalf("%s: state file load: hit %v, %v", req.Device, hit, err)
		}
		got, err := device.SnapshotDevice(master)
		if err != nil {
			t.Fatal(err)
		}
		want, err := device.SnapshotDevice(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if at != loadedAt || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the kept master no longer holds its state file's state", req.Device)
		}
	}
}

func eventText(events []api.Event) string {
	var b strings.Builder
	for _, ev := range events {
		b.WriteString(ev.Type + " " + ev.Stage + " " + ev.Detail + "\n")
	}
	return b.String()
}

// TestKeptDevicesBound runs jobs on five state keys in turn: the daemon keeps
// the last four, and the first key's next job prepares it again — dropping
// the least recently used — and serves the bytes its first job served.
func TestKeptDevicesBound(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), Workers: 1})
	cl := &client.Client{BaseURL: ts.URL}
	reqs := make([]api.JobRequest, keptBound+1)
	served := make([]servedJob, len(reqs))
	for i := range reqs {
		reqs[i] = planRequest("mtron", "Order")
		reqs[i].Seed = int64(i + 1)
		served[i] = runJob(t, cl, reqs[i])
	}
	kept := server.KeptDevices(srv)
	isKept := func(i int) bool {
		_, _, ok := kept.Master(stateKey(reqs[i]))
		return ok
	}
	for i := range reqs {
		if isKept(i) != (i > 0) {
			t.Fatalf("after %d keys, key %d kept: %v", len(reqs), i, isKept(i))
		}
	}
	again := runJob(t, cl, reqs[0])
	if !bytes.Equal(again.csv, served[0].csv) || !bytes.Equal(again.report, served[0].report) {
		t.Fatal("the dropped key's next job serves other bytes")
	}
	if !isKept(0) || isKept(1) {
		t.Fatalf("after preparing key 0 again: key 0 kept %v, key 1 kept %v", isKept(0), isKept(1))
	}
}

// TestIOCountIsACalibrationKey: a plan that differs only in its IOCount runs
// on the kept master but measures its own phases and pause.
func TestIOCountIsACalibrationKey(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), Workers: 1})
	cl := &client.Client{BaseURL: ts.URL}
	short, long := planRequest("mtron", "Order"), planRequest("mtron", "Order")
	long.IOCount = 2 * short.IOCount
	runJob(t, cl, short)

	kept := server.KeptDevices(srv)
	sk := stateKey(short)
	master, _, ok := kept.Master(sk)
	if !ok {
		t.Fatal("no kept master after the first job")
	}
	defaults := func(req api.JobRequest) core.Defaults {
		d := core.StandardDefaults()
		d.IOCount, d.Seed, d.RandomTarget = req.IOCount, req.Seed, core.RandomTargetFor(master.Capacity())
		return d
	}
	if _, _, ok := kept.Calibration(sk, defaults(short)); !ok {
		t.Fatal("the first job's phases and pause are not kept")
	}
	if _, _, ok := kept.Calibration(sk, defaults(long)); ok {
		t.Fatal("a calibration is kept for an IOCount no job ran")
	}

	got := runJob(t, cl, long)
	if again, _, _ := kept.Master(sk); again != master {
		t.Fatal("the second job replaced the kept master")
	}
	if _, _, ok := kept.Calibration(sk, defaults(long)); !ok {
		t.Fatal("the second job's phases and pause are not kept")
	}
	if want := runLocally(t, long, nil); !bytes.Equal(got.csv, want.CSV) || !bytes.Equal(got.report, want.Report) {
		t.Fatal("the second job's CSV or report differs from the local run")
	}
}

// TestNoStateDirKeepsNothing: without a state directory a daemon keeps no
// device, and each job enforces its state live.
func TestNoStateDirKeepsNothing(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Workers: 1})
	cl := &client.Client{BaseURL: ts.URL}
	if server.KeptDevices(srv) != nil {
		t.Fatal("a daemon without a state directory keeps devices")
	}
	for range 2 {
		got := runJob(t, cl, planRequest("mtron", "Order"))
		if text := eventText(got.events); !strings.Contains(text, "state enforced in") {
			t.Fatalf("a job without a store does not enforce live:\n%s", text)
		}
	}
}

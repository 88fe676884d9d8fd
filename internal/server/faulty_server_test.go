package server_test

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/server"
)

// TestCancelJobOnFaultyDevice: a DELETE must land promptly even while the
// executor is inside the fault-retry path — cancellation is checked before
// every retry attempt, so an injected fault storm cannot turn a cancel into
// a hang.
func TestCancelJobOnFaultyDevice(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	big := server.JobRequest{
		Kind:     "plan",
		Device:   "faulty(mtron,writeerr=2e-3,readerr=2e-3,stall=500us@0.2,seed=7)",
		Capacity: 512 << 20,
		IOCount:  1024,
		Parallel: 1,
	}
	st := submit(t, ts, big)
	waitFor(t, ts, st.ID, server.StatusRunning)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+v1+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	canceled := waitFor(t, ts, st.ID, server.StatusCanceled, server.StatusDone)
	if canceled.Status == server.StatusDone {
		t.Skip("job finished before the cancel landed")
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("cancel of a faulty-device job took %v; retries must not delay cancellation", took)
	}
}

// TestJobTimeoutFailsJob: the per-job watchdog kills a job that outlives
// JobTimeout and reports it failed — not canceled — with the timeout in the
// error text, and the SSE stream ends on a terminal failed event.
func TestJobTimeoutFailsJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, JobTimeout: 100 * time.Millisecond})
	big := server.JobRequest{Kind: "plan", Device: "mtron", Capacity: 512 << 20, IOCount: 1024, Parallel: 1}
	st := submit(t, ts, big)
	failed := waitFor(t, ts, st.ID, server.StatusFailed, server.StatusDone)
	if failed.Status == server.StatusDone {
		t.Skip("job finished inside the watchdog window")
	}
	if !strings.Contains(failed.Error, "timeout") {
		t.Fatalf("failed job error %q does not mention the timeout", failed.Error)
	}

	cl := &client.Client{BaseURL: ts.URL}
	var last api.Event
	if err := cl.Events(context.Background(), st.ID, 0, func(ev api.Event) { last = ev }); err != nil {
		t.Fatal(err)
	}
	if last.Type != api.EventFailed || last.Error == "" {
		t.Fatalf("terminal event %+v, want a failed event carrying the error", last)
	}
}

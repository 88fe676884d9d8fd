package server_test

// Tests for the job queue, which is the daemon's jobs in status queued:
// admission counts them, a worker claims the oldest, and a restart restores
// them in submission order.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uflip/internal/api"
	"uflip/internal/server"
	"uflip/internal/trace"
)

// TestFailedPersistTakesNoQuota: a submission the daemon cannot persist is
// refused with 500 and leaves the tenant's queue quota as it was.
func TestFailedPersistTakesNoQuota(t *testing.T) {
	jobDir := t.TempDir()
	_, ts := newTestServer(t, server.Config{JobDir: jobDir, Workers: 1, TenantQueue: 1})
	running, code, _ := submitKeyed(t, ts, "tenant-p", slowPlanRequest())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	waitFor(t, ts, running.ID, api.StatusRunning)
	// A directory where the next job's record goes makes its write fail.
	blocker := filepath.Join(jobDir, "jobs", "j-000002.json")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, code, errCode := submitKeyed(t, ts, "tenant-p", planRequest("mtron", "Order")); code != http.StatusInternalServerError {
		t.Fatalf("submit with an unwritable record: HTTP %d (%s), want 500", code, errCode)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if _, code, errCode := submitKeyed(t, ts, "tenant-p", planRequest("mtron", "Order")); code != http.StatusAccepted {
		t.Fatalf("submit within quota: HTTP %d (%s), want 202", code, errCode)
	}
	_, code, errCode := submitKeyed(t, ts, "tenant-p", planRequest("mtron", "Granularity"))
	if code != http.StatusTooManyRequests || errCode != api.CodeQuotaExceeded {
		t.Fatalf("submit beyond quota: HTTP %d code %q, want 429 quota_exceeded", code, errCode)
	}
}

// TestRestoreFollowsIDNumbers: a restarted daemon lists its jobs by the
// number in their IDs, also where it outgrows the zero padding.
func TestRestoreFollowsIDNumbers(t *testing.T) {
	jobDir := t.TempDir()
	for _, id := range []string{"j-999999", "j-1000000"} {
		rec := `{"id":"` + id + `","request":{"kind":"plan"},"status":"canceled","submitted":"2026-01-01T00:00:00Z"}`
		if err := trace.WriteFileAtomic(filepath.Join(jobDir, "jobs", id+".json"), []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := startOn(t, jobDir)
	var list api.JobList
	if code, body := get(t, ts, "/jobs"); code != http.StatusOK || json.Unmarshal(body, &list) != nil {
		t.Fatalf("GET /jobs: HTTP %d: %s", code, body)
	}
	var ids []string
	for _, st := range list.Jobs {
		ids = append(ids, st.ID)
	}
	if got := strings.Join(ids, " "); got != "j-999999 j-1000000" {
		t.Fatalf("GET /jobs lists %s, want j-999999 j-1000000", got)
	}
}

// TestEachJobRunsOnce: with four workers claiming from one queue while every
// other job is canceled, every job ends, none runs twice, and a job canceled
// while queued never runs.
func TestEachJobRunsOnce(t *testing.T) {
	_, ts := newTestServer(t, server.Config{StateDir: t.TempDir(), Workers: 4, QueueSize: 16})
	req := planRequest("mtron", "Order")
	req.Parallel = 1
	ids := make([]string, 16)
	canceledQueued := make(map[string]bool)
	for i := range ids {
		ids[i] = submit(t, ts, req).ID
		if i%2 == 1 && cancelJob(t, ts, ids[i]).Status == api.StatusCanceled {
			canceledQueued[ids[i]] = true
		}
	}
	for _, id := range ids {
		waitFor(t, ts, id, api.StatusDone, api.StatusCanceled)
		_, history := sseFetch(t, ts, id, "")
		runs := strings.Count(history, "event: running\n")
		switch {
		case runs > 1:
			t.Errorf("%s ran %d times", id, runs)
		case canceledQueued[id] && (runs != 0 || !strings.Contains(history, "canceled while queued")):
			t.Errorf("%s was canceled while queued, yet its events are:\n%s", id, history)
		}
	}
}

// cancelJob sends DELETE for a job and returns the status it answers with.
func cancelJob(t *testing.T, ts *httptest.Server, id string) api.JobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+v1+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

package server_test

// The absolute pin on what the daemon serves for a trace replay: the other
// tests here compare the daemon with the CLI or with itself after a restart,
// and TestRenderedBytesGolden in internal/paperexp never enters the daemon,
// so a change that shifts the daemon's replay path (trace open, ReplaySource
// at one worker, event log, CSV render) passes all of them. Regenerate
// testdata/served.sha256.json — only for an intended change of model or
// format, explained in the PR — with
//
//	go test ./internal/server -run TestServedBytesGolden -update

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/server"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

var updateServed = flag.Bool("update", false, "rewrite testdata/served.sha256.json from the current behaviour")

const servedGoldenPath = "testdata/served.sha256.json"

// TestServedBytesGolden uploads a three-chunk .utr trace, replays it as one
// workload job on one worker (so the progress events arrive in segment
// order) and compares the SHA-256 of the job's whole SSE stream, its CSV and
// its report with digests committed from a known-good tree. The segment size
// is a multiple of neither the window size nor the chunk size. A paper job's
// report — Figures 3 and 5 — is pinned beside them.
func TestServedBytesGolden(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	cl := &client.Client{BaseURL: ts.URL}
	ctx := context.Background()

	ops, err := workload.OLTP{PageSize: 8192, TargetSize: testCapacity / 2, ReadFraction: 0.7, Count: 5000, Seed: 42}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var utr bytes.Buffer
	if err := workload.WriteUTR(&utr, ops); err != nil {
		t.Fatal(err)
	}
	info, err := cl.UploadTrace(ctx, utr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Submit(ctx, api.JobRequest{
		Kind: "workload", Device: "kingston-dti", Capacity: testCapacity, Seed: 42, Parallel: 1,
		Workload: &api.WorkloadRequest{TraceHash: info.Hash, SegmentOps: 700, WindowOps: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := cl.Submit(ctx, api.JobRequest{Kind: "paper", Experiments: []string{"fig3", "fig5"}, Capacity: testCapacity, Seed: 42, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, ts, st.ID, api.StatusDone)
	waitFor(t, ts, paper.ID, api.StatusDone)

	_, events := sseFetch(t, ts, st.ID, "")
	_, csv := get(t, ts, "/jobs/"+st.ID+"/csv")
	_, rep := get(t, ts, "/jobs/"+st.ID+"/report")
	_, figures := get(t, ts, "/jobs/"+paper.ID+"/report")
	got := map[string]string{}
	for name, body := range map[string][]byte{
		"workload/utr/events": []byte(events), "workload/utr/csv": csv, "workload/utr/report": rep,
		"paper/fig3,fig5/report": figures,
	} {
		if len(body) == 0 {
			t.Fatalf("%s served empty", name)
		}
		sum := sha256.Sum256(body)
		got[name] = hex.EncodeToString(sum[:])
	}

	if *updateServed {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFileAtomic(servedGoldenPath, append(blob, '\n')); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(servedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", servedGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test serves %d", servedGoldenPath, len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: sha256 %s, golden %s", name, sum, want[name])
		}
	}
}

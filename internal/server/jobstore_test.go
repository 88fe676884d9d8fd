package server

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"uflip/internal/api"
	"uflip/internal/trace"
)

// TestSaveFinishedStreams pins the cost of writing a finished job down:
// the run records of a 20 000-IO workload job go from the results encoder's
// one 32 KiB buffer straight into the file. The indented single-file record
// this replaced allocated more than twice the size of the file it wrote, the
// JSON-lines file after it up to 256 KiB.
func TestSaveFinishedStreams(t *testing.T) {
	st, err := openJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	records := make([]trace.RunRecord, 5)
	for i := range records {
		rts := make([]time.Duration, 4000)
		for k := range rts {
			rts[k] = time.Duration(100_000 + 7919*k + i)
		}
		records[i] = trace.RunRecord{ID: "workload/oltp/seg", Device: "kingston-dthx", Micro: "workload", Param: "Segment", Value: int64(i), RTs: rts}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := &jobRecord{ID: "j-000001", Status: api.StatusDone, Req: api.JobRequest{Kind: "workload"}}
	if err := st.saveFinished(rec, records, new(resultsWriter), new(recordEncoder)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	info, err := os.Stat(st.path("j-000001", ".results"))
	if err != nil {
		t.Fatal(err)
	}
	const limit = 128 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit || info.Size() < limit/2 {
		t.Fatalf("persisting a %d-byte .results allocated %d bytes, want < %d", info.Size(), got, limit)
	}
}

// TestRecordFileIsMarshalIndent: a record written through a worker's kept
// encoder is json.MarshalIndent's bytes, whatever the encoder wrote before,
// with characters that HTML escaping and a trailing newline would change.
func TestRecordFileIsMarshalIndent(t *testing.T) {
	st, err := openJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	submitted := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	recs := []*jobRecord{
		{ID: "j-000001", Status: api.StatusDone, Req: api.JobRequest{Kind: "plan", Device: "mtron", Micros: []string{"Order"}},
			Submitted: submitted, Finished: submitted.Add(time.Second),
			Events: []api.Event{{ID: 1, Type: api.EventQueued, Job: "j-000001"}, {ID: 2, Type: api.EventDone, Job: "j-000001", Runs: 3}}},
		{ID: "j-000002", Status: api.StatusFailed, Error: "<a & b> ", Req: api.JobRequest{Kind: "workload"}, Submitted: submitted},
	}
	var re recordEncoder
	for _, rec := range recs {
		if err := st.saveRecord(rec, &re); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(st.path(rec.ID, ".json"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s.json:\n%s\nwant json.MarshalIndent's\n%s", rec.ID, got, want)
		}
	}
}

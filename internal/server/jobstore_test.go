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

// TestResultsWriteReusesTheEncodeBuffer pins the cost of writing a finished
// job down: the run records of a 20 000-IO workload job are encoded into the
// encoder's kept buffer and written from it, so the second such job through
// the same encoder allocates for the file it opens, not for its bytes.
func TestResultsWriteReusesTheEncodeBuffer(t *testing.T) {
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
	var e resultsEncoder
	save := func(id string) {
		data, err := e.encode(Results{Records: records})
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFileAtomic(st.path(id, ".results"), data); err != nil {
			t.Fatal(err)
		}
	}
	save("j-000001") // grows the buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	save("j-000002")
	runtime.ReadMemStats(&after)
	info, err := os.Stat(st.path("j-000002", ".results"))
	if err != nil {
		t.Fatal(err)
	}
	const limit = 16 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("persisting a %d-byte .results allocated %d bytes", info.Size(), got)
	if got >= limit || info.Size() < 4*limit {
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
	var re jsonEncoder
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

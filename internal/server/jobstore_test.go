package server

import (
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
	if err := st.saveFinished(rec, records, new(resultsWriter)); err != nil {
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

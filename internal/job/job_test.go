package job_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uflip/internal/api"
	"uflip/internal/job"
	"uflip/internal/report"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// TestNormalizeRejects pins the messages a bad request is refused with — the
// daemon's 400 bodies and the local commands' errors are these strings.
func TestNormalizeRejects(t *testing.T) {
	wl := func(w api.WorkloadRequest) *api.WorkloadRequest { return &w }
	cases := []struct {
		req  api.JobRequest
		want string
	}{
		{api.JobRequest{Kind: "nope", Device: "mtron"}, `unknown job kind "nope" (want plan, workload or array)`},
		{api.JobRequest{Kind: "plan", Device: "mtron", Capacity: -1}, "capacity must be positive"},
		{api.JobRequest{Kind: "plan"}, "plan jobs need a device"},
		{api.JobRequest{Kind: "plan", Device: "not-a-device"}, `unknown device "not-a-device"`},
		{api.JobRequest{Kind: "plan", Device: "stripe(2,mtron"}, "must be layout(args)"},
		{api.JobRequest{Kind: "plan", Device: "mtron", Micros: []string{"Oder"}}, `unknown micro-benchmark "Oder"`},
		{api.JobRequest{Kind: "workload"}, "workload jobs need a device"},
		{api.JobRequest{Kind: "workload", Device: "mtron"}, "workload jobs need a workload spec"},
		{api.JobRequest{Kind: "workload", Device: "mtron", Workload: wl(api.WorkloadRequest{Spec: workload.Spec{Kind: "oltp"}})}, "workload jobs need a positive op count"},
		{api.JobRequest{Kind: "workload", Device: "mtron", Workload: wl(api.WorkloadRequest{Spec: workload.Spec{Kind: "bogus", Count: 10}})}, `unknown kind "bogus"`},
		{api.JobRequest{Kind: "workload", Device: "mtron", Workload: wl(api.WorkloadRequest{Spec: workload.Spec{Kind: "oltp"}, TraceHash: "ab"})}, `workload kind "oltp" conflicts with trace_hash`},
		{api.JobRequest{Kind: "array"}, "array jobs need an array.member profile"},
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "faulty(nope)"}}, `unknown device "nope"`},
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"raid9"}}}, `"raid9"`},
	}
	for _, c := range cases {
		err := job.Normalize(&c.req)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want one containing %q", c.req, err, c.want)
		}
	}
}

// TestNormalizeDefaults: omitted values come from api.Defaults, a workload
// takes the job's seed and half the capacity, a trace_hash makes the kind
// "trace" — and normalizing twice changes nothing.
func TestNormalizeDefaults(t *testing.T) {
	d := api.Defaults()
	plan := api.JobRequest{Kind: "plan", Device: "mtron"}
	wl := api.JobRequest{Kind: "workload", Device: "mtron", Capacity: 64 << 20, Seed: 7, Workload: &api.WorkloadRequest{TraceHash: "ab"}}
	array := api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "faulty(mtron,failat=9)"}}
	for _, req := range []*api.JobRequest{&plan, &wl, &array} {
		if err := job.Normalize(req); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		again := *req
		if req.Workload != nil {
			w := *req.Workload
			again.Workload = &w
		}
		if err := job.Normalize(&again); err != nil || !reflect.DeepEqual(&again, req) {
			t.Errorf("normalizing %+v again gives %+v (err %v)", req, again, err)
		}
	}
	if plan.Capacity != d.Capacity || plan.Seed != d.Seed || plan.IOCount != d.IOCount {
		t.Errorf("plan defaults: %+v, want those of %+v", plan, d)
	}
	if array.Capacity != d.Capacity || array.IOCount != d.IOCount {
		t.Errorf("array defaults: %+v, want the wire defaults of %+v", array, d)
	}
	if w := wl.Workload; w.Seed != 7 || w.TargetSize != 32<<20 || w.Kind != "trace" || wl.IOCount != 0 {
		t.Errorf("workload normalized to %+v (iocount %d)", w, wl.IOCount)
	}
}

// TestSaveNamesAndBytes pins the -out result path: the files land in a fresh
// nested directory under the names the local commands have always used,
// holding exactly the outcome's bytes, and an unwritable destination is an
// error, not a silent exit 0.
func TestSaveNamesAndBytes(t *testing.T) {
	records := []trace.RunRecord{{ID: "Order/SR/1", Device: "mem", Micro: "Order", Base: "SR", Param: "Incr", Value: 1, TotalSeconds: 0.25}}
	var jsonl bytes.Buffer
	if err := trace.WriteJSON(&jsonl, records); err != nil {
		t.Fatal(err)
	}
	csv := []byte("the bytes the runner rendered\n")
	cases := []struct {
		out   job.Outcome
		files map[string][]byte
		says  string
	}{
		{job.Outcome{Kind: "plan", Records: records, CSV: csv}, map[string][]byte{"dev.jsonl": jsonl.Bytes(), "dev.csv": csv}, "results written under "},
		{job.Outcome{Kind: "workload", Records: records, CSV: csv}, map[string][]byte{"dev-workload.jsonl": jsonl.Bytes(), "dev-workload.csv": csv}, "results written under "},
		{job.Outcome{Kind: "array", Rows: []report.ArrayRow{{Spec: "stripe(2,mtron,mtron)", Members: 2}}}, map[string][]byte{"dev-arrays.json": nil}, "grid written to "},
	}
	for _, c := range cases {
		dir := filepath.Join(t.TempDir(), "a", "b")
		said, err := c.out.Save(dir, "dev")
		if err != nil || !strings.HasPrefix(said, c.says+dir) {
			t.Fatalf("%s: Save says %q, %v", c.out.Kind, said, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != len(c.files) {
			t.Fatalf("%s: %d files under %s (err %v), want %d", c.out.Kind, len(entries), dir, err, len(c.files))
		}
		for name, want := range c.files {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil || (want != nil && !bytes.Equal(got, want)) {
				t.Errorf("%s: %s holds %q (err %v), want %q", c.out.Kind, name, got, err, want)
			}
		}
		blocked := filepath.Join(dir, entries[0].Name()) // a file where the directory should go
		if _, err := c.out.Save(blocked, "dev"); err == nil {
			t.Errorf("%s: Save under a regular file succeeded", c.out.Kind)
		}
	}
}

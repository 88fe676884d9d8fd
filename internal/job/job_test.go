package job_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uflip/internal/api"
	"uflip/internal/job"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
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
		{api.JobRequest{Kind: "nope", Device: "mtron"}, `unknown job kind "nope" (want plan, workload, array or paper)`},
		{api.JobRequest{Kind: "plan", Device: "mtron", Capacity: -1}, "capacity must be positive"},
		{api.JobRequest{Kind: "plan", Device: "mtron", Parallel: profile.MaxParallel + 1}, "parallel 257 is above the ceiling of 256 workers"},
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
		// A plan writes iocount IOs of 32 KiB from offset 0, on every composite
		// of an array sweep.
		{api.JobRequest{Kind: "plan", Device: "mtron", Capacity: 16 << 20, Micros: []string{"Order"}}, "mtron holds 16777216 bytes, below the 33554432 a plan of 1024 IOs of 32768 bytes spans"},
		{api.JobRequest{Kind: "plan", Device: "mirror(2,mtron)", Capacity: 16 << 20}, "mirror(2,mtron) holds 16777216 bytes, below the 33554432"},
		{api.JobRequest{Kind: "array", Capacity: 16 << 20, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe"}, Counts: []int{1}}}, "stripe(1,mtron,qd=1) holds 16777216 bytes, below the 33554432"},
		{api.JobRequest{Kind: "array", Capacity: 16 << 20, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"mirror"}, Counts: []int{2}}}, "mirror(2,mtron,mtron,qd=1) holds 16777216 bytes, below the 33554432"},
		// Every composite of a sweep is built from its spec, which must parse.
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "stripe(2,mtron)"}}, `bad argument "stripe(2,mtron)"`},
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "mtron", QueueDepths: []int{0}}}, `qd "0" must be an integer in [1, 256]`},
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "mtron", Counts: []int{1 << 30}}}, "an array of 1073741824 members is above the ceiling of 64"},
		// A baseline's processes each run at least one IO, on a target that
		// holds one: a sequential target is iocount IOs, a random one half
		// the composite.
		{api.JobRequest{Kind: "array", Capacity: 64 << 20, IOCount: 2, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe"}, Counts: []int{1}}}, "degree 4 is above the 2 IOs a baseline runs"},
		{api.JobRequest{Kind: "array", Capacity: 64 << 20, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe"}, Counts: []int{1}, Degree: 2000}}, "degree 2000 is above the 1024 IOs a baseline runs"},
		{api.JobRequest{Kind: "array", Capacity: 32 << 20, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe"}, Counts: []int{1}, Degree: 600}}, "degree 600 is above the 512 IOs of 32768 bytes that stripe(1,mtron,qd=1)'s random target of 16777216 bytes holds"},
		{api.JobRequest{Kind: "paper"}, "paper jobs need an experiment (known: table1, "},
		{api.JobRequest{Kind: "paper", Experiments: []string{"fig3", "fig9"}}, `unknown experiment "fig9"`},
		// Figure 4 writes 2,048 IOs of 32 KiB from offset 0; a plan 1,024 of them.
		{api.JobRequest{Kind: "paper", Experiments: []string{"fig4"}, Capacity: 32 << 20}, "experiment fig4 spans 67108864 bytes, above the capacity of 33554432"},
		{api.JobRequest{Kind: "paper", Experiments: []string{"all"}, Capacity: 24 << 20}, "experiment table3 spans 33554432 bytes, above the capacity of 25165824"},
		// A probe's random target, half the capacity, holds one IO.
		{api.JobRequest{Kind: "paper", Experiments: []string{"fig3"}, Capacity: 4096}, "experiment fig3 spans 65536 bytes, above the capacity of 4096"},
		{api.JobRequest{Kind: "paper", Experiments: []string{"table1"}, IOCount: 2048}, "paper jobs take no iocount (their plans run 1024 IOs)"},
	}
	for _, c := range cases {
		err := job.Normalize(&c.req)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want one containing %q", c.req, err, c.want)
		}
	}
}

// TestNormalizeAcceptsWhatHoldsTheSpan: the span is checked against the
// device a request builds, so an array of members below it passes when the
// array holds it.
func TestNormalizeAcceptsWhatHoldsTheSpan(t *testing.T) {
	for _, req := range []api.JobRequest{
		{Kind: "plan", Device: "stripe(2,mtron,mtron)", Capacity: 16 << 20},
		{Kind: "plan", Device: "faulty(concat(2,mtron),seed=1)", Capacity: 16 << 20},
		{Kind: "array", Capacity: 16 << 20, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe", "concat"}, Counts: []int{2}}},
	} {
		if err := job.Normalize(&req); err != nil {
			t.Errorf("%+v: %v", req, err)
		}
	}
}

// TestNormalizeDefaults: omitted values come from api.Defaults, a workload
// takes the job's seed and half the capacity, a trace_hash makes the kind
// "trace", a paper job's "all" becomes every experiment — and normalizing
// twice changes nothing.
func TestNormalizeDefaults(t *testing.T) {
	d := api.Defaults()
	plan := api.JobRequest{Kind: "plan", Device: "mtron"}
	wl := api.JobRequest{Kind: "workload", Device: "mtron", Capacity: 64 << 20, Seed: 7, Workload: &api.WorkloadRequest{TraceHash: "ab"}}
	array := api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "faulty(mtron,failat=9)"}}
	paper := api.JobRequest{Kind: "paper", Experiments: []string{"all"}}
	for _, req := range []*api.JobRequest{&plan, &wl, &array, &paper} {
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
	if !reflect.DeepEqual(paper.Experiments, paperexp.Experiments) || paper.Capacity != d.Capacity || paper.Seed != d.Seed || paper.IOCount != 0 {
		t.Errorf("paper normalized to %+v, want every experiment at the defaults of %+v", paper, d)
	}
	if w := wl.Workload; w.Seed != 7 || w.TargetSize != 32<<20 || w.Kind != "trace" || wl.IOCount != 0 {
		t.Errorf("workload normalized to %+v (iocount %d)", w, wl.IOCount)
	}
}

// TestCanceledPaperJobEndsCanceled: Figures 3 and 5 run no plan and do not
// watch ctx, so Run checks it after each experiment; a paper job canceled
// while they run ends with ctx's error, never done.
func TestCanceledPaperJobEndsCanceled(t *testing.T) {
	req := api.JobRequest{Kind: "paper", Experiments: []string{"fig3", "fig5"}, Capacity: 24 << 20}
	if err := job.Normalize(&req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := job.Run(ctx, req, job.Env{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fig3,fig5 job: outcome %v, error %v; want context.Canceled", out != nil, err)
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

// TestTable3RowMatchesPlanJob: a Table 3 row (uflip paper -exp table3) and a
// plan job (uflip, the daemon) run the same pipeline, so the row's 32 KB
// baseline costs are exactly the means of the job's Granularity records.
func TestTable3RowMatchesPlanJob(t *testing.T) {
	const capacity, seed = 512 << 20, 42
	for _, key := range []string{"kingston-dthx", "memoright"} {
		cfg := paperexp.DefaultConfig()
		cfg.Capacity, cfg.Seed = capacity, seed
		plan, err := paperexp.RunBenchmark(context.Background(), key, cfg, paperexp.BenchmarkRequest{Micros: paperexp.Table3Micros})
		if err != nil {
			t.Fatal(err)
		}
		row := report.Characterize(plan.Results, 32<<10)

		req := api.JobRequest{Kind: "plan", Device: key, Capacity: capacity, Seed: seed}
		if err := job.Normalize(&req); err != nil {
			t.Fatal(err)
		}
		out, err := job.Run(context.Background(), req, job.Env{})
		if err != nil {
			t.Fatal(err)
		}
		means := map[string]float64{}
		for _, rec := range out.Records {
			means[rec.ID] = rec.Summary.Mean * 1e3
		}
		for base, got := range map[string]float64{"SR": row.SRms, "RR": row.RRms, "SW": row.SWms, "RW": row.RWms} {
			id := "Granularity/" + base + "/IOSize=32768"
			if want, ok := means[id]; !ok || got != want {
				t.Errorf("%s: Table 3 %s = %v ms, the plan job's %s = %v ms", key, base, got, id, want)
			}
		}
	}
}

// TestOddCapacitiesRunToTheEnd: requests the validator accepts at capacities
// that hold no whole number of IOs or cache lines run to the end — every plan
// micro-benchmark on memoright and kingston-sd, Granularity on a concat and
// the default array sweep over mtron. Before the fixes the Order
// micro-benchmark ran past the device, and a concat member's write-back cache
// destaged past its FTL's capacity.
func TestOddCapacitiesRunToTheEnd(t *testing.T) {
	var reqs []api.JobRequest
	for _, dev := range []string{"memoright", "kingston-sd"} {
		for _, capacity := range []int64{1_000_000_000, 1_000_000_512, 40_000_000} {
			reqs = append(reqs, api.JobRequest{Kind: "plan", Device: dev, Capacity: capacity})
		}
	}
	reqs = append(reqs,
		api.JobRequest{Kind: "plan", Device: "concat(2,mtron)", Capacity: 1_000_000_000, Micros: []string{"Granularity"}},
		api.JobRequest{Kind: "array", Capacity: 1_000_000_000, Array: &api.ArrayRequest{Member: "mtron"}},
	)
	for _, req := range reqs {
		req.Parallel = 2
		if err := job.Normalize(&req); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(context.Background(), req, job.Env{}); err != nil {
			dev := req.Device
			if req.Array != nil {
				dev = req.Array.Member
			}
			t.Errorf("%s job on %q at %d bytes: %v", req.Kind, dev, req.Capacity, err)
		}
	}
}

package job_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"uflip/internal/api"
	"uflip/internal/core"
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
		// A workload's device, too, is built at the capacity, and its generator
		// refused as it would refuse to generate.
		{api.JobRequest{Kind: "workload", Device: "mtron", Capacity: 64 << 10, Workload: wl(api.WorkloadRequest{Spec: workload.Spec{Kind: "append", Count: 10, Streams: 4}})}, "workload: LogAppend target 32768 too small for 4 streams at IOSize 32768"},
		{api.JobRequest{Kind: "workload", Device: "stripe(transcend-mlc32,corsair)", Capacity: 32 << 10, Workload: wl(api.WorkloadRequest{Spec: workload.Spec{Kind: "oltp", Count: 10}})}, "device: stripe members smaller than one 131072-byte chunk"},
		{api.JobRequest{Kind: "array"}, "array jobs need an array.member profile"},
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "faulty(nope)"}}, `unknown device "nope"`},
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"raid9"}}}, `"raid9"`},
		// A plan's probes, and every composite of an array sweep, write
		// iocount IOs of 32 KiB from offset 0, and read randomly from half
		// the device: a target that must hold one IO.
		{api.JobRequest{Kind: "plan", Device: "mtron", Capacity: 16 << 20, Micros: []string{"Order"}}, "mtron (16777216 bytes) cannot run SR at 1024 IOs: core: SR ends at byte 33554432, past the 16777216 bytes of the device"},
		{api.JobRequest{Kind: "plan", Device: "mirror(2,mtron)", Capacity: 16 << 20}, "mirror(2,mtron) (16777216 bytes) cannot run SR at 1024 IOs: core: SR ends at byte 33554432"},
		{api.JobRequest{Kind: "plan", Device: "mtron", Capacity: 32 << 10, IOCount: 1, Micros: []string{"Granularity"}}, "mtron (32768 bytes) cannot run RR at 1 IOs: core: TargetSize 16384 smaller than IOSize 32768"},
		{api.JobRequest{Kind: "array", Capacity: 16 << 20, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe"}, Counts: []int{1}}}, "stripe(1,mtron,qd=1) (16777216 bytes) cannot run SR at 1024 IOs: core: SR ends at byte 33554432"},
		{api.JobRequest{Kind: "array", Capacity: 16 << 20, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"mirror"}, Counts: []int{2}}}, "mirror(2,mtron,mtron,qd=1) (16777216 bytes) cannot run SR at 1024 IOs: core: SR ends at byte 33554432"},
		// Every composite of a sweep is built from its spec, which must parse.
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "stripe(2,mtron)"}}, `bad argument "stripe(2,mtron)"`},
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "mtron", QueueDepths: []int{0}}}, `qd "0" must be an integer in [1, 256]`},
		{api.JobRequest{Kind: "array", Array: &api.ArrayRequest{Member: "mtron", Counts: []int{1 << 30}}}, "an array of 1073741824 members is above the ceiling of 64"},
		// A baseline's processes each run at least one IO, on a target that
		// holds one: a sequential target is iocount IOs, a random one half
		// the composite.
		{api.JobRequest{Kind: "array", Capacity: 64 << 20, IOCount: 2, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe"}, Counts: []int{1}}}, "stripe(1,mtron,qd=1) (67108864 bytes) cannot run SR at 2 IOs: core: target 65536 too small for 4-way parallelism at IOSize 32768"},
		{api.JobRequest{Kind: "array", Capacity: 64 << 20, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe"}, Counts: []int{1}, Degree: 2000}}, "stripe(1,mtron,qd=1) (67108864 bytes) cannot run SR at 1024 IOs: core: target 33554432 too small for 2000-way parallelism"},
		{api.JobRequest{Kind: "array", Capacity: 32 << 20, Array: &api.ArrayRequest{Member: "mtron", Layouts: []string{"stripe"}, Counts: []int{1}, Degree: 600}}, "stripe(1,mtron,qd=1) (33554432 bytes) cannot run RR at 1024 IOs: core: target 16777216 too small for 600-way parallelism"},
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

// TestNormalizeAcceptsExactlyWhatRuns: Normalize accepts a plan request
// exactly when it runs to the end, for every micro-benchmark at 1, 16 and 64
// IOs on capacities from 16 KiB up. Among them: 32 KiB, where a probe's
// random target (half the device) held no IO; 64 and 96 KiB at one IO, where
// a Granularity run's target grew to its 128 KiB IO, past the device; and
// 512 and 768 KiB at 16 IOs, where a Parallelism run's target, held to half
// the device, could not be split among 16 processes.
func TestNormalizeAcceptsExactlyWhatRuns(t *testing.T) {
	caps := []int64{32 << 10, 64 << 10, 96 << 10, 512 << 10, 768 << 10}
	for c := int64(16 << 10); c <= 8<<20; c = c * 3 / 2 {
		caps = append(caps, c, c+c/3+512)
	}
	accepted, total := 0, 0
	for _, capacity := range caps {
		for _, ios := range []int{1, 16, 64} {
			for _, m := range core.Table1 {
				req := api.JobRequest{Kind: "plan", Device: "mtron", Capacity: capacity, IOCount: ios, Micros: []string{m.Name}, Parallel: 1}
				normalized := job.Normalize(&req)
				_, ran := job.Run(context.Background(), req, job.Env{})
				if (normalized == nil) != (ran == nil) {
					t.Errorf("%s on %d bytes at %d IOs: Normalize says %v, Run %v", m.Name, capacity, ios, normalized, ran)
				}
				if normalized == nil {
					accepted++
				}
				total++
			}
		}
	}
	if accepted == 0 || accepted == total {
		t.Fatalf("Normalize accepts %d of %d requests: one side is untested", accepted, total)
	}
}

// TestNormalizeAllocations: admission checks a plan's probes, not the plan,
// so normalizing the daemon benchmark's plan request (memoright, 64 MiB, 64
// IOs, Granularity and Locality) allocates no more than the span rule it
// replaced.
func TestNormalizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	req := api.JobRequest{Kind: "plan", Device: "memoright", Capacity: 64 << 20, IOCount: 64, Micros: []string{"Granularity", "Locality"}}
	got := testing.AllocsPerRun(20, func() {
		if err := job.Normalize(&req); err != nil {
			t.Fatal(err)
		}
	})
	if got > 20 {
		t.Errorf("Normalize allocates %v times, want at most 20", got)
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

// TestPoisonedSeriesServesTheSameBytes: a plan job of all nine
// micro-benchmarks (pattern, mix and parallel runs, at two engine workers
// taking windows at once), a synthetic replay and a .utr replay, run one
// after the other on one RunState, render the records, CSV and report of the
// same jobs run without one. Before every job each IO batch, pattern source,
// generator and decode buffer of the state is overwritten with a sentinel,
// and its Series' slab first held a sentinel and then each earlier job's
// series: every byte a job reads it has written first.
func TestPoisonedSeriesServesTheSameBytes(t *testing.T) {
	ops, err := workload.Spec{Kind: "zipf", Count: 1500, TargetSize: 32 << 20}.Build()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := ops.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var utr bytes.Buffer
	if err := workload.WriteUTR(&utr, stream); err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewUTRSource(bytes.NewReader(utr.Bytes()), int64(utr.Len()), "poisoned")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []api.JobRequest{
		{Kind: "plan", Device: "memoright", Capacity: 64 << 20, IOCount: 64, Parallel: 2},
		{Kind: "workload", Device: "kingston-dti", Capacity: 64 << 20, Parallel: 2,
			Workload: &api.WorkloadRequest{Spec: workload.Spec{Kind: "oltp", Count: 2000}, SegmentOps: 300}},
		{Kind: "workload", Device: "mtron", Capacity: 64 << 20, Parallel: 2,
			Workload: &api.WorkloadRequest{TraceHash: "poisoned", SegmentOps: 400}},
	}
	run := func(i int, state *core.RunState) *job.Outcome {
		env := job.Env{State: state}
		if reqs[i].Workload != nil && reqs[i].Workload.TraceHash != "" {
			env.Source = src
		}
		out, err := job.Run(context.Background(), reqs[i], env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	rendered := func(out *job.Outcome) []byte {
		var b bytes.Buffer
		if err := trace.WriteJSON(&b, out.Records); err != nil {
			t.Fatal(err)
		}
		b.Write(out.CSV)
		b.Write(out.Report)
		return b.Bytes()
	}
	want := make([][]byte, len(reqs))
	slots := 0
	for i := range reqs {
		if err := job.Normalize(&reqs[i]); err != nil {
			t.Fatal(err)
		}
		out := run(i, nil)
		want[i] = rendered(out)
		for _, rec := range out.Records {
			slots += len(rec.RTs)
		}
	}

	// Every job once grows the state's scratch to what the jobs use; then a
	// slab larger than all of them together, every slot the sentinel.
	series := new(core.Series)
	state := &core.RunState{Series: series}
	for i := range reqs {
		run(i, state)
		series.Reset()
	}
	series.Take(2 * slots)
	series.Reset()
	w := series.Take(2 * slots)[:2*slots]
	for i := range w {
		w[i] = 1 << 40
	}
	series.Reset()
	for _, i := range []int{0, 1, 2, 0, 1, 2} {
		poison(reflect.ValueOf(state), map[unsafe.Pointer]bool{})
		out := run(i, state)
		if got := rendered(out); !bytes.Equal(got, want[i]) {
			t.Fatalf("%s job on a poisoned RunState renders %d bytes that differ from the %d without one", reqs[i].Kind, len(got), len(want[i]))
		}
		lo, hi := uintptr(unsafe.Pointer(&w[0])), uintptr(unsafe.Pointer(&w[len(w)-1]))
		for _, rec := range out.Records {
			if at := uintptr(unsafe.Pointer(&rec.RTs[0])); at < lo || at > hi {
				t.Fatalf("%s job: the series of %s is not in the Series' slab", reqs[i].Kind, rec.ID)
			}
		}
		series.Reset()
	}
}

// poison overwrites every number, bool and string reachable from v, through
// pointers, interfaces and unexported fields and every slice to its
// capacity, with a sentinel; it leaves a core.Series and sync values alone.
func poison(v reflect.Value, seen map[unsafe.Pointer]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.UnsafePointer()] {
			seen[v.UnsafePointer()] = true
			poison(v.Elem(), seen)
		}
		return
	case reflect.Interface:
		if !v.IsNil() {
			poison(v.Elem(), seen)
		}
		return
	case reflect.Struct:
		if v.Type() != reflect.TypeFor[core.Series]() && v.Type().PkgPath() != "sync" {
			for i := range v.NumField() {
				poison(v.Field(i), seen)
			}
		}
		return
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			poison(v.Index(i), seen)
		}
		return
	}
	if !v.CanAddr() {
		return
	}
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // settable, exported or not
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0x5a5a5a5a5a5a5a5a)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(0xa5a5a5a5a5a5a5a5)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("poison")
	}
}

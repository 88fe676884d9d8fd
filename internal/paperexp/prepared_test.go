package paperexp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/methodology"
	"uflip/internal/par"
	"uflip/internal/workload"
)

// TestPreparedJobsMatchLiveOnes runs plans and replays four at a time
// through one Prepared, over a cold store: every outcome and every plan's
// stages are those of a run that enforces live, except that every plan but
// the first job to prepare the device reports a cache hit; and afterwards
// the kept master still holds exactly its state file's state, for shards
// only ever copy it.
func TestPreparedJobsMatchLiveOnes(t *testing.T) {
	const key = "memoright"
	live := cacheTestConfig(t, false)
	kept := cacheTestConfig(t, true)
	kept.Prepared = new(Prepared)
	gen := workload.Spec{Kind: "zipf", Count: 600, Seed: live.Seed, TargetSize: live.Capacity / 2, ReadFraction: 0.5}

	var misses atomic.Int32
	// run is one job: a two-micro plan when i is even, a replay when odd. It
	// returns the outcome as JSON and the plan's stages as text.
	run := func(cfg Config, i int) ([]byte, string, error) {
		if i%2 == 1 {
			g, err := gen.Build()
			if err != nil {
				return nil, "", err
			}
			ops, err := g.Generate()
			if err != nil {
				return nil, "", err
			}
			res, err := workload.ReplaySource(context.Background(), workload.OpsSource(g.Name(), ops), ShardFactory(key, cfg), workload.Options{SegmentOps: 150, Workers: 2, Seed: cfg.Seed})
			if err != nil {
				return nil, "", err
			}
			blob, err := json.Marshal(res)
			return blob, "", err
		}
		var stages bytes.Buffer
		out, err := RunBenchmark(context.Background(), key, cfg, BenchmarkRequest{
			Micros: []string{"Order", "Locality"}, Workers: 2,
			Stages: Stages{
				EnforcingState: func(c int64) { fmt.Fprintln(&stages, "enforcing", c) },
				StateEnforced: func(at time.Duration, hit bool) {
					fmt.Fprintln(&stages, "enforced", at)
					if !hit {
						misses.Add(1)
					}
				},
				PhasesMeasured: func(p *methodology.PhaseReport) { fmt.Fprintf(&stages, "phases %+v\n", *p) },
				PauseMeasured:  func(p *methodology.PauseReport) { fmt.Fprintf(&stages, "pause %+v\n", *p) },
			},
		})
		if err != nil {
			return nil, "", err
		}
		blob, err := json.Marshal([]any{out.Phases, out.Pause, out.Plan, out.Results})
		return blob, stages.String(), err
	}
	wantPlan, wantStages, err := run(live, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantReplay, _, err := run(live, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := [2][]byte{wantPlan, wantReplay}
	misses.Store(0)
	got := make([][]byte, 8)
	stages := make([]string, len(got))
	if err := par.Each(context.Background(), len(got), 4, func(_ context.Context, _, i int) (err error) {
		got[i], stages[i], err = run(kept, i)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i%2]) {
			t.Fatalf("job %d: outcome differs from the live run", i)
		}
		if i%2 == 0 && stages[i] != wantStages {
			t.Fatalf("job %d: stages\n%s\nwant\n%s", i, stages[i], wantStages)
		}
	}

	if misses.Load() > 1 {
		t.Fatalf("%d plans report no cache hit: only the first to prepare the device may", misses.Load())
	}
	master, at, ok := kept.Prepared.Master(StateKey(key, kept))
	if !ok {
		t.Fatal("no kept master")
	}
	fresh, loadedAt, hit, err := PrepareCached(key, kept)
	if err != nil || !hit {
		t.Fatalf("state file: hit %v, %v", hit, err)
	}
	a, err := device.SnapshotDevice(master)
	if err != nil {
		t.Fatal(err)
	}
	b, err := device.SnapshotDevice(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if at != loadedAt || !reflect.DeepEqual(a, b) {
		t.Fatal("the kept master no longer holds its state file's state")
	}
	if fresh == master {
		t.Fatal("PrepareCached handed out the kept master")
	}
}

// TestPreparedBoundsCalibrations: plans that differ only in their IOCount
// share the kept device, and it keeps the last keptDevices calibrations.
func TestPreparedBoundsCalibrations(t *testing.T) {
	const key = "mtron"
	cfg := cacheTestConfig(t, true)
	cfg.Prepared = new(Prepared)
	counts := make([]int, keptDevices+1)
	for i := range counts {
		counts[i] = 64 + 16*i
		c := cfg
		c.IOCount = counts[i]
		if _, err := RunBenchmark(context.Background(), key, c, BenchmarkRequest{Micros: []string{"Order"}, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sk := StateKey(key, cfg)
	master, _, ok := cfg.Prepared.Master(sk)
	if !ok {
		t.Fatal("no kept master")
	}
	if n := len(cfg.Prepared.devices); n != 1 {
		t.Fatalf("%d devices kept for one state key", n)
	}
	for i, n := range counts {
		c := cfg
		c.IOCount = n
		_, _, ok := cfg.Prepared.Calibration(sk, c.defaults(master.Capacity()))
		if ok != (i > 0) {
			t.Fatalf("IOCount %d: calibration kept %v after %d plans", n, ok, len(counts))
		}
	}
}

// TestKeptPlanRunsInConcurrentJobs: once a plan is kept, two jobs running it
// at once, each on a run state of its own, run that very plan and give the
// outcome of the job that built it — for nothing mutates a kept plan.
func TestKeptPlanRunsInConcurrentJobs(t *testing.T) {
	const key = "memoright"
	cfg := cacheTestConfig(t, true)
	cfg.Prepared = new(Prepared)
	req := BenchmarkRequest{Micros: []string{"Order", "Locality"}, Workers: 2}
	outcome := func(out *BenchmarkOutcome) []byte {
		blob, err := json.Marshal([]any{out.Micros, out.Phases, out.Pause, out.Plan, out.Results})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	first, err := RunBenchmark(context.Background(), key, cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	want := outcome(first)
	sk := StateKey(key, cfg)
	master, _, _ := cfg.Prepared.Master(sk)
	bp, ok := cfg.Prepared.plan(sk, planKey{cfg.defaults(master.Capacity()), "Order,Locality"})
	if !ok || &bp.plan.Runs[0] != &first.Plan.Runs[0] {
		t.Fatal("the job that built the plan did not keep it")
	}
	got := make([]*BenchmarkOutcome, 2)
	if err := par.Each(context.Background(), len(got), len(got), func(_ context.Context, _, i int) (err error) {
		r := req
		r.State = &core.RunState{Series: new(core.Series)}
		got[i], err = RunBenchmark(context.Background(), key, cfg, r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, out := range got {
		if &out.Plan.Runs[0] != &bp.plan.Runs[0] {
			t.Errorf("job %d did not run the kept plan", i)
		}
		if !bytes.Equal(outcome(out), want) {
			t.Errorf("job %d on the kept plan: outcome differs from the job that built it", i)
		}
	}
}

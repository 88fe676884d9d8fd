package paperexp

// This file is the fault-injection differential oracle. Two properties make
// the faulty device layer trustworthy as an experiment variable:
//
//  1. Zero-rate wrapping is free: faulty(X) with no fault options is
//     byte-identical to raw X — over the nine-micro-benchmark plan, every
//     workload generator and a mirror array sweep, at 1 and 4 workers.
//  2. Armed schedules are deterministic: the same spec and seed produce
//     identical results — injected faults, retries and all — at any engine
//     worker count.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// TestFaultyZeroRatePlanDifferential: the unarmed wrapper forwards verbatim,
// so a full plan through faulty(memoright) must reproduce raw memoright byte
// for byte, sequentially and in parallel, with zero faults reported.
func TestFaultyZeroRatePlanDifferential(t *testing.T) {
	const raw = "memoright"
	const wrapped = "faulty(memoright)"
	cfg := cacheTestConfig(t, false)
	plan := fullPlan(cfg, cfg.Capacity)
	plan.Device = raw

	ref := runPlanWith(t, raw, cfg, plan, 1)
	want := resultsCSV(t, ref)
	for _, tc := range []struct {
		name    string
		key     string
		workers int
	}{
		{"wrapped sequential", wrapped, 1},
		{"wrapped parallel", wrapped, 4},
	} {
		if got := resultsCSV(t, runPlanWith(t, tc.key, cfg, plan, tc.workers)); !bytes.Equal(got, want) {
			t.Errorf("%s: CSV diverges from the raw sequential run", tc.name)
		}
	}
	for _, rec := range Records(ref) {
		if rec.Faults != 0 || rec.Retries != 0 {
			t.Fatalf("run %s reports %d faults / %d retries on a fault-free device", rec.ID, rec.Faults, rec.Retries)
		}
	}
}

// TestFaultyArmedPlanDeterministic: an armed schedule over the full plan is a
// pure function of (spec, seed) — the summary CSV, fault and retry counts
// included, is byte-identical at any worker count, and the schedule actually
// fires.
func TestFaultyArmedPlanDeterministic(t *testing.T) {
	const spec = "faulty(memoright,readerr=2e-3,writeerr=2e-3,spike=200us@0.05,stall=100us@0.05,seed=7)"
	cfg := cacheTestConfig(t, false)
	plan := fullPlan(cfg, cfg.Capacity)
	plan.Device = spec

	run := func(workers int) ([]trace.RunRecord, []byte) {
		t.Helper()
		recs := Records(runPlanWith(t, spec, cfg, plan, workers))
		var buf bytes.Buffer
		if err := trace.WriteSummaryCSV(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return recs, buf.Bytes()
	}
	recs, want := run(1)
	if _, got := run(4); !bytes.Equal(got, want) {
		t.Error("armed plan CSV differs between 1 and 4 workers")
	}
	var faults, retries int64
	for _, r := range recs {
		faults += r.Faults
		retries += r.Retries
	}
	if faults == 0 || retries == 0 {
		t.Fatalf("armed plan observed %d faults and %d retries; the schedule never fired", faults, retries)
	}
}

// faultyDiffGenerators is the four-generator set the workload oracle sweeps.
func faultyDiffGenerators() []workload.Generator {
	const target = int64(12 << 20)
	return []workload.Generator{
		workload.OLTP{PageSize: 8192, TargetSize: target, ReadFraction: 0.7, Count: 400, Seed: 7},
		workload.Zipfian{PageSize: 8192, TargetSize: target, S: 1.2, ReadFraction: 0.5, Count: 400, Seed: 7},
		workload.LogAppend{Streams: 4, IOSize: 32 * 1024, TargetSize: target, Count: 300},
		workload.Bursty{
			Inner:    workload.OLTP{PageSize: 4096, TargetSize: target, ReadFraction: 0.3, Count: 300, Seed: 9},
			BurstOps: 32, Gap: 50 * time.Millisecond,
		},
	}
}

// TestFaultyZeroRateWorkloadDifferential extends the zero-rate oracle to all
// four workload generators: replays through faulty(kingston-dti) must match
// raw kingston-dti at 1 and 4 workers. The device name (echoed at the result
// and segment level) is the one field the wrapper legitimately changes, so it
// is blanked before comparing.
func TestFaultyZeroRateWorkloadDifferential(t *testing.T) {
	const raw = "kingston-dti"
	const wrapped = "faulty(kingston-dti)"
	cfg := cacheTestConfig(t, false)
	run := func(gen workload.Generator, key string, workers int) []byte {
		t.Helper()
		res, err := workload.ReplaySource(context.Background(), generated(t, gen), ShardFactory(key, cfg),
			workload.Options{SegmentOps: 100, Workers: workers, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		res.Device = ""
		for _, seg := range res.Segments {
			seg.Device = ""
		}
		return marshal(t, res)
	}
	for _, gen := range faultyDiffGenerators() {
		want := run(gen, raw, 1)
		if got := run(gen, wrapped, 1); !bytes.Equal(got, want) {
			t.Errorf("%s: wrapped sequential replay diverges from raw", gen.Name())
		}
		if got := run(gen, wrapped, 4); !bytes.Equal(got, want) {
			t.Errorf("%s: wrapped parallel replay diverges from raw", gen.Name())
		}
	}
}

// TestFaultyArmedWorkloadDeterministic: armed replays are reproducible at any
// worker count and actually ride out injected faults via retries.
func TestFaultyArmedWorkloadDeterministic(t *testing.T) {
	const spec = "faulty(kingston-dti,readerr=2e-2,writeerr=2e-2,seed=11)"
	cfg := cacheTestConfig(t, false)
	gen := faultyDiffGenerators()[0]
	run := func(workers int) *workload.Result {
		t.Helper()
		res, err := workload.ReplaySource(context.Background(), generated(t, gen), ShardFactory(spec, cfg),
			workload.Options{SegmentOps: 100, Workers: workers, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	if !bytes.Equal(marshal(t, seq), marshal(t, run(4))) {
		t.Error("armed workload replay differs between 1 and 4 workers")
	}
	if seq.Faults.Faults == 0 || seq.Faults.Retries == 0 {
		t.Fatalf("armed replay observed %+v; the schedule never fired", seq.Faults)
	}
}

// TestFaultyZeroRateArraySweepDifferential: a mirror sweep whose member is
// wrapped in a zero-rate faulty must reproduce the raw-member grid at 1 and
// 4 workers. The spec string is the one field that legitimately differs.
func TestFaultyZeroRateArraySweepDifferential(t *testing.T) {
	cfg := cacheTestConfig(t, false)
	cfg.Capacity = 12 << 20 // per member
	run := func(member string, workers int) []byte {
		t.Helper()
		rows, err := ArraySweep(context.Background(), cfg, ArrayConfig{
			Member:      member,
			Layouts:     []device.Layout{device.LayoutMirror},
			Counts:      []int{1, 2},
			QueueDepths: []int{2},
			Degree:      2,
			Workers:     workers,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			rows[i].Spec = ""
		}
		return marshal(t, rows)
	}
	want := run("mtron", 1)
	if got := run("faulty(mtron)", 1); !bytes.Equal(got, want) {
		t.Error("wrapped-member sequential sweep diverges from the raw-member grid")
	}
	if got := run("faulty(mtron)", 4); !bytes.Equal(got, want) {
		t.Error("wrapped-member parallel sweep diverges from the raw-member grid")
	}
	if seq, par := run("faulty(mtron,readerr=1e-3,seed=3)", 1), run("faulty(mtron,readerr=1e-3,seed=3)", 4); !bytes.Equal(seq, par) {
		t.Error("armed-member sweep differs between 1 and 4 workers")
	}
}

package paperexp

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/workload"
)

// buildRawAndSingles builds the raw member device plus one single-member
// composite per layout, all named like the raw device so their runs are
// byte-comparable, all at the same capacity.
func buildRawAndSingles(t *testing.T, key string, capacity int64) (device.Device, map[string]device.Device) {
	t.Helper()
	p, err := profile.ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := p.BuildWithCapacity(capacity)
	if err != nil {
		t.Fatal(err)
	}
	comps := make(map[string]device.Device)
	for _, layout := range []device.Layout{device.LayoutStripe, device.LayoutMirror, device.LayoutConcat} {
		member, err := p.BuildWithCapacity(capacity)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := device.NewComposite(device.CompositeConfig{
			Name:   raw.Name(), // same reported name, so runs compare byte-identically
			Layout: layout,
		}, []device.Device{member})
		if err != nil {
			t.Fatal(err)
		}
		if comp.Capacity() != raw.Capacity() {
			t.Fatalf("%s(1) capacity %d != raw %d", layout, comp.Capacity(), raw.Capacity())
		}
		comps[layout.String()] = comp
	}
	return raw, comps
}

// TestSingleMemberCompositeDifferentialMicrobenchmarks is the differential
// oracle of the composite layer: a 1-member stripe, mirror or concat must
// produce byte-identical Run results (ops, response times, summary stats) to
// the raw member device across the full nine-micro-benchmark plan. The plan
// is walked serially on one device, re-enforcing the state at each reset,
// so composite state carried from run to run is compared too.
func TestSingleMemberCompositeDifferentialMicrobenchmarks(t *testing.T) {
	const capacity = 24 << 20
	cfg := DefaultConfig()
	cfg.Capacity = capacity
	cfg.IOCount = 64
	cfg.Pause = time.Second

	run := func(dev device.Device) []byte {
		t.Helper()
		end, err := methodology.EnforceRandomState(dev, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		d := cfg.defaults(dev.Capacity())
		var exps []core.Experiment
		for _, mb := range core.AllMicrobenchmarks(d, dev.Capacity()) {
			exps = append(exps, mb.Experiments...)
		}
		plan := methodology.BuildPlan(exps, dev.Capacity(), cfg.Pause, nil)
		var res []methodology.Result
		at := end + cfg.Pause
		seqWrites, resets := 0, 0
		for i, e := range plan.Runs {
			// BuildPlan restarts the sequential-write allocation at offset 0
			// exactly where one device walking the plan needs a state reset.
			if e.Pattern.Mode == device.Write && e.Pattern.LBA != core.Random ||
				e.MixWith != nil && e.MixWith.Mode == device.Write && e.MixWith.LBA != core.Random {
				if seqWrites > 0 && e.Pattern.TargetOffset == 0 {
					end, err := methodology.EnforceRandomState(dev, cfg.Seed+int64(i))
					if err != nil {
						t.Fatal(err)
					}
					at = max(at, end)
					resets++
				}
				seqWrites++
			}
			r, err := e.Run(dev, at)
			if err != nil {
				t.Fatalf("%s: %v", e.ID(), err)
			}
			res = append(res, methodology.Result{Exp: e, Run: r})
			at += r.Total + cfg.Pause
		}
		if resets != plan.Resets {
			t.Fatalf("re-enforced %d times for %d planned resets", resets, plan.Resets)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	raw, comps := buildRawAndSingles(t, "mtron", capacity)
	want := run(raw)
	for layout, comp := range comps {
		if got := run(comp); !bytes.Equal(got, want) {
			t.Errorf("1-member %s diverges from the raw device over the micro-benchmark plan", layout)
		}
	}
}

// TestSingleMemberCompositeDifferentialWorkloads extends the differential
// oracle to the workload generators: replaying the same synthetic streams
// must yield byte-identical runs on the raw device and on every 1-member
// composite.
func TestSingleMemberCompositeDifferentialWorkloads(t *testing.T) {
	const capacity = 16 << 20
	target := int64(capacity / 2)
	gens := []workload.Generator{
		workload.OLTP{PageSize: 8192, TargetSize: target, ReadFraction: 0.7, Count: 600, Seed: 7},
		workload.Zipfian{PageSize: 8192, TargetSize: target, S: 1.2, ReadFraction: 0.5, Count: 600, Seed: 7},
		workload.LogAppend{Streams: 4, IOSize: 32 * 1024, TargetSize: target, Count: 400},
		workload.Bursty{
			Inner:    workload.OLTP{PageSize: 4096, TargetSize: target, ReadFraction: 0.3, Count: 400, Seed: 9},
			BurstOps: 32, Gap: 50 * time.Millisecond,
		},
	}
	raw, comps := buildRawAndSingles(t, "memoright", capacity)
	for _, gen := range gens {
		ops, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		wantRun, err := replayOn(raw, ops, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(wantRun)
		if err != nil {
			t.Fatal(err)
		}
		for layout, comp := range comps {
			gotRun, err := replayOn(comp, ops, 0)
			if err != nil {
				t.Fatalf("%s on %s: %v", gen.Name(), layout, err)
			}
			got, err := json.Marshal(gotRun)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("workload %s diverges on 1-member %s", gen.Name(), layout)
			}
		}
	}
}

// TestArraySweepParallelDeterminism pins the acceptance property of the
// array scenario sweep: the full grid is byte-identical for any worker
// count (the clone-based master path included).
func TestArraySweepParallelDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 8 << 20
	cfg.IOCount = 64
	cfg.Pause = time.Second
	ac := ArrayConfig{
		Member:      "mtron",
		Counts:      []int{1, 2},
		QueueDepths: []int{1, 4},
		Degree:      4,
	}
	var blobs [][]byte
	for _, workers := range []int{1, 3} {
		ac.Workers = workers
		rows, err := ArraySweep(context.Background(), cfg, ac, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := len(ac.Counts) * len(ac.QueueDepths) * 3; len(rows) != want {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), want)
		}
		blob, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("array sweep diverges between worker counts")
	}
}

// TestArrayPlanCloneVsRebuild extends the PR 3 clone oracle to composites:
// executing a plan against an array through the snapshotting master factory
// is byte-identical to rebuilding and re-enforcing the whole array per
// shard.
func TestArrayPlanCloneVsRebuild(t *testing.T) {
	const spec = "stripe(2,mtron,mtron)"
	cfg := DefaultConfig()
	cfg.Capacity = 8 << 20
	cfg.Pause = time.Second

	probe, err := profile.BuildDevice(spec, cfg.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	d := core.StandardDefaults()
	d.IOCount = 96
	d.Seed = cfg.Seed
	d.RandomTarget = probe.Capacity() / 2
	var exps []core.Experiment
	for _, b := range core.Baselines {
		exps = append(exps, core.Experiment{
			Micro: "clonepin", Base: b, Param: "IOSize", Value: d.IOSize, Pattern: b.Pattern(d),
		})
	}
	plan := methodology.BuildPlan(exps, probe.Capacity(), cfg.Pause, nil)
	plan.Device = spec

	var blobs [][]byte
	for _, workers := range []int{1, 3} {
		for _, factory := range []engine.DeviceFactory{
			ShardFactory(spec, cfg),
			RebuildShardFactory(spec, cfg),
		} {
			res, err := engine.ExecutePlan(context.Background(), plan, factory, engine.Options{
				Workers: workers,
				Seed:    cfg.Seed,
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
	}
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Fatalf("array plan results diverge between clone and rebuild factories (blob %d)", i)
		}
	}
}

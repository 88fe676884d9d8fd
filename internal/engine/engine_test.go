package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
)

const testCapacity = 32 << 20

// testPlan builds a small but representative plan: the four baselines at two
// IO sizes, so it contains both state-preserving and sequential-write runs
// and BuildPlan lays out disjoint target spaces.
func testPlan(t testing.TB) methodology.Plan {
	t.Helper()
	d := core.StandardDefaults()
	d.IOCount = 192
	d.RandomTarget = testCapacity / 2
	var exps []core.Experiment
	for _, sz := range []int64{16 * 1024, 32 * 1024} {
		dd := d
		dd.IOSize = sz
		for _, b := range core.Baselines {
			p := b.Pattern(dd)
			exps = append(exps, core.Experiment{
				Micro: "enginetest", Base: b, Param: "IOSize", Value: sz, Pattern: p,
			})
		}
	}
	return methodology.BuildPlan(exps, testCapacity, time.Second, nil)
}

// testFactory builds a fresh Memoright-profile device per shard with the
// shard-seeded random state enforced, mirroring production use.
func testFactory(t testing.TB) engine.DeviceFactory {
	t.Helper()
	prof, err := profile.ByKey("memoright")
	if err != nil {
		t.Fatal(err)
	}
	return func(s engine.Shard) (device.Device, time.Duration, error) {
		dev, err := prof.BuildWithCapacity(testCapacity)
		if err != nil {
			return nil, 0, err
		}
		end, err := methodology.EnforceRandomState(dev, s.Seed)
		if err != nil {
			return nil, 0, err
		}
		return dev, end + time.Second, nil
	}
}

// TestDeterministicMerge is the engine's core guarantee: the same plan and
// seed produce byte-identical merged results regardless of the worker count,
// because sharding, per-shard seeds and merge order depend only on the plan.
func TestDeterministicMerge(t *testing.T) {
	plan := testPlan(t)
	var blobs [][]byte
	for _, workers := range []int{1, 2, 8} {
		res, err := engine.ExecutePlan(context.Background(), plan, testFactory(t), engine.Options{
			Workers: workers,
			Seed:    42,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Results) != 8 {
			t.Fatalf("workers=%d: got %d results, want 8", workers, len(res.Results))
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) || !bytes.Equal(blobs[0], blobs[2]) {
		t.Fatal("merged results differ across worker counts")
	}
}

// TestMergeOrder checks results come back in plan order, not completion
// order, that progress covers every run exactly once, and that the merged
// results answer Find.
func TestMergeOrder(t *testing.T) {
	plan := testPlan(t)
	var wantIDs []string
	for _, step := range plan.Steps {
		if step.Kind == methodology.StepRun {
			e := step.Exp
			wantIDs = append(wantIDs, e.ID())
		}
	}
	calls := 0
	res, err := engine.ExecutePlan(context.Background(), plan, testFactory(t), engine.Options{
		Workers: 4,
		Seed:    42,
		Progress: func(done, total int, desc string) {
			calls++
			if done != calls || total != len(wantIDs) {
				t.Errorf("progress (%d,%d), want (%d,%d)", done, total, calls, len(wantIDs))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(wantIDs) {
		t.Fatalf("progress called %d times, want %d", calls, len(wantIDs))
	}
	for i, r := range res.Results {
		if r.Exp.ID() != wantIDs[i] {
			t.Fatalf("result %d is %s, want %s", i, r.Exp.ID(), wantIDs[i])
		}
	}
	if res.Elapsed <= 0 {
		t.Fatal("merged Elapsed not set")
	}
	if r := res.Find("enginetest", core.SW, 32*1024); r == nil || r.Exp.ID() != "enginetest/SW/IOSize=32768" {
		t.Fatalf("Find(SW, 32 KB) = %v", r)
	}
	if res.Find("enginetest", core.SW, 12345) != nil {
		t.Fatal("Find matched a non-existent value")
	}
}

// TestCancellation cancels the context after the first completed run and
// expects ExecutePlan to stop promptly with ctx.Err() instead of finishing
// the plan.
func TestCancellation(t *testing.T) {
	plan := testPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := engine.ExecutePlan(ctx, plan, testFactory(t), engine.Options{
		Workers: 2,
		Seed:    42,
		Progress: func(done, total int, desc string) {
			if done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned partial results")
	}

	// A context cancelled before the first run never touches the factory.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	_, err = engine.ExecutePlan(pre, plan, func(engine.Shard) (device.Device, time.Duration, error) {
		t.Fatal("factory called under cancelled context")
		return nil, 0, nil
	}, engine.Options{Workers: 1, Seed: 42})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}

// TestFactoryError propagates a shard factory failure as the engine error.
func TestFactoryError(t *testing.T) {
	plan := testPlan(t)
	boom := errors.New("boom")
	_, err := engine.ExecutePlan(context.Background(), plan, func(engine.Shard) (device.Device, time.Duration, error) {
		return nil, 0, boom
	}, engine.Options{Workers: 4, Seed: 42})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestPartition checks the partition: one shard per run with reset steps
// skipped, shard i running the plan's run i, and seeds a pure function of
// (base seed, shard index).
func TestPartition(t *testing.T) {
	exp := func(name string) methodology.Step {
		d := core.StandardDefaults()
		p := core.SR.Pattern(d)
		p.Name = name
		return methodology.Step{Kind: methodology.StepRun, Exp: core.Experiment{Micro: name, Pattern: p}}
	}
	reset := methodology.Step{Kind: methodology.StepReset}
	plan := methodology.Plan{Steps: []methodology.Step{
		exp("a"), exp("b"), exp("c"), reset, exp("d"), exp("e"),
	}, Resets: 1}

	runs := plan.Runs()
	wantMicros := []string{"a", "b", "c", "d", "e"}
	if len(runs) != len(wantMicros) {
		t.Fatalf("got %d runs, want %d", len(runs), len(wantMicros))
	}
	for i, e := range runs {
		if e.Micro != wantMicros[i] {
			t.Fatalf("run %d is %s, want %s", i, e.Micro, wantMicros[i])
		}
	}
	shards := engine.Partition(len(runs), 7)
	if len(shards) != len(runs) {
		t.Fatalf("got %d shards for %d runs", len(shards), len(runs))
	}
	for i, s := range shards {
		if s.Index != i {
			t.Errorf("shard %d: Index=%d", i, s.Index)
		}
	}

	again := engine.Partition(len(runs), 7)
	for i := range shards {
		if shards[i].Seed != again[i].Seed {
			t.Fatal("shard seeds are not deterministic")
		}
	}
	other := engine.Partition(len(runs), 8)
	if shards[0].Seed == other[0].Seed {
		t.Fatal("different base seeds produced identical shard seeds")
	}
	seen := map[int64]bool{}
	for _, s := range shards {
		if seen[s.Seed] {
			t.Fatal("duplicate seed across shards")
		}
		seen[s.Seed] = true
	}
}

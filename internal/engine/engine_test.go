package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
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
	for _, e := range plan.Runs {
		wantIDs = append(wantIDs, e.ID())
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

// TestShards checks the shards ExecuteJobs hands its factory, at one worker
// and at four: shard i runs job i, a recycled device is one an earlier shard
// ran on, and seeds are a pure function of (base seed, shard index) —
// deterministic, distinct across shards and dependent on the base seed.
func TestShards(t *testing.T) {
	const n = 9
	record := func(workers int, seed int64) []engine.Shard {
		t.Helper()
		shards := make([]engine.Shard, n)
		jobs := make([]engine.Job, n)
		for i := range jobs {
			jobs[i] = engine.Job{ID: fmt.Sprint(i), Run: func(_ context.Context, dev device.Device, _ time.Duration) (*core.Run, error) {
				if dev.Name() != fmt.Sprint(i) {
					return nil, fmt.Errorf("job %d ran on the device of shard %s", i, dev.Name())
				}
				return &core.Run{}, nil
			}}
		}
		factory := func(s engine.Shard) (device.Device, time.Duration, error) {
			shards[s.Index] = s
			return device.NewMemDevice(fmt.Sprint(s.Index), 1<<20, 0, 0), 0, nil
		}
		if _, err := engine.ExecuteJobs(context.Background(), jobs, factory, engine.Options{Workers: workers, Seed: seed}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, s := range shards {
			if s.Index != i {
				t.Fatalf("workers=%d: shard %d never built", workers, i)
			}
			if s.Reuse != nil {
				if prev, _ := strconv.Atoi(s.Reuse.Name()); prev >= i {
					t.Fatalf("workers=%d: shard %d offered the device of shard %d", workers, i, prev)
				}
			}
			if workers == 1 && i > 0 && (s.Reuse == nil || s.Reuse.Name() != fmt.Sprint(i-1)) {
				t.Fatalf("one worker: shard %d not offered shard %d's device", i, i-1)
			}
		}
		return shards
	}
	one, four := record(1, 7), record(4, 7)
	seen := map[int64]bool{}
	for i := range one {
		if one[i].Seed != four[i].Seed {
			t.Fatal("shard seeds depend on the worker count")
		}
		if seen[one[i].Seed] {
			t.Fatal("duplicate seed across shards")
		}
		seen[one[i].Seed] = true
	}
	if again := record(1, 7); again[n-1].Seed != one[n-1].Seed {
		t.Fatal("shard seeds are not deterministic")
	}
	if other := record(4, 8); other[0].Seed == one[0].Seed {
		t.Fatal("different base seeds produced identical shard seeds")
	}
}

// TestOneWorkerStartsNoGoroutine pins the one-worker case of the claim
// loop: the jobs run in index order on the calling goroutine, and no
// goroutine is started for them.
func TestOneWorkerStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	jobs := make([]engine.Job, 6)
	for i := range jobs {
		jobs[i] = engine.Job{ID: fmt.Sprint(i), Run: func(context.Context, device.Device, time.Duration) (*core.Run, error) {
			if n := runtime.NumGoroutine(); n != before {
				return nil, fmt.Errorf("job %d: %d goroutines, %d before ExecuteJobs", i, n, before)
			}
			order = append(order, i)
			return &core.Run{}, nil
		}}
	}
	mem := device.NewMemDevice("mem", 1<<20, 0, 0)
	factory := func(engine.Shard) (device.Device, time.Duration, error) { return mem, 0, nil }
	if _, err := engine.ExecuteJobs(context.Background(), jobs, factory, engine.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("jobs ran in order %v", order)
	}
}

// TestExecuteEachWorkerOwnsItsIndex: the worker index a job receives is
// below WorkerCount, and no two jobs run on one index at once, so a slice
// indexed by it holds scratch no other job touches. Under -race a shared
// slot would also be reported.
func TestExecuteEachWorkerOwnsItsIndex(t *testing.T) {
	const n = 64
	mem := device.NewMemDevice("mem", 1<<20, 0, 0)
	factory := func(engine.Shard) (device.Device, time.Duration, error) { return mem, 0, nil }
	for _, workers := range []int{1, 2, 4} {
		opts := engine.Options{Workers: workers}
		busy := make([]bool, opts.WorkerCount(n)) // per worker: set while one of its jobs runs
		runs := make([]int, len(busy))
		_, err := engine.ExecuteEach(context.Background(), n, strconv.Itoa,
			func(_ context.Context, w, i int, _ device.Device, _ time.Duration) (*core.Run, error) {
				if busy[w] {
					return nil, fmt.Errorf("job %d: worker %d already runs a job", i, w)
				}
				busy[w] = true
				runtime.Gosched()
				runs[w]++
				busy[w] = false
				return &core.Run{}, nil
			}, factory, opts)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		total := 0
		for _, r := range runs {
			total += r
		}
		if len(busy) != min(workers, n) || total != n {
			t.Fatalf("%d workers: %d worker slots ran %d jobs, want %d slots and %d jobs", workers, len(busy), total, min(workers, n), n)
		}
	}
}

package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
)

// masterBuild returns a master build function over the memoright profile
// that counts how many times the device is actually built and enforced.
func masterBuild(t testing.TB, builds *int) func() (device.Cloneable, time.Duration, error) {
	t.Helper()
	prof, err := profile.ByKey("memoright")
	if err != nil {
		t.Fatal(err)
	}
	return func() (device.Cloneable, time.Duration, error) {
		*builds++
		dev, err := prof.BuildWithCapacity(testCapacity)
		if err != nil {
			return nil, 0, err
		}
		end, err := methodology.EnforceRandomState(dev, 42)
		if err != nil {
			return nil, 0, err
		}
		return dev, end + time.Second, nil
	}
}

// TestMasterBuildsOnce runs a full plan through a cloning factory and checks
// the master device is built and enforced exactly once, no matter how many
// shards and workers consume clones.
func TestMasterBuildsOnce(t *testing.T) {
	plan := testPlan(t)
	builds := 0
	res, err := engine.ExecutePlan(context.Background(), plan,
		engine.CloningFactory(masterBuild(t, &builds)),
		engine.Options{Workers: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 8 {
		t.Fatalf("got %d results, want 8", len(res.Results))
	}
	if builds != 1 {
		t.Fatalf("master built %d times, want 1", builds)
	}
}

// TestMasterCloneVsRebuildIdentical is the snapshot subsystem's end-to-end
// oracle at the engine level: executing the same plan with per-shard clones
// of one enforced master yields byte-identical merged results to rebuilding
// and re-enforcing a device per shard with the same seed — for any worker
// count.
func TestMasterCloneVsRebuildIdentical(t *testing.T) {
	plan := testPlan(t)
	prof, err := profile.ByKey("memoright")
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(engine.Shard) (device.Device, time.Duration, error) {
		dev, err := prof.BuildWithCapacity(testCapacity)
		if err != nil {
			return nil, 0, err
		}
		end, err := methodology.EnforceRandomState(dev, 42)
		if err != nil {
			return nil, 0, err
		}
		return dev, end + time.Second, nil
	}
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		builds := 0
		clone := engine.CloningFactory(masterBuild(t, &builds))
		for _, factory := range []engine.DeviceFactory{rebuild, clone} {
			res, err := engine.ExecutePlan(context.Background(), plan, factory, engine.Options{
				Workers: workers,
				Seed:    42,
			})
			if err != nil {
				t.Fatal(err)
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
			t.Fatalf("clone-based results diverge from rebuild path (blob %d)", i)
		}
	}
}

// TestMasterPropagatesBuildError checks a failing build surfaces as the
// engine error and is not retried per shard.
func TestMasterPropagatesBuildError(t *testing.T) {
	plan := testPlan(t)
	boom := errors.New("boom")
	builds := 0
	_, err := engine.ExecutePlan(context.Background(), plan,
		engine.CloningFactory(func() (device.Cloneable, time.Duration, error) {
			builds++
			return nil, 0, boom
		}),
		engine.Options{Workers: 4, Seed: 42})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if builds != 1 {
		t.Fatalf("failing build ran %d times, want 1 (cached)", builds)
	}
}

// TestMasterConcurrentClones has one goroutine per CPU clone the master at
// once, the first of them racing to build it: the build must still run once,
// and — cloning only reads the master, outside any lock — every clone must
// be a full independent copy that services the same IOs at the same times.
// Run under -race this is the check that the deep copy is free of writes to
// the shared master.
func TestMasterConcurrentClones(t *testing.T) {
	builds := 0
	m := engine.NewMaster(masterBuild(t, &builds))
	n := max(runtime.GOMAXPROCS(0), 4)
	ends := make([]time.Duration, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for round := 0; round < 3; round++ {
				dev, at, err := m.Clone()
				if err != nil {
					t.Error(err)
					return
				}
				// Mutate the clone while the others are still copying.
				for i := int64(0); i < 32; i++ {
					if at, err = dev.Submit(at, device.IO{Mode: device.Write, Off: i * 64 * 1024 % testCapacity, Size: 32 * 1024}); err != nil {
						t.Error(err)
						return
					}
				}
				if round == 0 {
					ends[g] = at
				} else if at != ends[g] {
					t.Errorf("goroutine %d: clone %d finished at %v, the first at %v", g, round, at, ends[g])
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("master built %d times, want 1", builds)
	}
	for g := 1; g < n; g++ {
		if ends[g] != ends[0] {
			t.Fatalf("clone of goroutine %d finished at %v, goroutine 0's at %v", g, ends[g], ends[0])
		}
	}
}

// countingDevice is a cloneable, resettable device that counts how often its
// family is cloned: the number of device stacks an execution allocates.
type countingDevice struct {
	device.Device // the simulated device doing the work
	clones        *atomic.Int64
}

func (c *countingDevice) CloneDevice() device.Device {
	c.clones.Add(1)
	return &countingDevice{Device: c.Device.(device.Cloneable).CloneDevice(), clones: c.clones}
}

func (c *countingDevice) ResetFrom(src device.Device) bool {
	s, ok := src.(*countingDevice)
	if !ok {
		return false
	}
	c.clones = s.clones
	return c.Device.(device.Resettable).ResetFrom(s.Device)
}

// TestShardDevicesAreRecycled pins what Shard.Reuse is for: over a master's
// factory an execution clones at most one device stack per worker, however
// many shards or jobs it runs — each worker resets its previous shard's
// device from the master in place — on both the plan and the stream
// executor, with merged results byte-identical for any worker count and to
// rebuilding and re-enforcing a device per shard.
func TestShardDevicesAreRecycled(t *testing.T) {
	plan, jobs := testPlan(t), testJobs(12)
	build := func() (device.Cloneable, time.Duration, error) {
		var builds int // masterBuild's counter is not for concurrent rebuilds
		return masterBuild(t, &builds)()
	}
	rebuild := func(engine.Shard) (device.Device, time.Duration, error) { return build() }
	execute := map[string]func(engine.DeviceFactory, int) (any, error){
		"plan": func(f engine.DeviceFactory, workers int) (any, error) {
			return engine.ExecutePlan(context.Background(), plan, f, engine.Options{Workers: workers, Seed: 42})
		},
		"jobs": func(f engine.DeviceFactory, workers int) (any, error) {
			return engine.ExecuteJobs(context.Background(), jobs, f, engine.Options{Workers: workers, Seed: 42})
		},
	}
	for name, run := range execute {
		t.Run(name, func(t *testing.T) {
			res, err := run(rebuild, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				var clones atomic.Int64
				factory := engine.CloningFactory(func() (device.Cloneable, time.Duration, error) {
					dev, at, err := build()
					return &countingDevice{Device: dev, clones: &clones}, at, err
				})
				res, err := run(factory, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := json.Marshal(res); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: results over recycled devices differ from the rebuild path (err %v)", workers, err)
				}
				if n := clones.Load(); n < 1 || n > int64(workers) {
					t.Fatalf("workers=%d: %d device stacks cloned, want between 1 and %d", workers, n, workers)
				}
			}
		})
	}
}

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
)

// RebuildShardFactory is the clone-correctness oracle: every shard builds its
// own device and replays the whole state enforcement with cfg.Seed, the path
// ShardFactory's copied master state must reproduce byte for byte.
func RebuildShardFactory(key string, cfg Config) engine.DeviceFactory {
	return func(engine.Shard) (device.Device, time.Duration, error) {
		return Prepare(key, cfg)
	}
}

// TestPlanCloneVsRebuild pins the production factory's oracle: a plan through
// the snapshot-based ShardFactory returns merged results byte-identical to
// RebuildShardFactory (one full enforcement per shard, same seed), across
// worker counts.
func TestPlanCloneVsRebuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 24 << 20
	cfg.Pause = time.Second

	d := core.StandardDefaults()
	d.IOCount = 128
	d.Seed = cfg.Seed
	d.RandomTarget = cfg.Capacity / 2
	var exps []core.Experiment
	for _, b := range core.Baselines {
		exps = append(exps, core.Experiment{
			Micro: "clonepin", Base: b, Param: "IOSize", Value: d.IOSize, Pattern: b.Pattern(d),
		})
	}
	plan := methodology.BuildPlan(exps, cfg.Capacity, cfg.Pause, nil)
	plan.Device = "mtron"

	var blobs [][]byte
	for _, workers := range []int{1, 3} {
		for _, factory := range []struct {
			name string
			f    engine.DeviceFactory
		}{
			{"clone", ShardFactory("mtron", cfg)},
			{"rebuild", RebuildShardFactory("mtron", cfg)},
		} {
			res, err := engine.ExecutePlan(context.Background(), plan, factory.f, engine.Options{
				Workers: workers,
				Seed:    cfg.Seed,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", factory.name, workers, err)
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
			t.Fatalf("results diverge between clone and rebuild factories (blob %d)", i)
		}
	}
}

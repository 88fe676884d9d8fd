package paperexp

// This file is the batch-pipeline differential oracle: every executor now
// submits IOs through device.SubmitBatch, and these tests pin the batch path
// byte-identical to the serial per-IO reference (device.PerIO forces
// SerialSubmitBatch through any pipeline) — over the nine-micro-benchmark
// plan, all workload generators, trace replay, and stripe/mirror/concat
// arrays, sequentially and at 4 engine workers alike.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// perIOFactory builds a fresh device per shard and wraps it in device.PerIO
// BEFORE state enforcement, so every submission of the shard — enforcement
// IOs included — travels the serial one-IO-at-a-time reference path. Any
// divergence between SubmitBatch and Submit shows up as a byte difference
// against the batch-path factories.
func perIOFactory(key string, cfg Config) engine.DeviceFactory {
	return func(engine.Shard) (device.Device, time.Duration, error) {
		raw, err := profile.BuildDevice(key, cfg.Capacity)
		if err != nil {
			return nil, 0, err
		}
		dev := device.NewPerIO(raw)
		end, err := methodology.EnforceRandomState(dev, cfg.Seed)
		if err != nil {
			return nil, 0, err
		}
		return dev, end + cfg.Pause, nil
	}
}

// resultsCSV renders a plan's merged results in the repository's CSV formats
// (run summaries plus every per-IO response-time series) — the byte-level
// artifact the batch/per-IO equivalence is pinned on.
func resultsCSV(t *testing.T, res *methodology.Results) []byte {
	t.Helper()
	var records []trace.RunRecord
	for _, r := range res.Results {
		rec := trace.RunRecord{
			ID:           fmt.Sprintf("%s/%s/%s=%d", r.Exp.Micro, r.Exp.Base, r.Exp.Param, r.Exp.Value),
			Device:       res.Device,
			Micro:        r.Exp.Micro,
			Base:         r.Exp.Base.String(),
			Param:        r.Exp.Param,
			Value:        r.Exp.Value,
			IOIgnore:     r.Run.IOIgnore,
			Summary:      r.Run.Summary,
			TotalSeconds: r.Run.Total.Seconds(),
			RTs:          r.Run.RTs,
		}
		records = append(records, rec)
	}
	var buf bytes.Buffer
	if err := trace.WriteSummaryCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		if err := trace.WriteRTSeriesCSV(&buf, r.Run.RTs); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func planCSV(t *testing.T, key string, cfg Config, plan methodology.Plan, factory engine.DeviceFactory, workers int) []byte {
	t.Helper()
	res, err := engine.ExecutePlan(context.Background(), plan, factory, engine.Options{
		Workers: workers,
		Seed:    cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resultsCSV(t, res)
}

// TestBatchSubmitDifferentialPlan pins the batch pipeline over the full
// nine-micro-benchmark plan: the per-IO reference factory must produce
// byte-identical CSV at 1 and 4 workers, as must the batch path itself.
func TestBatchSubmitDifferentialPlan(t *testing.T) {
	const key = "memoright"
	cfg := cacheTestConfig(t, false)
	plan := fullPlan(cfg, cfg.Capacity)
	plan.Device = key

	want := planCSV(t, key, cfg, plan, RebuildShardFactory(key, cfg), 1)
	for _, tc := range []struct {
		name    string
		factory engine.DeviceFactory
		workers int
	}{
		{"per-IO sequential", perIOFactory(key, cfg), 1},
		{"per-IO parallel", perIOFactory(key, cfg), 4},
		{"batch parallel", RebuildShardFactory(key, cfg), 4},
	} {
		if got := planCSV(t, key, cfg, plan, tc.factory, tc.workers); !bytes.Equal(got, want) {
			t.Errorf("%s: CSV diverges from the batch sequential run", tc.name)
		}
	}
}

// TestBatchSubmitDifferentialArrays extends the plan oracle to composite
// devices: on stripe, mirror and concat arrays the batch path at 4 workers
// must match the per-IO reference run byte for byte.
func TestBatchSubmitDifferentialArrays(t *testing.T) {
	for _, spec := range []string{
		"stripe(2,memoright,memoright)",
		"mirror(2,mtron,mtron)",
		"concat(2,kingston-dti,kingston-dti)",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			cfg := cacheTestConfig(t, false)
			cfg.Capacity = 12 << 20 // per member
			dev, err := profile.BuildDevice(spec, cfg.Capacity)
			if err != nil {
				t.Fatal(err)
			}
			plan := fullPlan(cfg, dev.Capacity())
			plan.Device = spec
			want := planCSV(t, spec, cfg, plan, perIOFactory(spec, cfg), 1)
			if got := planCSV(t, spec, cfg, plan, RebuildShardFactory(spec, cfg), 4); !bytes.Equal(got, want) {
				t.Error("batch parallel run diverges from the per-IO sequential run")
			}
		})
	}
}

// replayOn replays ops on dev from virtual time at as one segment on the
// calling goroutine, and returns that segment's run.
func replayOn(dev device.Device, ops []workload.Op, at time.Duration) (*core.Run, error) {
	factory := func(engine.Shard) (device.Device, time.Duration, error) { return dev, at, nil }
	res, err := workload.ReplaySource(context.Background(), workload.OpsSource("replay", ops), factory, workload.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	return res.Segments[0], nil
}

// TestBatchSubmitDifferentialWorkloads pins the batch pipeline under every
// workload generator and under trace replay: open-loop batch submission must
// reproduce the per-IO reference exactly, enforcement included.
func TestBatchSubmitDifferentialWorkloads(t *testing.T) {
	const key = "memoright"
	const capacity = 16 << 20
	const seed = 7
	target := int64(capacity / 2)
	gens := []workload.Generator{
		workload.OLTP{PageSize: 8192, TargetSize: target, ReadFraction: 0.7, Count: 600, Seed: seed},
		workload.Zipfian{PageSize: 8192, TargetSize: target, S: 1.2, ReadFraction: 0.5, Count: 600, Seed: seed},
		workload.LogAppend{Streams: 4, IOSize: 32 * 1024, TargetSize: target, Count: 400},
		workload.Bursty{
			Inner:    workload.OLTP{PageSize: 4096, TargetSize: target, ReadFraction: 0.3, Count: 400, Seed: 9},
			BurstOps: 32, Gap: 50 * time.Millisecond,
		},
	}
	// Trace replay: a generated stream round-tripped through the on-disk
	// trace format, then replayed like a recorded block trace.
	ops, err := gens[0].Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "equiv.trace")
	if err := workload.SaveOps(path, ops); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.LoadOps(path)
	if err != nil {
		t.Fatal(err)
	}
	gens = append(gens, workload.Trace{Label: "equiv", Ops: loaded})

	replay := func(gen workload.Generator, perIO bool) []byte {
		t.Helper()
		var dev device.Device
		dev, err := profile.BuildDevice(key, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if perIO {
			dev = device.NewPerIO(dev)
		}
		end, err := methodology.EnforceRandomState(dev, seed)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		run, err := replayOn(dev, ops, end+time.Second)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, gen := range gens {
		want := replay(gen, true)
		if got := replay(gen, false); !bytes.Equal(got, want) {
			t.Errorf("%s: batch replay diverges from the per-IO replay", gen.Name())
		}
	}
}

package paperexp

// This file pins the batch pipeline's determinism: every executor submits
// IOs through device.SubmitBatch, and the nine-micro-benchmark plan renders
// byte-identical CSV at 1 and 4 engine workers — on one device and on
// stripe/mirror/concat arrays. (That one batch equals per-IO Submit is
// pinned at the device, by FuzzSubmitBatchEquivalence.)

import (
	"bytes"
	"context"
	"fmt"
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

// resultsCSV renders a plan's merged results in the repository's CSV formats
// (run summaries plus every per-IO response-time series) — the byte-level
// artifact the plan equivalences are pinned on.
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
// nine-micro-benchmark plan: 4 workers must produce byte-identical CSV to 1.
func TestBatchSubmitDifferentialPlan(t *testing.T) {
	const key = "memoright"
	cfg := cacheTestConfig(t, false)
	plan := fullPlan(cfg, cfg.Capacity)
	plan.Device = key

	want := planCSV(t, key, cfg, plan, RebuildShardFactory(key, cfg), 1)
	if got := planCSV(t, key, cfg, plan, RebuildShardFactory(key, cfg), 4); !bytes.Equal(got, want) {
		t.Error("batch parallel run diverges from the batch sequential run")
	}
}

// TestBatchSubmitDifferentialArrays extends the plan pin to composite
// devices: on stripe, mirror and concat arrays the batch path at 4 workers
// must match the sequential run byte for byte.
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
			want := planCSV(t, spec, cfg, plan, RebuildShardFactory(spec, cfg), 1)
			if got := planCSV(t, spec, cfg, plan, RebuildShardFactory(spec, cfg), 4); !bytes.Equal(got, want) {
				t.Error("batch parallel run diverges from the batch sequential run")
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

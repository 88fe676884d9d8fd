package methodology_test

import (
	"context"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
)

// TestRunPlanEndToEnd builds a plan from one micro-benchmark, runs it on a
// randomly enforced device through the engine and checks the results it
// hands back: one per run, findable by value, with the elapsed time set.
func TestRunPlanEndToEnd(t *testing.T) {
	p, err := profile.ByKey("transcend-module")
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 256 << 20
	d := core.StandardDefaults()
	d.IOCount = 128
	d.RandomTarget = capacity / 2
	exps := core.Table1[4].Build(d, capacity).Experiments // Order
	plan := methodology.BuildPlan(exps, capacity, time.Second, nil)
	factory := engine.CloningFactory(func() (device.Cloneable, time.Duration, error) {
		dev, err := p.BuildWithCapacity(capacity)
		if err != nil {
			return nil, 0, err
		}
		end, err := methodology.EnforceRandomState(dev, 4)
		if err != nil {
			return nil, 0, err
		}
		return dev, end + time.Second, nil
	})
	var progressed int
	res, err := engine.ExecutePlan(context.Background(), plan, factory, engine.Options{
		Workers:  4,
		Seed:     4,
		Progress: func(done, total int, desc string) { progressed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(exps) {
		t.Fatalf("results = %d, want %d", len(res.Results), len(exps))
	}
	if progressed != len(plan.Runs) {
		t.Fatalf("progress called %d times for %d runs", progressed, len(plan.Runs))
	}
	if res.Find("Order", core.SW, -1) == nil {
		t.Fatal("Find could not locate the reverse experiment")
	}
	if res.Find("Order", core.SW, 12345) != nil {
		t.Fatal("Find matched a non-existent value")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

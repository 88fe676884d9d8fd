package paperexp

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/report"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

func cacheTestConfig(t *testing.T, store bool) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Capacity = 24 << 20
	cfg.IOCount = 64
	cfg.Pause = time.Second
	if store {
		s, err := statestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = s
	}
	return cfg
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// fullPlan builds the nine-micro-benchmark plan at test scale.
func fullPlan(cfg Config, capacity int64) methodology.Plan {
	d := cfg.defaults(capacity)
	var exps []core.Experiment
	for _, mb := range core.AllMicrobenchmarks(d, capacity) {
		exps = append(exps, mb.Experiments...)
	}
	return methodology.BuildPlan(exps, capacity, cfg.Pause, nil)
}

// TestStateStoreDifferentialPlan is the store's differential oracle over the
// nine-micro-benchmark plan: a factory whose master loads the persisted
// state must produce results byte-identical to the live-enforcing factory,
// for sequential and parallel execution alike.
func TestStateStoreDifferentialPlan(t *testing.T) {
	const key = "memoright"
	live := cacheTestConfig(t, false)
	cached := cacheTestConfig(t, true)
	plan := fullPlan(live, live.Capacity)
	plan.Device = key

	want := marshal(t, runPlanWith(t, key, live, plan, 1))
	for _, tc := range []struct {
		name    string
		cfg     Config
		workers int
	}{
		{"cold store sequential", cached, 1}, // miss: enforce + save
		{"warm store sequential", cached, 1}, // hit: load from disk
		{"warm store parallel", cached, 4},
		{"live parallel", live, 4},
	} {
		if got := marshal(t, runPlanWith(t, key, tc.cfg, plan, tc.workers)); !bytes.Equal(got, want) {
			t.Fatalf("%s: results diverge from the live sequential run", tc.name)
		}
	}
}

func runPlanWith(t *testing.T, key string, cfg Config, plan methodology.Plan, workers int) *methodology.Results {
	t.Helper()
	res, err := engine.ExecutePlan(context.Background(), plan, ShardFactory(key, cfg), engine.Options{
		Workers: workers,
		Seed:    cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStateStoreDifferentialWorkload replays a synthetic workload through
// store-backed and live factories at several worker counts; every variant
// must merge to byte-identical results.
func TestStateStoreDifferentialWorkload(t *testing.T) {
	const key = "kingston-dti"
	live := cacheTestConfig(t, false)
	cached := cacheTestConfig(t, true)
	gen := workload.Spec{
		Kind: "zipf", Count: 600, Seed: live.Seed,
		TargetSize: live.Capacity / 2, ReadFraction: 0.5,
	}
	replay := func(cfg Config, workers int) []byte {
		g, err := gen.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := workload.Generate(context.Background(), g, ShardFactory(key, cfg), workload.Options{
			SegmentOps: 150,
			Workers:    workers,
			Seed:       cfg.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return marshal(t, res)
	}
	want := replay(live, 1)
	if got := replay(cached, 1); !bytes.Equal(got, want) {
		t.Fatal("cold store replay diverges from live replay")
	}
	if got := replay(cached, 4); !bytes.Equal(got, want) {
		t.Fatal("warm store parallel replay diverges from live replay")
	}
}

// TestStateStoreDifferentialArray runs a composite-array sweep with and
// without the store: the grids must match byte-for-byte, and the second
// store-backed sweep (all hits) too.
func TestStateStoreDifferentialArray(t *testing.T) {
	live := cacheTestConfig(t, false)
	live.Capacity = 16 << 20
	cached := cacheTestConfig(t, true)
	cached.Capacity = live.Capacity
	ac := ArrayConfig{
		Member:      "mtron",
		Counts:      []int{1, 2},
		QueueDepths: []int{2},
		Degree:      2,
		Workers:     2,
	}
	sweep := func(cfg Config) []byte {
		rows, err := ArraySweep(context.Background(), cfg, ac, nil)
		if err != nil {
			t.Fatal(err)
		}
		return marshal(t, rows)
	}
	want := sweep(live)
	if got := sweep(cached); !bytes.Equal(got, want) {
		t.Fatal("cold store sweep diverges from live sweep")
	}
	if got := sweep(cached); !bytes.Equal(got, want) {
		t.Fatal("warm store sweep diverges from live sweep")
	}
}

// TestRunBenchmarkRepeatIsByteIdenticalAndSkipsFill pins the acceptance
// criterion: a repeated benchmark with the state cache enabled must hit the
// cache (no enforcement replay) and produce byte-identical results — the
// records behind stdout tables, CSV and JSONL alike. And a job acquires its
// enforced state once: the state file is not needed again after StateEnforced
// (the plan's master is a copy of the device that was just loaded, not a
// second load), so a file deleted at that point neither fails the job,
// changes its results, nor comes back.
func TestRunBenchmarkRepeatIsByteIdenticalAndSkipsFill(t *testing.T) {
	const key = "mtron"
	cfg := cacheTestConfig(t, true)
	var hits []bool
	onEnforced := func() {}
	run := func() []byte {
		out, err := RunBenchmark(context.Background(), key, cfg, BenchmarkRequest{
			Micros:  []string{"Granularity", "Order"},
			Workers: 2,
			Stages: Stages{StateEnforced: func(_ time.Duration, hit bool) {
				hits = append(hits, hit)
				onEnforced()
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := trace.WriteSummaryCSV(&csv, Records(out.Results)); err != nil {
			t.Fatal(err)
		}
		var rep bytes.Buffer
		if err := report.PlanSection(&rep, out.Micros, out.Results, core.StandardDefaults().IOSize); err != nil {
			t.Fatal(err)
		}
		return append(csv.Bytes(), rep.Bytes()...)
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatal("second (cached) run is not byte-identical to the first")
	}
	if len(hits) != 2 || hits[0] || !hits[1] {
		t.Fatalf("cache hits = %v, want [false true]", hits)
	}
	stateFile := cfg.Store.Path(StateKey(key, cfg))
	onEnforced = func() {
		if err := os.Remove(stateFile); err != nil {
			t.Fatal(err)
		}
	}
	if third := run(); !bytes.Equal(third, first) {
		t.Fatal("run whose state file vanished after the load is not byte-identical to the first")
	}
	if _, err := os.Stat(stateFile); !os.IsNotExist(err) {
		t.Fatalf("state file is back after the job (stat: %v): the job acquired its state twice", err)
	}
}

// TestPrepareCachedSharedAcrossConfigsWithDifferentPause: the cache key
// excludes the pause, which is applied after load — two configs differing
// only in Pause share one state file.
func TestPrepareCachedSharedAcrossPauses(t *testing.T) {
	cfg := cacheTestConfig(t, true)
	if _, _, hit, err := PrepareCached("kingston-dti", cfg); err != nil || hit {
		t.Fatalf("first prepare: hit=%v err=%v", hit, err)
	}
	other := cfg
	other.Pause = 9 * time.Second
	dev, at, hit, err := PrepareCached("kingston-dti", other)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("pause change invalidated the state cache")
	}
	if dev == nil || at <= 0 {
		t.Fatalf("bad cached prepare: dev=%v at=%v", dev, at)
	}
}

// TestStateKeyCanonicalizesArraySpecs: equivalent array spellings map to one
// cache entry.
func TestStateKeyCanonicalizesArraySpecs(t *testing.T) {
	cfg := DefaultConfig()
	a := StateKey("stripe(2,mtron)", cfg)
	b := StateKey("stripe(mtron,mtron)", cfg)
	if a != b {
		t.Fatalf("equivalent specs got distinct keys: %v vs %v", a, b)
	}
	if a.Spec != "stripe(2,mtron,mtron)" {
		t.Fatalf("canonical spec = %q", a.Spec)
	}
}

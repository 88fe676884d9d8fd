package paperexp

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// BenchmarkRequest parameterizes one full benchmark pipeline run — the exact
// sequence the uflip CLI performs, factored here so the experiment server
// produces results byte-identical to the equivalent CLI invocation.
type BenchmarkRequest struct {
	// Micros selects micro-benchmarks by name; empty means all nine.
	Micros []string
	// Workers bounds the engine pool (<= 0: GOMAXPROCS, 1: sequential).
	Workers int
	// Progress, when non-nil, observes completed plan runs.
	Progress engine.ProgressFunc
	// Stages, when set, observe the pipeline as it advances (the CLI uses
	// them to print its step-by-step narration at the original points).
	Stages Stages
}

// Stages are optional pipeline observers; any field may be nil.
type Stages struct {
	// EnforcingState fires after the device is built, before the state is
	// enforced or loaded; capacity is the device's logical capacity.
	EnforcingState func(capacity int64)
	// StateEnforced fires after the device reaches the enforced random
	// state: at is the enforcement end, hit whether it came from the state
	// cache instead of a live fill.
	StateEnforced func(at time.Duration, hit bool)
	// PhasesMeasured fires after the start-up/running analysis.
	PhasesMeasured func(*methodology.PhaseReport)
	// PauseMeasured fires after the pause determination.
	PauseMeasured func(*methodology.PauseReport)
	// PlanBuilt fires before the plan executes.
	PlanBuilt func(plan methodology.Plan, workers int)
}

// BenchmarkOutcome is everything one pipeline run produces.
type BenchmarkOutcome struct {
	Device  string
	Micros  []core.Microbenchmark
	Phases  *methodology.PhaseReport
	Pause   *methodology.PauseReport
	Plan    methodology.Plan
	Results *methodology.Results
}

// SelectMicros resolves micro-benchmark names (case-insensitive) against the
// nine of Table 1; an empty list selects all of them.
func SelectMicros(names []string, d core.Defaults, capacity int64) ([]core.Microbenchmark, error) {
	all := core.AllMicrobenchmarks(d, capacity)
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]core.Microbenchmark, len(all))
	known := make([]string, 0, len(all))
	for _, mb := range all {
		byName[strings.ToLower(mb.Name)] = mb
		known = append(known, mb.Name)
	}
	out := make([]core.Microbenchmark, 0, len(names))
	for _, want := range names {
		mb, ok := byName[strings.ToLower(strings.TrimSpace(want))]
		if !ok {
			return nil, fmt.Errorf("unknown micro-benchmark %q (known: %s)", want, strings.Join(known, ", "))
		}
		out = append(out, mb)
	}
	return out, nil
}

// RunBenchmark executes the full uFLIP methodology against one device spec:
// state enforcement (through cfg.Store when set), phase measurement, pause
// determination, and the benchmark plan through the parallel engine. The
// outcome is byte-identical for any req.Workers value, and — with a store —
// identical whether the enforced state was loaded from disk or enforced
// live.
func RunBenchmark(ctx context.Context, key string, cfg Config, req BenchmarkRequest) (*BenchmarkOutcome, error) {
	if cfg.IOCount <= 0 {
		cfg.IOCount = DefaultConfig().IOCount
	}
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Methodology, step 1: enforce the random initial state (Section 4.1).
	dev, err := profile.BuildDevice(key, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	if req.Stages.EnforcingState != nil {
		req.Stages.EnforcingState(dev.Capacity())
	}
	at, hit, err := enforceCached(dev, key, cfg)
	if err != nil {
		return nil, err
	}
	if req.Stages.StateEnforced != nil {
		req.Stages.StateEnforced(at, hit)
	}
	// The enforced state is acquired once per job: the plan's shards start
	// from a copy of it taken now, before the measurements below drive dev on.
	master, ok := dev.CloneDevice().(device.Cloneable)
	if !ok {
		return nil, fmt.Errorf("paperexp: the clone of %s cannot be cloned", key)
	}

	// Step 2: measure start-up and running phases (Section 4.2).
	d := cfg.defaults(dev.Capacity())
	phases, err := methodology.MeasurePhases(dev, d, 4*cfg.IOCount, at+5*time.Second)
	if err != nil {
		return nil, err
	}
	if req.Stages.PhasesMeasured != nil {
		req.Stages.PhasesMeasured(phases)
	}

	// Step 3: determine the pause between runs (Section 4.3).
	pauseRep, err := methodology.MeasurePause(dev, d, phases.End+5*time.Second)
	if err != nil {
		return nil, err
	}
	if req.Stages.PauseMeasured != nil {
		req.Stages.PauseMeasured(pauseRep)
	}

	// Step 4: build and run the benchmark plan through the engine.
	selected, err := SelectMicros(req.Micros, d, dev.Capacity())
	if err != nil {
		return nil, err
	}
	var exps []core.Experiment
	for _, mb := range selected {
		exps = append(exps, mb.Experiments...)
	}
	plan := methodology.BuildPlan(exps, dev.Capacity(), pauseRep.RecommendedPause, phases)
	plan.Device = key
	if req.Stages.PlanBuilt != nil {
		req.Stages.PlanBuilt(plan, workers)
	}
	factory := engine.CloningFactory(func() (device.Cloneable, time.Duration, error) {
		return master, at + pauseRep.RecommendedPause, nil
	})
	results, err := engine.ExecutePlan(ctx, plan, factory, engine.Options{
		Workers:  workers,
		Seed:     cfg.Seed,
		Progress: req.Progress,
	})
	if err != nil {
		return nil, err
	}
	return &BenchmarkOutcome{
		Device:  key,
		Micros:  selected,
		Phases:  phases,
		Pause:   pauseRep,
		Plan:    plan,
		Results: results,
	}, nil
}

// Records converts plan results into their serializable form — the records
// behind the CLI's -out files and the server's result endpoints, shared so
// both surfaces emit byte-identical CSV/JSON.
func Records(results *methodology.Results) []trace.RunRecord {
	records := make([]trace.RunRecord, 0, len(results.Results))
	for _, res := range results.Results {
		rec := trace.RunRecord{
			ID:           res.Exp.ID(),
			Device:       results.Device,
			Micro:        res.Exp.Micro,
			Base:         res.Exp.Base.String(),
			Param:        res.Exp.Param,
			Value:        res.Exp.Value,
			IOIgnore:     res.Run.IOIgnore,
			Summary:      res.Run.Summary,
			TotalSeconds: res.Run.Total.Seconds(),
			Faults:       res.Run.Faults.Faults,
			Retries:      res.Run.Faults.Retries,
		}
		rec.SetResponseTimes(res.Run.RTs)
		records = append(records, rec)
	}
	return records
}

// WorkloadRecords converts a workload replay into per-segment records, the
// same shape the CLI's workload -out files use.
func WorkloadRecords(res *workload.Result) []trace.RunRecord {
	records := make([]trace.RunRecord, 0, len(res.Segments))
	for i, run := range res.Segments {
		rec := trace.RunRecord{
			ID:           fmt.Sprintf("workload/%s/seg=%d", res.Name, i),
			Device:       res.Device,
			Micro:        "workload",
			Param:        "Segment",
			Value:        int64(i),
			Summary:      run.Summary,
			TotalSeconds: run.Total.Seconds(),
			Faults:       run.Faults.Faults,
			Retries:      run.Faults.Retries,
		}
		rec.SetResponseTimes(run.RTs)
		records = append(records, rec)
	}
	return records
}

package paperexp

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/par"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// BenchmarkRequest parameterizes one full benchmark pipeline run — the exact
// sequence the uflip CLI performs, factored here so the experiment server
// produces results byte-identical to the equivalent CLI invocation.
type BenchmarkRequest struct {
	// Micros selects micro-benchmarks by name; empty means all nine.
	Micros []string
	// Workers bounds the engine pool (<= 0: GOMAXPROCS, 1: one worker).
	Workers int
	// Progress, when non-nil, observes completed plan runs.
	Progress engine.ProgressFunc
	// Stages, when set, observe the pipeline as it advances (the CLI uses
	// them to print its step-by-step narration at the original points).
	Stages Stages
	// State, when non-nil, is engine.Options.State for the plan.
	State *core.RunState
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

// SelectMicros resolves micro-benchmark names (core.LookupMicro) against the
// nine of Table 1 and builds only those named; an empty list selects all of
// them.
func SelectMicros(names []string, d core.Defaults, capacity int64) ([]core.Microbenchmark, error) {
	if len(names) == 0 {
		return core.AllMicrobenchmarks(d, capacity), nil
	}
	out := make([]core.Microbenchmark, 0, len(names))
	for _, name := range names {
		m, err := core.LookupMicro(name)
		if err != nil {
			return nil, err
		}
		out = append(out, m.Build(d, capacity))
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
	workers := par.Workers(req.Workers)

	// Refuse a device the probes do not fit before enforcing (and storing)
	// a state no plan could use.
	if err := CheckSpan(key, cfg.Capacity, cfg.IOCount, 1); err != nil {
		return nil, fmt.Errorf("paperexp: %w", err)
	}
	// Steps 1–3 and the plan of step 4.
	sk, master, at, bp, err := cfg.prepare(key, req.Micros, req.Stages)
	if err != nil {
		return nil, err
	}
	if req.Stages.PlanBuilt != nil {
		req.Stages.PlanBuilt(bp.plan, workers)
	}
	// Step 4: run the benchmark plan through the engine.
	factory, release := cfg.shards(sk, master, at+bp.pause.RecommendedPause)
	results, err := engine.ExecutePlan(ctx, bp.plan, factory, engine.Options{
		Workers:  workers,
		Seed:     cfg.Seed,
		Progress: req.Progress,
		State:    req.State,
		Release:  release,
	})
	if err != nil {
		return nil, err
	}
	return &BenchmarkOutcome{
		Device:  key,
		Micros:  bp.micros,
		Phases:  bp.phases,
		Pause:   bp.pause,
		Plan:    bp.plan,
		Results: results,
	}, nil
}

// prepare readies key's device for a plan of the micro-benchmarks named
// under its store lock: it enforces the random initial state (Section 4.1),
// measures the start-up and running phases (4.2) on a copy of the master and
// the pause between runs (4.3), and builds the plan. It returns the state key,
// the master the plan's shards copy, its enforcement end, and the plan with
// what it was built from — taken from cfg.Prepared, which keeps what it
// lacked. st fires as if every step ran.
func (cfg Config) prepare(key string, names []string, st Stages) (statestore.Key, device.Cloneable, time.Duration, *benchPlan, error) {
	sk, unlock := cfg.lock(key)
	defer unlock()
	master, at, _, err := cfg.enforced(key, sk, st)
	if err != nil {
		return sk, nil, 0, nil, err
	}
	d := cfg.defaults(master.Capacity())
	pk := planKey{d, strings.Join(names, ",")}
	bp, kept := cfg.Prepared.plan(sk, pk)
	if !kept {
		bp = new(benchPlan)
		bp.phases, bp.pause, _ = cfg.Prepared.Calibration(sk, d)
	}
	var dev device.Device
	if bp.phases == nil {
		dev = master.CloneDevice()
		if bp.phases, err = methodology.MeasurePhases(dev, d, 4*cfg.IOCount, at+5*time.Second); err != nil {
			return sk, nil, 0, nil, err
		}
	}
	if st.PhasesMeasured != nil {
		st.PhasesMeasured(bp.phases)
	}
	if bp.pause == nil {
		if bp.pause, err = methodology.MeasurePause(dev, d, bp.phases.End+5*time.Second); err != nil {
			return sk, nil, 0, nil, err
		}
	}
	if st.PauseMeasured != nil {
		st.PauseMeasured(bp.pause)
	}
	if !kept {
		if bp.micros, err = SelectMicros(names, d, master.Capacity()); err != nil {
			return sk, nil, 0, nil, err
		}
		var exps []core.Experiment
		for _, mb := range bp.micros {
			exps = append(exps, mb.Experiments...)
		}
		bp.plan = methodology.BuildPlan(exps, master.Capacity(), bp.pause.RecommendedPause, bp.phases)
		bp.plan.Device = key
		cfg.Prepared.keepPlan(sk, pk, bp)
	}
	return sk, master, at, bp, nil
}

// Records converts plan results into their serializable form — the records
// behind the CLI's -out files and the server's result endpoints, shared so
// both surfaces emit byte-identical CSV/JSON. A record shares its run's
// response-time series.
func Records(results *methodology.Results) []trace.RunRecord { return AppendRecords(nil, results) }

// AppendRecords appends the records Records returns to records.
func AppendRecords(records []trace.RunRecord, results *methodology.Results) []trace.RunRecord {
	records = slices.Grow(records, len(results.Results))
	for _, res := range results.Results {
		records = append(records, trace.RunRecord{
			ID:           res.ID,
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
			RTs:          res.Run.RTs,
		})
	}
	return records
}

// WorkloadRecords converts a workload replay into per-segment records, the
// same shape the CLI's workload -out files use. A record shares its
// segment's response-time series.
func WorkloadRecords(res *workload.Result) []trace.RunRecord { return AppendWorkloadRecords(nil, res) }

// AppendWorkloadRecords appends WorkloadRecords' records to records.
func AppendWorkloadRecords(records []trace.RunRecord, res *workload.Result) []trace.RunRecord {
	records = slices.Grow(records, len(res.Segments))
	for i, run := range res.Segments {
		records = append(records, trace.RunRecord{
			ID:           fmt.Sprintf("workload/%s/seg=%d", res.Name, i),
			Device:       res.Device,
			Micro:        "workload",
			Param:        "Segment",
			Value:        int64(i),
			Summary:      run.Summary,
			TotalSeconds: run.Total.Seconds(),
			Faults:       run.Faults.Faults,
			Retries:      run.Faults.Retries,
			RTs:          run.RTs,
		})
	}
	return records
}

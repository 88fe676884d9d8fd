// Package job runs one experiment — a micro-benchmark plan, a workload replay,
// an array sweep or the paper's tables and figures, as an api.JobRequest
// describes it — the one way every surface runs it: the local commands call
// Run in-process, `uflip submit` sends the request to the daemon, and the
// daemon's worker calls the same Run. A job's records, report and CSV are
// therefore the same bytes wherever it ran, by construction. A surface passes
// in Env only what it owns: a state cache (and, for a daemon, the devices it
// keeps prepared), the stream a replay runs, and observers that turn
// progress into its narration (terminal lines, events).
package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"uflip/internal/api"
	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/paperexp"
	"uflip/internal/par"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// CheckParallel refuses an engine worker count above profile.MaxParallel:
// every worker holds a private device.
func CheckParallel(n int) error {
	if n > profile.MaxParallel {
		return fmt.Errorf("parallel %d is above the ceiling of %d workers", n, profile.MaxParallel)
	}
	return nil
}

// Normalize fills req's omitted values from api.Defaults (a workload takes
// the job's seed and, by default, half the capacity) and runs every check that
// needs no execution: at most profile.MaxParallel workers, the device spec
// resolves, the micro-benchmark names exist, the synthetic workload builds,
// the layouts parse, the paper's experiments exist ("all" expands to them),
// and a plan's device, every composite of an array sweep and the capacity of
// a paper job hold what their runs write — so a typo or a device too small
// is an error before any state is enforced.
// It is idempotent. Whether a named trace exists is the surface's to check:
// only it knows where traces live.
func Normalize(req *api.JobRequest) error {
	d := api.Defaults()
	if req.Capacity == 0 {
		req.Capacity = d.Capacity
	}
	if req.Capacity < 0 {
		return errors.New("capacity must be positive")
	}
	if err := CheckParallel(req.Parallel); err != nil {
		return err
	}
	if req.Seed == 0 {
		req.Seed = d.Seed
	}
	if req.IOCount <= 0 && (req.Kind == "plan" || req.Kind == "array") {
		req.IOCount = d.IOCount
	}
	if req.Kind == "plan" || req.Kind == "workload" {
		if req.Device == "" {
			return fmt.Errorf("%s jobs need a device", req.Kind)
		}
		if _, err := profile.DescribeDevice(req.Device); err != nil {
			return err
		}
	}
	switch req.Kind {
	case "plan":
		for _, name := range req.Micros {
			if _, err := core.LookupMicro(name); err != nil {
				return err
			}
		}
		return paperexp.CheckSpan(req.Device, req.Capacity, req.IOCount)
	case "workload":
		w := req.Workload
		if w == nil {
			return errors.New("workload jobs need a workload spec")
		}
		w.Seed = req.Seed
		if w.TargetSize == 0 {
			w.TargetSize = req.Capacity / 2
		}
		if w.TraceHash != "" {
			if w.Kind != "" && w.Kind != "trace" {
				return fmt.Errorf("workload kind %q conflicts with trace_hash (leave kind empty or \"trace\")", w.Kind)
			}
			w.Kind = "trace"
		}
		if w.Kind == "trace" {
			return nil
		}
		if w.Count <= 0 {
			return errors.New("workload jobs need a positive op count")
		}
		_, err := w.Spec.Build()
		return err
	case "array":
		if req.Array == nil || req.Array.Member == "" {
			return errors.New("array jobs need an array.member profile")
		}
		ac, err := sweepConfig(req.Array)
		if err != nil {
			return err
		}
		return ac.CheckSpan(req.Capacity, req.IOCount)
	case "paper":
		if req.IOCount != 0 {
			return fmt.Errorf("paper jobs take no iocount (their plans run %d IOs)", paperexp.DefaultConfig().IOCount)
		}
		if len(req.Experiments) == 0 {
			return fmt.Errorf("paper jobs need an experiment (known: %s, all)", strings.Join(paperexp.Experiments, ", "))
		}
		if slices.Contains(req.Experiments, "all") {
			req.Experiments = slices.Clone(paperexp.Experiments)
		}
		for _, name := range req.Experiments {
			if !slices.Contains(paperexp.Experiments, name) {
				return fmt.Errorf("unknown experiment %q (known: %s, all)", name, strings.Join(paperexp.Experiments, ", "))
			}
			if span := paperexp.Span(name); req.Capacity < span {
				return fmt.Errorf("experiment %s spans %d bytes, above the capacity of %d", name, span, req.Capacity)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown job kind %q (want plan, workload, array or paper)", req.Kind)
	}
}

// sweepConfig is the sweep an array request describes.
func sweepConfig(a *api.ArrayRequest) (paperexp.ArrayConfig, error) {
	ac := paperexp.ArrayConfig{
		Member:      a.Member,
		Counts:      a.Counts,
		QueueDepths: a.QueueDepths,
		ChunkBytes:  a.ChunkBytes,
		Degree:      a.Degree,
	}
	for _, l := range a.Layouts {
		layout, err := device.ParseLayout(l)
		if err != nil {
			return ac, err
		}
		ac.Layouts = append(ac.Layouts, layout)
	}
	return ac, nil
}

// Env is what the surface running a job owns. The zero value runs the job
// with live enforcement, on every CPU, unobserved.
type Env struct {
	// Store, when non-nil, is where enforced device states load from and
	// save to; nil enforces live. Results are byte-identical either way.
	Store *statestore.Store
	// Prepared, when non-nil with a Store, keeps the devices jobs prepare
	// (paperexp.Prepared), so a long-running surface prepares each once.
	Prepared *paperexp.Prepared
	// Source is the stream a workload job replays: required when the
	// workload kind is "trace" (the surface opens it, workload.OpenTrace);
	// for a synthetic request nil means Synthetic builds it, and a surface
	// that wants the stream first (to narrate it, or for -dump-trace)
	// passes the one it built.
	Source workload.Source
	// Stages observe a plan job's pipeline as it advances.
	Stages paperexp.Stages
	// Progress, when non-nil, observes every completed run or segment.
	Progress engine.ProgressFunc
	// State, when non-nil, is the run state a plan or workload job runs on
	// (a daemon worker's, kept across its jobs); nil allocates it afresh.
	State *core.RunState
}

// Outcome is a finished job: its result records or grid rows, and the two
// renders every surface serves, each made once; a paper job has only its report.
type Outcome struct {
	Kind    string            // the request's
	Records []trace.RunRecord // the run records of a plan or workload job
	Rows    []report.ArrayRow // the grid of an array job
	Report  []byte            // the human-readable report section
	CSV     []byte            // the summary CSV of Records; nil for an array or paper job
	Elapsed time.Duration     // a plan job's device time on its longest shard
}

// Synthetic materializes the stream of a synthetic workload spec — what Run
// replays when Env.Source is nil.
func Synthetic(spec workload.Spec) (workload.Source, error) {
	gen, err := spec.Build()
	if err != nil {
		return nil, err
	}
	ops, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	return workload.OpsSource(gen.Name(), ops), nil
}

// Run executes a request that passed Normalize and renders its outcome, on
// req.Parallel engine workers (<= 0: GOMAXPROCS; results are byte-identical
// for any value).
func Run(ctx context.Context, req api.JobRequest, env Env) (*Outcome, error) {
	workers := par.Workers(req.Parallel)
	cfg := paperexp.Config{Capacity: req.Capacity, Seed: req.Seed, IOCount: req.IOCount, Store: env.Store, Prepared: env.Prepared}
	out := &Outcome{Kind: req.Kind}
	var rep bytes.Buffer
	switch req.Kind {
	case "plan":
		res, err := paperexp.RunBenchmark(ctx, req.Device, cfg, paperexp.BenchmarkRequest{
			Micros:   req.Micros,
			Workers:  workers,
			Progress: env.Progress,
			Stages:   env.Stages,
			State:    env.State,
		})
		if err != nil {
			return nil, err
		}
		if err := report.PlanSection(&rep, res.Micros, res.Results, core.StandardDefaults().IOSize); err != nil {
			return nil, err
		}
		out.Records = paperexp.Records(res.Results)
		out.Elapsed = res.Results.Elapsed
	case "workload":
		w := req.Workload
		src := env.Source
		if src == nil {
			var err error
			if src, err = Synthetic(w.Spec); err != nil {
				return nil, err
			}
		}
		cfg.Pause = time.Second
		res, err := workload.ReplaySource(ctx, src, paperexp.ShardFactory(req.Device, cfg), workload.Options{
			SegmentOps: w.SegmentOps,
			Workers:    workers,
			Seed:       req.Seed,
			WindowOps:  w.WindowOps,
			Progress:   env.Progress,
			State:      env.State,
		})
		if err != nil {
			return nil, err
		}
		if err := report.WorkloadSection(&rep, res); err != nil {
			return nil, err
		}
		out.Records = paperexp.WorkloadRecords(res)
	case "array":
		ac, err := sweepConfig(req.Array)
		if err != nil {
			return nil, err
		}
		ac.Workers = workers
		cfg.Pause = paperexp.DefaultConfig().Pause
		rows, err := paperexp.ArraySweep(ctx, cfg, ac, env.Progress)
		if err != nil {
			return nil, err
		}
		if err := report.ArraySection(&rep, rows); err != nil {
			return nil, err
		}
		out.Rows = rows
	case "paper":
		d := paperexp.DefaultConfig()
		cfg.Pause, cfg.IOCount = d.Pause, d.IOCount
		for _, name := range req.Experiments {
			if err := paperexp.Render(ctx, &rep, name, cfg, workers); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rep.WriteByte('\n')
			// Only the plans stop on ctx as they run; the other experiments
			// stop here, so a canceled job never ends done.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	out.Report = rep.Bytes()
	if req.Kind == "plan" || req.Kind == "workload" {
		var csv bytes.Buffer
		if err := trace.WriteSummaryCSV(&csv, out.Records); err != nil {
			return nil, err
		}
		out.CSV = csv.Bytes()
	}
	return out, nil
}

// Save writes the result files under dir — <stem>.jsonl and <stem>.csv for a
// plan, <stem>-workload.* for a workload, <stem>-arrays.json for an array
// sweep — and returns the line that tells the user where they went.
func (o *Outcome) Save(dir, stem string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if o.Kind == "array" {
		grid, err := json.MarshalIndent(o.Rows, "", "  ")
		if err != nil {
			return "", err
		}
		path := filepath.Join(dir, stem+"-arrays.json")
		return "grid written to " + path, os.WriteFile(path, append(grid, '\n'), 0o644)
	}
	if o.Kind == "workload" {
		stem += "-workload"
	}
	if err := trace.SaveJSON(filepath.Join(dir, stem+".jsonl"), o.Records); err != nil {
		return "", err
	}
	return "results written under " + dir, os.WriteFile(filepath.Join(dir, stem+".csv"), o.CSV, 0o644)
}

// Package job runs one experiment — a micro-benchmark plan, a workload replay
// or an array sweep, described by an api.JobRequest — the one way every
// surface runs it: the local commands call Run in-process, `uflip submit`
// sends the same request to the daemon, and the daemon's worker calls the same
// Run. A job's records, report and CSV are therefore the same bytes wherever
// it ran, by construction. A surface passes in Env only what it owns: a state
// cache, a default worker count, the opened trace a replay names, and
// observers that turn progress into its narration (terminal lines, events).
package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"uflip/internal/api"
	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// Normalize fills req's omitted values from api.Defaults (a workload takes
// the job's seed and, by default, half the capacity) and runs every check that
// needs no execution: the device spec resolves, the micro-benchmark names
// exist, the synthetic workload builds, the layouts parse — so a typo is an
// error before any state is enforced. It is idempotent. Whether a named trace
// exists is the surface's to check: only it knows where traces live.
func Normalize(req *api.JobRequest) error {
	d := api.Defaults()
	if req.Capacity == 0 {
		req.Capacity = d.Capacity
	}
	if req.Capacity < 0 {
		return errors.New("capacity must be positive")
	}
	if req.Seed == 0 {
		req.Seed = d.Seed
	}
	if req.IOCount <= 0 && req.Kind != "workload" {
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
		_, err := paperexp.SelectMicros(req.Micros, core.StandardDefaults(), req.Capacity)
		return err
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
		// DescribeDevice, not ByKey: a faulty(...)-wrapped member is a valid
		// sweep member.
		if _, err := profile.DescribeDevice(req.Array.Member); err != nil {
			return err
		}
		for _, l := range req.Array.Layouts {
			if _, err := device.ParseLayout(l); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown job kind %q (want plan, workload or array)", req.Kind)
	}
}

// Env is what the surface running a job owns. The zero value runs the job
// with live enforcement, on every CPU, unobserved.
type Env struct {
	// Store, when non-nil, is where enforced device states load from and
	// save to; nil enforces live. Results are byte-identical either way.
	Store *statestore.Store
	// Workers is the engine worker count of a request that leaves Parallel
	// unset (<= 0: GOMAXPROCS). Results are byte-identical for any value.
	Workers int
	// Source is the stream a workload job replays: required when the
	// workload kind is "trace" (the surface opens it, workload.OpenTrace);
	// for a synthetic request nil means Synthetic builds it, and a surface
	// that wants the stream first (-dump-trace) passes the one it built.
	Source workload.Source
	// Stages observe a plan job's pipeline as it advances.
	Stages paperexp.Stages
	// Progress, when non-nil, observes every completed run or segment.
	Progress engine.ProgressFunc
	// Replaying, when non-nil, fires once before a workload job replays:
	// the stream's name and length, the segment size and the worker count.
	Replaying func(name string, ops, segmentOps, workers int)
}

// Outcome is a finished job: its result records or grid rows, and the two
// renders every surface serves, each made once.
type Outcome struct {
	Kind    string            // the request's
	Records []trace.RunRecord // the run records of a plan or workload job
	Rows    []report.ArrayRow // the grid of an array job
	Report  []byte            // the human-readable report section
	CSV     []byte            // the summary CSV of Records; nil for an array job
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

// Run executes a request that passed Normalize and renders its outcome.
func Run(ctx context.Context, req api.JobRequest, env Env) (*Outcome, error) {
	workers := req.Parallel
	if workers <= 0 {
		workers = env.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := paperexp.Config{Capacity: req.Capacity, Seed: req.Seed, IOCount: req.IOCount, Store: env.Store}
	out := &Outcome{Kind: req.Kind}
	var rep bytes.Buffer
	switch req.Kind {
	case "plan":
		res, err := paperexp.RunBenchmark(ctx, req.Device, cfg, paperexp.BenchmarkRequest{
			Micros:   req.Micros,
			Workers:  workers,
			Progress: env.Progress,
			Stages:   env.Stages,
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
		if env.Replaying != nil {
			env.Replaying(src.Name(), src.Len(), w.SegmentOps, workers)
		}
		cfg.Pause = time.Second
		res, err := workload.ReplaySource(ctx, src, paperexp.ShardFactory(req.Device, cfg), workload.Options{
			SegmentOps: w.SegmentOps,
			Workers:    workers,
			Seed:       req.Seed,
			WindowOps:  w.WindowOps,
			Progress:   env.Progress,
		})
		if err != nil {
			return nil, err
		}
		if err := report.WorkloadSection(&rep, res); err != nil {
			return nil, err
		}
		out.Records = paperexp.WorkloadRecords(res)
	case "array":
		a := req.Array
		ac := paperexp.ArrayConfig{
			Member:      a.Member,
			Counts:      a.Counts,
			QueueDepths: a.QueueDepths,
			ChunkBytes:  a.ChunkBytes,
			Degree:      a.Degree,
			Workers:     workers,
		}
		for _, l := range a.Layouts {
			layout, err := device.ParseLayout(l)
			if err != nil {
				return nil, err
			}
			ac.Layouts = append(ac.Layouts, layout)
		}
		cfg.Pause = paperexp.DefaultConfig().Pause
		rows, err := paperexp.ArraySweep(ctx, cfg, ac, env.Progress)
		if err != nil {
			return nil, err
		}
		if err := report.ArraySection(&rep, rows); err != nil {
			return nil, err
		}
		out.Rows = rows
	}
	out.Report = rep.Bytes()
	if req.Kind != "array" {
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

package paperexp

import (
	"context"
	"fmt"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/report"
)

// ArrayConfig controls the array scenario sweep: the four baselines measured
// over every layout × member count × queue depth combination of composite
// devices built from one member profile.
type ArrayConfig struct {
	// Member is the member device spec (a profile key such as "mtron", or a
	// faulty(...) wrapper around one).
	Member string
	// Layouts are the layouts to sweep; empty means stripe, mirror, concat.
	Layouts []device.Layout
	// Counts are the member counts; empty means {1, 2, 4}.
	Counts []int
	// QueueDepths are the per-member queue bounds; empty means {1, 4}.
	QueueDepths []int
	// ChunkBytes overrides the stripe chunk size (0 = default).
	ChunkBytes int64
	// Degree is the number of concurrent processes each baseline is
	// replicated over (the Parallelism micro-benchmark generalized to
	// arrays); <= 0 means 4. Degree 1 is the paper's plain baseline, but
	// member queues only fill — and queue depth only matters — with
	// concurrent submitters.
	Degree int
	// Workers bounds the engine pool (<= 0: GOMAXPROCS, 1: one worker).
	// The grid is byte-identical for any value.
	Workers int
}

func (a ArrayConfig) withDefaults() ArrayConfig {
	if len(a.Layouts) == 0 {
		a.Layouts = []device.Layout{device.LayoutStripe, device.LayoutMirror, device.LayoutConcat}
	}
	if len(a.Counts) == 0 {
		a.Counts = []int{1, 2, 4}
	}
	if len(a.QueueDepths) == 0 {
		a.QueueDepths = []int{1, 4}
	}
	if a.Degree <= 0 {
		a.Degree = 4
	}
	return a
}

// specs returns the canonical spec of every combination of the sweep,
// layout-major, then member count, then queue depth.
func (a ArrayConfig) specs() []*profile.ArraySpec {
	var out []*profile.ArraySpec
	for _, layout := range a.Layouts {
		for _, count := range a.Counts {
			for _, qd := range a.QueueDepths {
				s := &profile.ArraySpec{Layout: layout, ChunkBytes: device.DefaultChunkBytes, QueueDepth: qd}
				if a.ChunkBytes > 0 && layout == device.LayoutStripe {
					s.ChunkBytes = a.ChunkBytes
				}
				for i := 0; i < count; i++ {
					s.MemberKeys = append(s.MemberKeys, a.Member)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// CheckSpan refuses a sweep at capacity bytes per member unless every
// composite of it, as its spec, passes CheckSpan at the sweep's degree.
func (a ArrayConfig) CheckSpan(capacity int64, ios int) error {
	a = a.withDefaults()
	for _, n := range a.Counts {
		if n > profile.MaxArrayMembers { // before a spec lists that many members
			return fmt.Errorf("an array of %d members is above the ceiling of %d", n, profile.MaxArrayMembers)
		}
	}
	for _, spec := range a.specs() {
		if err := CheckSpan(spec.String(), capacity, ios, a.Degree); err != nil {
			return err
		}
	}
	return nil
}

// ArraySweep measures the four baselines over every array combination: each
// combination gets its own enforced master composite (built lazily, cloned
// per shard by the engine), and its runs execute through the worker pool.
// Rows are ordered layout-major, then member count, then queue depth, and
// are byte-identical for any ac.Workers value — the engine merges runs by
// plan index and every shard starts from a clone of the same master state.
func ArraySweep(ctx context.Context, cfg Config, ac ArrayConfig, progress engine.ProgressFunc) ([]report.ArrayRow, error) {
	ac = ac.withDefaults()
	if ac.Member == "" {
		return nil, fmt.Errorf("paperexp: ArrayConfig.Member is required")
	}
	// Canonicalize the member spec so every sweep key — and thus every
	// state-store entry — is spelled one way. CheckSpan resolves the spec of
	// every composite, the member's included.
	if canonical, err := profile.CanonicalSpec(ac.Member); err == nil {
		ac.Member = canonical
	}
	if err := ac.CheckSpan(cfg.Capacity, cfg.IOCount); err != nil {
		return nil, fmt.Errorf("paperexp: %w", err)
	}
	var rows []report.ArrayRow
	for _, spec := range ac.specs() {
		row, err := arrayRow(ctx, cfg, spec, ac.Degree, ac.Workers, progress)
		if err != nil {
			return nil, fmt.Errorf("paperexp: array %s: %w", spec, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// arrayRow runs the four baselines against one composite through the engine.
func arrayRow(ctx context.Context, cfg Config, spec *profile.ArraySpec, degree, workers int, progress engine.ProgressFunc) (report.ArrayRow, error) {
	key := spec.String()
	capacity, err := spec.Capacity(cfg.Capacity)
	if err != nil {
		return report.ArrayRow{}, err
	}
	exps := baselines(cfg.defaults(capacity), degree)
	plan := methodology.BuildPlan(exps[:], capacity, cfg.Pause, nil)
	plan.Device = key
	res, err := engine.ExecutePlan(ctx, plan, ShardFactory(key, cfg), engine.Options{
		Workers:  workers,
		Seed:     cfg.Seed,
		Progress: progress,
	})
	if err != nil {
		return report.ArrayRow{}, err
	}
	row := report.ArrayRow{
		Spec:       key,
		Layout:     spec.Layout.String(),
		Members:    len(spec.MemberKeys),
		QueueDepth: spec.QueueDepth,
		Degree:     degree,
	}
	means := [...]*float64{core.SR: &row.SRms, core.RR: &row.RRms, core.SW: &row.SWms, core.RW: &row.RWms}
	for _, r := range res.Results {
		*means[r.Exp.Base] = r.Run.Summary.Mean * 1e3
	}
	return row, nil
}

// baselines are the runs of a sweep's row: the four baselines, each
// replicated over degree processes.
func baselines(d core.Defaults, degree int) [4]core.Experiment {
	var exps [4]core.Experiment
	for i, b := range core.Baselines {
		exps[i] = core.Experiment{
			Micro: "Array", Base: b, Param: "ParallelDegree", Value: int64(degree),
			Pattern: b.Pattern(d), Degree: degree,
		}
	}
	return exps
}

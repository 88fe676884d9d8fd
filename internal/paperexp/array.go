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

// arraySpec returns the canonical spec of one sweep combination.
func (a ArrayConfig) arraySpec(layout device.Layout, count, qd int) *profile.ArraySpec {
	s := &profile.ArraySpec{
		Layout:     layout,
		ChunkBytes: device.DefaultChunkBytes,
		QueueDepth: qd,
	}
	if a.ChunkBytes > 0 && layout == device.LayoutStripe {
		s.ChunkBytes = a.ChunkBytes
	}
	for i := 0; i < count; i++ {
		s.MemberKeys = append(s.MemberKeys, a.Member)
	}
	return s
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
	// Validate the member spec (profile keys resolve against the table,
	// faulty wrappers recursively) and canonicalize it so every sweep key —
	// and thus every state-store entry — is spelled one way.
	if _, err := profile.DescribeDevice(ac.Member); err != nil {
		return nil, err
	}
	if canonical, err := profile.CanonicalSpec(ac.Member); err == nil {
		ac.Member = canonical
	}
	var rows []report.ArrayRow
	for _, layout := range ac.Layouts {
		for _, count := range ac.Counts {
			for _, qd := range ac.QueueDepths {
				spec := ac.arraySpec(layout, count, qd)
				row, err := arrayRow(ctx, cfg, spec, ac.Degree, ac.Workers, progress)
				if err != nil {
					return nil, fmt.Errorf("paperexp: array %s: %w", spec, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// arrayRow runs the four baselines against one composite through the engine.
func arrayRow(ctx context.Context, cfg Config, spec *profile.ArraySpec, degree, workers int, progress engine.ProgressFunc) (report.ArrayRow, error) {
	key := spec.String()
	// The composite's logical capacity depends on the layout; build one
	// un-enforced instance to read it (construction is cheap — enforcement,
	// which is not, happens once on the engine master).
	probe, err := spec.Build(cfg.Capacity)
	if err != nil {
		return report.ArrayRow{}, err
	}
	d := cfg.defaults(probe.Capacity())
	var exps []core.Experiment
	for _, b := range core.Baselines {
		p := b.Pattern(d)
		if p.TargetSize < int64(degree)*p.IOSize {
			return report.ArrayRow{}, fmt.Errorf("capacity %d too small for %d-way parallel baselines", probe.Capacity(), degree)
		}
		exps = append(exps, core.Experiment{
			Micro: "Array", Base: b, Param: "ParallelDegree", Value: int64(degree),
			Pattern: p, Degree: degree,
		})
	}
	plan := methodology.BuildPlan(exps, probe.Capacity(), cfg.Pause, nil)
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
	for _, r := range res.Results {
		ms := r.Run.Summary.Mean * 1e3
		switch r.Exp.Base {
		case core.SR:
			row.SRms = ms
		case core.RR:
			row.RRms = ms
		case core.SW:
			row.SWms = ms
		case core.RW:
			row.RWms = ms
		}
	}
	return row, nil
}

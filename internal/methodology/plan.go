package methodology

import (
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
)

// Plan is an ordered sequence of experiments with disjoint sequential-write
// target spaces and pauses between runs (Section 4.2, "benchmark plan").
// Resets counts where one device walking the plan would have to re-enforce
// the random state (Section 4.1): wherever the accumulated sequential-write
// target space would exceed the device, allocation restarts at offset 0. The
// engine starts every run from the enforced state, so a reset carries no
// work of its own.
type Plan struct {
	Device string
	Pause  time.Duration
	Runs   []core.Experiment
	// IDs holds each run's ID (IDs[i] is Runs[i].ID()), formatted once by
	// BuildPlan: a kept plan's progress events, records and report share them.
	IDs    []string
	Resets int
}

// BuildPlan lays out the experiments: read-only and random-write experiments
// first (they leave the random state intact), then the sequential-write
// experiments grouped together, each allocated a fresh target space; a state
// reset is counted whenever the sequential-write allocations would exceed
// the device capacity. Patterns are updated in place with their assigned
// TargetOffset and, when provided, the per-baseline IOIgnore/IOCount of the
// phase report. An experiment that, so sized, would not run to the end on
// the device (core.Experiment.Check) is left out of the plan.
func BuildPlan(exps []core.Experiment, capacity int64, pause time.Duration, phases *PhaseReport) Plan {
	plan := Plan{Pause: pause}
	var seqWrites, others []core.Experiment
	for _, e := range exps {
		if phases != nil {
			applyPhases(&e, phases)
		}
		if e.Check(capacity) != nil {
			continue
		}
		if disturbsState(&e) {
			seqWrites = append(seqWrites, e)
		} else {
			others = append(others, e)
		}
	}
	plan.Runs = append(others, seqWrites...)
	// Sequential writes: allocate disjoint target spaces walking up the
	// device; reset state when the device is exhausted.
	var offset int64
	for i := len(others); i < len(plan.Runs); i++ {
		e := &plan.Runs[i]
		span := spanOf(e)
		if offset+span > capacity {
			plan.Resets++
			offset = 0
		}
		setOffset(e, offset)
		offset += span
	}
	plan.IDs = make([]string, len(plan.Runs))
	for i := range plan.Runs {
		plan.IDs[i] = plan.Runs[i].ID()
	}
	return plan
}

// disturbsState reports whether the experiment writes sequentially (the only
// pattern kind that significantly disturbs a random state, Section 4.1).
func disturbsState(e *core.Experiment) bool {
	seqWrite := func(p *core.Pattern) bool {
		return p.Mode == device.Write && p.LBA != core.Random
	}
	if seqWrite(&e.Pattern) {
		return true
	}
	return e.MixWith != nil && seqWrite(e.MixWith)
}

func spanOf(e *core.Experiment) int64 {
	lo, hi := e.Pattern.Span()
	if e.MixWith != nil {
		mlo, mhi := e.MixWith.Span()
		hi += mhi - mlo
	}
	return hi - lo
}

func setOffset(e *core.Experiment, offset int64) {
	base := e.Pattern.TargetOffset
	e.Pattern.TargetOffset = offset
	if e.MixWith != nil {
		// Preserve the relative placement of the mix partner.
		rel := e.MixWith.TargetOffset - base
		if rel < 0 {
			rel = e.Pattern.TargetSize
		}
		e.MixWith.TargetOffset = offset + rel
	}
}

func applyPhases(e *core.Experiment, phases *PhaseReport) {
	b := e.Base
	if ign, ok := phases.IOIgnore[b]; ok {
		e.Pattern.IOIgnore = ign
	}
	if cnt, ok := phases.IOCount[b]; ok {
		e.Pattern.IOCount = cnt
	}
	if e.MixWith != nil {
		// Scale the run so the minority pattern still gets enough IOs
		// past its start-up phase (Section 4.2 warns that a read-heavy
		// mix otherwise only measures the cheap initial random writes).
		e.Pattern.IOCount *= 2
		e.MixWith.IOCount = e.Pattern.IOCount
	}
	if e.Pattern.IOIgnore >= e.Pattern.IOCount {
		e.Pattern.IOCount = 2*e.Pattern.IOIgnore + 512
	}
}

// Result pairs an experiment with its run and the run's ID, its plan's.
type Result = core.PlanResult

// Results collects a plan's outcomes for one device.
type Results struct {
	Device  string
	Results []Result
	// Elapsed is the virtual time of the plan's longest shard: the runs
	// execute on independent devices, each from the enforced state.
	Elapsed time.Duration
}

// Find returns the first result matching micro-benchmark, baseline and
// parameter value, or nil.
func (r *Results) Find(micro string, base core.Baseline, value int64) *Result {
	for i := range r.Results {
		res := &r.Results[i]
		if res.Exp.Micro == micro && res.Exp.Base == base && res.Exp.Value == value {
			return res
		}
	}
	return nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"uflip/internal/device"
	"uflip/internal/stats"
)

// batchSize is how many IOs the executors hand the device per SubmitBatch
// call, amortizing the per-IO virtual-call overhead across the batch.
const batchSize = 128

// submitErr rewraps a device.BatchError with the caller's IO numbering (the
// batch's base index added) so error messages match the per-IO path.
func submitErr(prefix string, base int, err error) error {
	var be *device.BatchError
	if errors.As(err, &be) {
		i := base + be.Index
		return fmt.Errorf("%s IO %d (%s off=%d size=%d): %w", prefix, i, be.IO.Mode, be.IO.Off, be.IO.Size, be.Err)
	}
	return fmt.Errorf("%s %w", prefix, err)
}

// Run is the result of executing a reference pattern against a device once
// (design principle 1 of Section 3.2): the per-IO response times plus the
// summary statistics computed over the running phase (IOIgnore onward).
type Run struct {
	// Name echoes the pattern (or mix) that produced the run.
	Name string
	// Device is the name of the device measured.
	Device string
	// RTs holds every IO's response time, including the warm-up prefix.
	RTs []time.Duration
	// IOIgnore is how many leading IOs the summary excludes.
	IOIgnore int
	// Summary covers RTs[IOIgnore:].
	Summary stats.Summary
	// Total is the run's end-to-end duration (submission of the first IO
	// to completion of the last), which the Pause micro-benchmark uses to
	// check that pauses do not change total workload time.
	Total time.Duration
	// Faults counts the device faults observed during the run and the
	// retries spent recovering from them (all zero on a healthy device).
	// Retried IOs keep their nominal submission time, so their response
	// times include the retry delay.
	Faults device.FaultStats
}

// MeasuredRTs returns the response times of the running phase.
func (r *Run) MeasuredRTs() []time.Duration { return r.RTs[r.IOIgnore:] }

// Timing controls the time dimension of a run: consecutive when Pause is
// zero; pause(Pause) when Burst <= 1; burst(Pause, Burst) otherwise.
type Timing struct {
	Pause time.Duration
	Burst int
}

// gapBefore returns the pause inserted before submitting IO i (i > 0).
func (t Timing) gapBefore(i int) time.Duration {
	if t.Pause == 0 {
		return 0
	}
	if t.Burst <= 1 {
		return t.Pause
	}
	if i%t.Burst == 0 {
		return t.Pause
	}
	return 0
}

// Execute runs count IOs from src against dev starting at virtual time
// startAt, measuring each IO individually.
func Execute(dev device.Device, src IOSource, count, ignore int, timing Timing, startAt time.Duration) (*Run, error) {
	if count <= 0 {
		return nil, fmt.Errorf("core: IOCount must be positive, got %d", count)
	}
	if ignore < 0 || ignore >= count {
		return nil, fmt.Errorf("core: IOIgnore %d out of range for IOCount %d", ignore, count)
	}
	run := &Run{
		Device:   dev.Name(),
		RTs:      make([]time.Duration, 0, count),
		IOIgnore: ignore,
	}
	// Closed-loop batch submission: IO i+1 goes in at the completion of IO
	// i plus the methodology gap, encoded per entry so the whole batch is
	// one SubmitBatch call. The completions land in the batch's window of
	// run.RTs and become response times in place. The IO scratch is
	// allocated once per run, at most a batch long (anything handed to a
	// Device escapes to the heap), and never shared or pooled.
	t := startAt
	var acc stats.Running
	ios := make([]device.IO, min(count, batchSize))
	for base, exhausted := 0, false; base < count && !exhausted; {
		n := 0
		for base+n < count && n < batchSize {
			io, ok := src.Next()
			if !ok {
				exhausted = true
				break
			}
			ios[n] = io
			gap := time.Duration(0)
			if base+n > 0 {
				gap = timing.gapBefore(base + n)
			}
			run.RTs = append(run.RTs, device.ChainAfter(gap))
			n++
		}
		if n == 0 {
			break
		}
		batch := run.RTs[base:]
		if err := device.SubmitBatchRetry(context.Background(), dev, t, ios[:n], batch, device.DefaultRetryPolicy, &run.Faults); err != nil {
			return nil, submitErr("core:", base, err)
		}
		prev := t
		for k, done := range batch {
			sub := prev
			if base+k > 0 {
				sub += timing.gapBefore(base + k)
			}
			rt := done - sub
			batch[k] = rt
			if base+k >= ignore {
				acc.AddDuration(rt)
			}
			prev = done
		}
		t = prev
		base += n
	}
	if len(run.RTs) == 0 {
		return nil, fmt.Errorf("core: source produced no IOs")
	}
	if ignore >= len(run.RTs) {
		run.IOIgnore = 0
		acc = stats.Running{}
		for _, rt := range run.RTs {
			acc.AddDuration(rt)
		}
	}
	run.Summary = acc.Summary()
	run.Total = t - startAt
	return run, nil
}

// ExecutePattern validates and runs a single pattern.
func ExecutePattern(dev device.Device, p Pattern, startAt time.Duration) (*Run, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	run, err := Execute(dev, p.Source(), p.IOCount, p.IOIgnore, Timing{Pause: p.Pause, Burst: p.Burst}, startAt)
	if err != nil {
		return nil, err
	}
	run.Name = p.Name
	return run, nil
}

// ExecuteParallel replicates a pattern over degree concurrent processes
// (Section 3.1, parallel patterns): the target space is divided into degree
// subsets, each accessed by one process running the same baseline pattern.
// The processes share the device, which serializes them; each process's next
// IO is submitted as soon as its previous IO completes. Response times of
// all processes are reported in global submission order.
func ExecuteParallel(dev device.Device, p Pattern, degree int, startAt time.Duration) (*Run, error) {
	if degree < 1 {
		return nil, fmt.Errorf("core: parallel degree must be >= 1, got %d", degree)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Split the target: TargetOffset_p = p*TargetSize/degree,
	// TargetSize_p = TargetSize/degree (Table 1, Parallelism row).
	subSize := p.TargetSize / int64(degree)
	subSize -= subSize % p.IOSize
	if subSize < p.IOSize {
		return nil, fmt.Errorf("core: target %d too small for %d-way parallelism at IOSize %d", p.TargetSize, degree, p.IOSize)
	}
	perProc := p.IOCount / degree
	if perProc < 1 {
		return nil, fmt.Errorf("core: IOCount %d too small for %d processes", p.IOCount, degree)
	}
	type proc struct {
		src    IOSource
		next   time.Duration
		issued int
	}
	procs := make([]*proc, degree)
	for i := range procs {
		sub := p
		sub.TargetOffset = p.TargetOffset + int64(i)*subSize
		sub.TargetSize = subSize
		sub.IOCount = perProc
		// The start-up phase is ignored globally over the merged series, not
		// per process; a methodology-assigned IOIgnore may exceed perProc.
		sub.IOIgnore = 0
		sub.Seed = p.Seed + int64(i)*7919
		if err := sub.Validate(); err != nil {
			return nil, err
		}
		procs[i] = &proc{src: sub.Source(), next: startAt}
	}
	run := &Run{
		Name:     fmt.Sprintf("%s||%d", p.Name, degree),
		Device:   dev.Name(),
		RTs:      make([]time.Duration, 0, perProc*degree),
		IOIgnore: p.IOIgnore,
	}
	timing := Timing{Pause: p.Pause, Burst: p.Burst}
	var acc stats.Running
	// Each picked IO is a batch of one through the shared retry loop, so the
	// response time (measured from the original submission) includes the
	// backoff of its retries; the scratch outlives the loop so it is
	// allocated once.
	var ios [1]device.IO
	var dones [1]time.Duration
	total := 0
	for {
		// Earliest-submission process goes next; ties resolved by index
		// for determinism.
		var pick *proc
		for _, pr := range procs {
			if pr.issued >= perProc {
				continue
			}
			if pick == nil || pr.next < pick.next {
				pick = pr
			}
		}
		if pick == nil {
			break
		}
		io, ok := pick.src.Next()
		if !ok {
			pick.issued = perProc
			continue
		}
		t := pick.next
		ios[0], dones[0] = io, t
		if err := device.SubmitBatchRetry(context.Background(), dev, t, ios[:], dones[:], device.DefaultRetryPolicy, &run.Faults); err != nil {
			var be *device.BatchError
			if errors.As(err, &be) {
				err = be.Err
			}
			return nil, fmt.Errorf("core: parallel IO %d: %w", total, err)
		}
		done := dones[0]
		rt := done - t
		run.RTs = append(run.RTs, rt)
		if total >= p.IOIgnore {
			acc.AddDuration(rt)
		}
		pick.issued++
		pick.next = done + timing.gapBefore(pick.issued)
		total++
		if run.Total < done-startAt {
			run.Total = done - startAt
		}
	}
	if len(run.RTs) == 0 {
		return nil, fmt.Errorf("core: parallel run produced no IOs")
	}
	if run.IOIgnore >= len(run.RTs) {
		// Rounding of perProc can leave fewer merged IOs than the global
		// ignore; fall back to summarizing the whole series, as Execute does.
		run.IOIgnore = 0
		acc = stats.Running{}
		for _, rt := range run.RTs {
			acc.AddDuration(rt)
		}
	}
	run.Summary = acc.Summary()
	return run, nil
}

// ExecuteMix runs two patterns interleaved with the given ratio (Ratio IOs
// of a per IO of b). Per the methodology, the run length is scaled so the
// minority pattern still receives enough IOs.
func ExecuteMix(dev device.Device, a, b Pattern, ratio int, startAt time.Duration) (*Run, error) {
	if ratio < 1 {
		return nil, fmt.Errorf("core: mix ratio must be >= 1, got %d", ratio)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: mix pattern #1: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("core: mix pattern #2: %w", err)
	}
	src := NewMixSource(a.Source(), b.Source(), ratio)
	count := a.IOCount + b.IOCount
	if count > a.IOCount*(ratio+1)/ratio {
		count = a.IOCount * (ratio + 1) / ratio
	}
	ignore := a.IOIgnore * (ratio + 1) / ratio
	if ignore >= count {
		ignore = count / 4
	}
	run, err := Execute(dev, src, count, ignore, Timing{Pause: a.Pause, Burst: a.Burst}, startAt)
	if err != nil {
		return nil, err
	}
	run.Name = fmt.Sprintf("%s/%s ratio=%d", a.Name, b.Name, ratio)
	return run, nil
}

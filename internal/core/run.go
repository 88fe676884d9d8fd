package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"uflip/internal/device"
	"uflip/internal/stats"
	"uflip/internal/trace"
)

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

// Scratch is the reusable state of one worker's runs: the IO batch an
// executor hands its device, the pattern sources it draws IOs from with
// their random generators, and a replay's decode buffer. The engine takes
// one per worker from a RunState, so a run allocates only its Run and,
// outside a kept RunState, its response times. A run resets every source it
// opens and reseeds its generator, and a replay decodes every op it reads,
// so a result never depends on what the scratch served before. The zero
// value is ready to use; a Scratch serves one run at a time.
type Scratch struct {
	// Segment is the buffer a replayed trace segment is decoded into
	// (workload.SegmentDecoder).
	Segment SegmentBuf

	state *RunState // whose Series the runs' response times come from
	ios   []device.IO
	srcs  []*patternSource
	mix   MixSource
}

// SegmentBuf is one worker's decode scratch: the ops of the trace segment
// being replayed and the raw bytes they are read through. The zero value is
// ready for use; a buffer must not be shared by concurrent calls.
type SegmentBuf struct {
	Ops []trace.BlockOp
	Raw []byte
}

// Batch returns the scratch's IO batch, device.DriveBatch long. It is what
// every executor hands device.Drive, so it is free again once a run returns.
func (sc *Scratch) Batch() []device.IO {
	if sc.ios == nil {
		sc.ios = make([]device.IO, device.DriveBatch)
	}
	return sc.ios
}

// source returns the scratch's k-th pattern source, reset to the start of p.
// A run opens its sources as 0, 1, ...; each stays valid until the scratch's
// next run opens the same k.
func (sc *Scratch) source(k int, p *Pattern) *patternSource {
	for len(sc.srcs) <= k {
		sc.srcs = append(sc.srcs, new(patternSource))
	}
	s := sc.srcs[k]
	s.reset(p)
	return s
}

// Execute runs count IOs from src against dev starting at virtual time
// startAt, measuring each IO individually. The IOs go to the device through
// sc's batch, and the response times land in a window of its RunState.
func Execute(sc *Scratch, dev device.Device, src IOSource, count, ignore int, timing Timing, startAt time.Duration) (*Run, error) {
	if count <= 0 {
		return nil, fmt.Errorf("core: IOCount must be positive, got %d", count)
	}
	if ignore < 0 || ignore >= count {
		return nil, fmt.Errorf("core: IOIgnore %d out of range for IOCount %d", ignore, count)
	}
	run := &Run{
		Device:   dev.Name(),
		RTs:      sc.state.Take(count),
		IOIgnore: ignore,
	}
	// Closed loop: IO i+1 goes in at the completion of IO i plus the
	// methodology gap, so each IO's slot of run.RTs starts as its ChainAfter
	// encoding and Drive leaves its response time there. The IOs are built
	// in the worker's batch (anything handed to a Device escapes to the
	// heap, so a batch per run would be an allocation per run).
	ios := sc.Batch()
	exhausted := false
	end, err := device.Drive(context.Background(), dev, startAt, &run.Faults, func(time.Duration) ([]device.IO, []time.Duration, error) {
		if exhausted {
			return nil, nil, nil
		}
		base := len(run.RTs)
		batch := ios[:min(count-base, len(ios))]
		win := run.RTs[base : base+len(batch)]
		for n := range batch {
			io, ok := src.Next()
			if !ok {
				exhausted, batch, win = true, batch[:n], win[:n]
				break
			}
			batch[n] = io
			gap := time.Duration(0)
			if base+n > 0 {
				gap = timing.gapBefore(base + n)
			}
			win[n] = device.ChainAfter(gap)
		}
		run.RTs = run.RTs[:base+len(win)]
		return batch, win, nil
	})
	if err != nil {
		var be *device.BatchError
		if errors.As(err, &be) {
			return nil, fmt.Errorf("core: IO %d (%s off=%d size=%d): %w", be.Index, be.IO.Mode, be.IO.Off, be.IO.Size, be.Err)
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(run.RTs) == 0 {
		return nil, fmt.Errorf("core: source produced no IOs")
	}
	if ignore >= len(run.RTs) {
		run.IOIgnore = 0
	}
	run.Summary = stats.Summarize(run.RTs[run.IOIgnore:])
	run.Total = end - startAt
	return run, nil
}

// ExecutePattern validates and runs a single pattern on sc.
func ExecutePattern(sc *Scratch, dev device.Device, p Pattern, startAt time.Duration) (*Run, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	run, err := Execute(sc, dev, sc.source(0, &p), p.IOCount, p.IOIgnore, Timing{Pause: p.Pause, Burst: p.Burst}, startAt)
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
// all processes are reported in global submission order. The processes'
// sources are sc's first degree sources.
func ExecuteParallel(sc *Scratch, dev device.Device, p Pattern, degree int, startAt time.Duration) (*Run, error) {
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
		src    *patternSource
		next   time.Duration
		issued int
	}
	procs := make([]proc, degree)
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
		procs[i] = proc{src: sc.source(i, &sub), next: startAt}
	}
	run := &Run{
		Name:     p.Name + "||" + strconv.Itoa(degree),
		Device:   dev.Name(),
		RTs:      sc.state.Take(perProc * degree),
		IOIgnore: p.IOIgnore,
	}
	timing := Timing{Pause: p.Pause, Burst: p.Burst}
	// Each picked IO is a batch of one at its process's next submission
	// time, so its response time (measured from that submission) includes
	// the backoff of its retries; the completion Drive hands back schedules
	// the picked process's next IO.
	ios := sc.Batch()[:1]
	var pick *proc
	end, err := device.Drive(context.Background(), dev, startAt, &run.Faults, func(last time.Duration) ([]device.IO, []time.Duration, error) {
		if pick != nil {
			pick.issued++
			pick.next = last + timing.gapBefore(pick.issued)
		}
		for {
			// Earliest-submission process goes next; ties resolved by
			// index for determinism. The scan keeps its candidate in a
			// local: pick lives in the closure's context.
			var p *proc
			for i := range procs {
				if pr := &procs[i]; pr.issued < perProc && (p == nil || pr.next < p.next) {
					p = pr
				}
			}
			if pick = p; p == nil {
				return nil, nil, nil
			}
			io, ok := p.src.Next()
			if !ok {
				p.issued = perProc
				continue
			}
			ios[0] = io
			run.RTs = append(run.RTs, p.next)
			return ios, run.RTs[len(run.RTs)-1:], nil
		}
	})
	if err != nil {
		var be *device.BatchError
		if errors.As(err, &be) {
			err = be.Err
		}
		return nil, fmt.Errorf("core: parallel IO %d: %w", len(run.RTs)-1, err)
	}
	if len(run.RTs) == 0 {
		return nil, fmt.Errorf("core: parallel run produced no IOs")
	}
	if run.IOIgnore >= len(run.RTs) {
		// Rounding of perProc can leave fewer merged IOs than the global
		// ignore; fall back to summarizing the whole series, as Execute does.
		run.IOIgnore = 0
	}
	run.Summary = stats.Summarize(run.RTs[run.IOIgnore:])
	run.Total = end - startAt
	return run, nil
}

// ExecuteMix runs two patterns interleaved with the given ratio (Ratio IOs
// of a per IO of b). Per the methodology, the run length is scaled so the
// minority pattern still receives enough IOs. a and b are sc's first two
// sources.
func ExecuteMix(sc *Scratch, dev device.Device, a, b Pattern, ratio int, startAt time.Duration) (*Run, error) {
	if ratio < 1 {
		return nil, fmt.Errorf("core: mix ratio must be >= 1, got %d", ratio)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: mix pattern #1: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("core: mix pattern #2: %w", err)
	}
	sc.mix = NewMixSource(sc.source(0, &a), sc.source(1, &b), ratio)
	count := a.IOCount + b.IOCount
	if count > a.IOCount*(ratio+1)/ratio {
		count = a.IOCount * (ratio + 1) / ratio
	}
	ignore := a.IOIgnore * (ratio + 1) / ratio
	if ignore >= count {
		ignore = count / 4
	}
	run, err := Execute(sc, dev, &sc.mix, count, ignore, Timing{Pause: a.Pause, Burst: a.Burst}, startAt)
	if err != nil {
		return nil, err
	}
	run.Name = a.Name + "/" + b.Name + " ratio=" + strconv.Itoa(ratio)
	return run, nil
}

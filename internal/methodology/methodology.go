// Package methodology implements the uFLIP benchmarking methodology of
// Section 4 of the paper: enforcing a well-defined device state before
// measuring (4.1), sizing runs around the start-up/running two-phase model
// (4.2), and determining the pause needed between runs so asynchronous
// device work does not make consecutive experiments interfere (4.3), plus
// the benchmark plan that sequences experiments, target spaces and state
// resets. Executing a plan is the engine's job (engine.ExecutePlan, reached
// through paperexp.RunBenchmark): every run starts from the enforced state on
// a device of its own.
package methodology

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/stats"
)

// EnforceRandomState writes the whole device once with random IOs of random
// size (0.5 KB up to the 128 KB flash block size), the paper's preferred
// initial state: afterwards the FTL maps are filled and well-defined, and
// the state is stable because only sequential writes disturb it
// significantly. Returns the virtual time the fill took (for the paper's
// devices this ranged from 5 hours to 35 days!).
func EnforceRandomState(dev device.Device, seed int64) (time.Duration, error) {
	return enforceState(dev, seed, true)
}

// EnforceSequentialState rewrites the device sequentially with 128 KB IOs,
// the faster but less stable alternative Section 4.1 discusses.
func EnforceSequentialState(dev device.Device, seed int64) (time.Duration, error) {
	return enforceState(dev, seed, false)
}

func enforceState(dev device.Device, seed int64, random bool) (time.Duration, error) {
	const blockSize = 128 * 1024
	capacity := dev.Capacity()
	if capacity <= 0 {
		return 0, fmt.Errorf("methodology: state enforcement: device %s has no capacity", dev.Name())
	}
	rng := rand.New(rand.NewSource(seed))
	var written int64
	var off int64
	// The fill IOs are a pure function of the RNG stream (never of
	// completion times), so they are generated a batch ahead and submitted
	// closed-loop — each at the previous completion — through one reused
	// window whose response times nobody reads. Transient faults during the
	// fill are retried like everywhere else; enforcement is not part of any
	// measured run, so they are not counted.
	var ios [device.DriveBatch]device.IO
	var win [device.DriveBatch]time.Duration
	t, err := device.Drive(context.Background(), dev, 0, nil, func(time.Duration) ([]device.IO, []time.Duration, error) {
		n := 0
		for n < len(ios) && written < capacity {
			var io device.IO
			if random {
				size := (rng.Int63n(blockSize/512) + 1) * 512
				// Devices smaller than the drawn IO (or smaller than one
				// flash block) get the IO clamped to their capacity; without
				// the clamp the slot bound below would be non-positive and
				// Int63n panics.
				if size > capacity {
					size = capacity
				}
				var slot int64
				if maxSlots := (capacity - size) / 512; maxSlots > 0 {
					slot = rng.Int63n(maxSlots)
				}
				io = device.IO{Mode: device.Write, Off: slot * 512, Size: size}
			} else {
				size := int64(blockSize)
				if remaining := capacity - off; size > remaining {
					// Align the tail IO down to the 512 B sector so unaligned
					// capacities never produce sub-sector IOs; the sub-sector
					// remainder is unreachable at this addressing granularity
					// and is skipped deterministically.
					size = remaining &^ 511
					if size == 0 {
						if off > 0 {
							written = capacity // sequential fill complete
							break
						}
						size = remaining // device smaller than one sector
					}
				}
				io = device.IO{Mode: device.Write, Off: off, Size: size}
				off += size
			}
			ios[n] = io
			win[n] = device.ChainNext
			written += io.Size
			n++
		}
		return ios[:n], win[:n], nil
	})
	if err != nil {
		var be *device.BatchError
		if errors.As(err, &be) {
			err = be.Err
		}
		return t, fmt.Errorf("methodology: state enforcement: %w", err)
	}
	return t, nil
}

// PhaseReport holds the start-up/running analysis of the four baseline
// patterns (Section 4.2) and the IOIgnore/IOCount values derived from it.
type PhaseReport struct {
	Device   string
	Baseline map[core.Baseline]stats.PhaseAnalysis
	// IOIgnore covers the longest start-up phase observed across the
	// baselines (the paper used 0 for most devices, 30 and 128 for the
	// Memoright and Mtron random writes).
	IOIgnore map[core.Baseline]int
	// IOCount covers enough oscillation periods for the mean to converge
	// (1,024 for stable patterns, 5,120 for oscillating random writes in
	// the paper).
	IOCount map[core.Baseline]int
	// End is the virtual time when the measurement finished.
	End time.Duration
}

// MeasurePhases runs the four baselines with a large IOCount and applies the
// two-phase model, deriving IOIgnore and IOCount per baseline.
func MeasurePhases(dev device.Device, d core.Defaults, probeCount int, startAt time.Duration) (*PhaseReport, error) {
	if probeCount <= 0 {
		probeCount = 4096
	}
	rep := &PhaseReport{
		Device:   dev.Name(),
		Baseline: make(map[core.Baseline]stats.PhaseAnalysis),
		IOIgnore: make(map[core.Baseline]int),
		IOCount:  make(map[core.Baseline]int),
	}
	t := startAt
	for _, b := range core.Baselines {
		p := b.Pattern(d)
		p.IOCount = probeCount
		p.IOIgnore = 0
		run, err := core.ExecutePattern(dev, p, t)
		if err != nil {
			return nil, fmt.Errorf("methodology: phase probe %s: %w", b, err)
		}
		t += run.Total + time.Second // conservative gap between probes
		an := stats.AnalyzePhases(run.RTs)
		rep.Baseline[b] = an
		// IOIgnore: round the observed start-up up generously; the cost
		// of overestimating is time, underestimating is wrong results.
		ignore := an.StartUp + an.StartUp/4
		rep.IOIgnore[b] = ignore
		count := 1024
		if an.Oscillates {
			count = 5120
			if an.Period > 0 && count < 40*an.Period {
				count = 40 * an.Period
			}
		}
		if count <= ignore*2 {
			count = ignore*2 + 1024
		}
		rep.IOCount[b] = count
	}
	rep.End = t
	return rep, nil
}

// PauseReport is the outcome of the no-interference measurement of
// Section 4.3 (Figure 5): sequential reads, a batch of random writes, then
// sequential reads again; the lingering effect of the writes on the second
// read batch dictates the pause between runs.
type PauseReport struct {
	Device string
	// BaselineRead is the mean SR response time before the write batch.
	BaselineRead time.Duration
	// LingerIOs is how many reads of the second batch were still
	// affected.
	LingerIOs int
	// LingerTime is the duration of the lingering effect.
	LingerTime time.Duration
	// RecommendedPause deliberately overestimates (the paper doubles and
	// rounds up, with a 1 s conservative floor).
	RecommendedPause time.Duration
	// Trace is the full response-time series (reads, writes, reads),
	// which regenerates Figure 5. ReadsBefore and Writes delimit it.
	Trace       []time.Duration
	ReadsBefore int
	Writes      int
	End         time.Duration
}

// MeasurePause runs the SR / RW-batch / SR experiment and derives the pause
// to insert between benchmark runs.
func MeasurePause(dev device.Device, d core.Defaults, startAt time.Duration) (*PauseReport, error) {
	const (
		readsBefore = 2000
		writeBatch  = 1000
		readsAfter  = 11000
	)
	rep := &PauseReport{Device: dev.Name(), ReadsBefore: readsBefore, Writes: writeBatch}
	t := startAt

	runSeq := func(count int, off int64) (*core.Run, error) {
		p := core.SR.Pattern(d)
		p.IOCount = count
		// On scaled-down capacities the second batch's offset (placed after
		// the first batch's span) can land beyond the device; start over at
		// the beginning instead of failing.
		if off+d.IOSize > dev.Capacity() {
			off = 0
		}
		p.TargetOffset = off
		// Wrap within the device when the read batch exceeds it.
		p.TargetSize = int64(count) * d.IOSize
		if avail := dev.Capacity() - off; p.TargetSize > avail {
			p.TargetSize = avail - avail%d.IOSize
		}
		return core.ExecutePattern(dev, p, t)
	}
	before, err := runSeq(readsBefore, 0)
	if err != nil {
		return nil, fmt.Errorf("methodology: pause probe reads: %w", err)
	}
	t += before.Total
	rep.BaselineRead = time.Duration(before.Summary.Mean * float64(time.Second))

	w := core.RW.Pattern(d)
	w.IOCount = writeBatch
	writes, err := core.ExecutePattern(dev, w, t)
	if err != nil {
		return nil, fmt.Errorf("methodology: pause probe writes: %w", err)
	}
	t += writes.Total

	after, err := runSeq(readsAfter, int64(readsBefore)*d.IOSize)
	if err != nil {
		return nil, fmt.Errorf("methodology: pause probe reads after: %w", err)
	}

	rep.LingerIOs = stats.LingerLength(after.RTs, before.Summary.Mean, 1.25, 16)
	for _, rt := range after.RTs[:rep.LingerIOs] {
		rep.LingerTime += rt
	}
	rep.RecommendedPause = 2 * rep.LingerTime
	if rep.RecommendedPause < time.Second {
		rep.RecommendedPause = time.Second
	}
	rep.Trace = append(rep.Trace, before.RTs...)
	rep.Trace = append(rep.Trace, writes.RTs...)
	rep.Trace = append(rep.Trace, after.RTs...)
	rep.End = t + after.Total
	return rep, nil
}

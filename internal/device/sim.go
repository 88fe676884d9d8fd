package device

import (
	"fmt"
	"time"

	"uflip/internal/ftl"
)

// BusConfig models the interconnect and controller front-end: a fixed
// per-command overhead plus a transfer rate per direction. This is the
// latency Hint 1 of the paper attributes to the software layers even in the
// absence of mechanical parts.
type BusConfig struct {
	CmdLatency     time.Duration
	ReadBytesPerS  float64
	WriteBytesPerS float64
}

func (b BusConfig) validate() error {
	if b.CmdLatency < 0 || b.ReadBytesPerS <= 0 || b.WriteBytesPerS <= 0 {
		return fmt.Errorf("device: invalid bus config %+v", b)
	}
	return nil
}

func (b BusConfig) transfer(m Mode, bytes int64) time.Duration {
	rate := b.ReadBytesPerS
	if m == Write {
		rate = b.WriteBytesPerS
	}
	return time.Duration(float64(bytes) / rate * float64(time.Second))
}

// SimConfig assembles a simulated device.
type SimConfig struct {
	Name string
	Bus  BusConfig
	// WriteBack acknowledges writes once transferred to the controller,
	// letting flash work proceed in the background (bounded by
	// MaxFlashLag). Devices with controller RAM behave this way; simple
	// USB sticks are write-through.
	WriteBack bool
	// MaxFlashLag bounds how far the background flash stage may run behind
	// the bus before new IOs wait for it; a write-back device needs a
	// positive bound. Only write-back devices read it: a write-through
	// device's flash stage never runs behind its bus.
	MaxFlashLag time.Duration
}

// SimState is everything about a SimDevice that changes as it runs, beside the
// translation stack, which keeps its own: the pipeline clocks and the IO count.
type SimState struct {
	BusFree   time.Duration
	FlashFree time.Duration
	IdleMark  time.Duration // time up to which idle has been granted
	IOs       int64
}

// audit states the device's invariant: virtual time and counts start at
// zero and only grow.
func (s *SimState) audit() error {
	if s.BusFree < 0 || s.FlashFree < 0 || s.IdleMark < 0 || s.IOs < 0 {
		return fmt.Errorf("device: simulated device state has a negative clock or count: %+v", *s)
	}
	return nil
}

// simConfig is what a SimDevice is built as.
type simConfig struct {
	SimConfig
	model ftl.CostModel
	// capacity is the stack's logical size, immutable for every translation
	// layer, resolved once instead of through the stack on every IO.
	capacity int64
}

// SimDevice is the full flash device simulator: bus front-end, optional
// write cache, a flash translation layer, and NAND chips underneath. All
// timing is virtual and deterministic.
//
// The device is modelled as a two-stage pipeline: the bus/controller stage
// and the flash stage. Write-back devices complete a write when the bus
// stage finishes and run the flash operations in the background; the flash
// backlog is bounded by MaxFlashLag, which throttles sustained writes to the
// flash-stage rate (as a full cache does on a real device). Write-through
// devices (and all reads) overlap the transfer with the flash work of the
// same IO and complete when the longer of the two finishes.
type SimDevice struct {
	cfg simConfig
	top ftl.Translator
	st  SimState
}

// NewSimDevice assembles a simulated device over a translation stack.
func NewSimDevice(cfg SimConfig, top ftl.Translator, model ftl.CostModel) (*SimDevice, error) {
	if err := cfg.Bus.validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "sim"
	}
	if cfg.WriteBack && cfg.MaxFlashLag <= 0 {
		return nil, fmt.Errorf("device %s: a write-back device needs a positive MaxFlashLag", cfg.Name)
	}
	return &SimDevice{cfg: simConfig{SimConfig: cfg, model: model, capacity: top.Capacity()}, top: top}, nil
}

// ResetFrom implements device.Resettable: d becomes a deep copy of src — a
// SimDevice — with the translation stack reset in place where it can be and
// cloned afresh otherwise; d may be a zero value.
func (d *SimDevice) ResetFrom(src Device) bool {
	s, ok := src.(*SimDevice)
	if !ok {
		return false
	}
	d.top = ftl.ResetTranslator(d.top, s.top)
	d.cfg, d.st = s.cfg, s.st
	return true
}

// CloneDevice implements device.Cloneable: a deep copy of the whole simulated
// device — the translation stack, the flash chips underneath and the bus/flash
// pipeline clocks — that resumes from exactly the original's virtual-time
// state. Copying an enforced device is how the engine gives every shard a
// private well-defined initial state without replaying the enforcement IOs.
func (d *SimDevice) CloneDevice() Device {
	g := &SimDevice{}
	g.ResetFrom(d)
	return g
}

// Capacity returns the logical device size.
func (d *SimDevice) Capacity() int64 { return d.cfg.capacity }

// SectorSize returns 512, the paper's addressing granularity.
func (d *SimDevice) SectorSize() int { return 512 }

// Name returns the configured device name.
func (d *SimDevice) Name() string { return d.cfg.Name }

// Top returns the top of the translation stack (for tests and ablations).
func (d *SimDevice) Top() ftl.Translator { return d.top }

// IOs returns the number of IOs serviced.
func (d *SimDevice) IOs() int64 { return d.st.IOs }

// SubmitBatch services a slice of IOs through SerialSubmitBatch (see
// Device.SubmitBatch for the done encoding).
func (d *SimDevice) SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error {
	return SerialSubmitBatch(d, at, ios, done)
}

// Submit services one IO at virtual time at through the two-stage pipeline.
//
//uflint:hotpath
func (d *SimDevice) Submit(at time.Duration, io IO) (time.Duration, error) {
	if err := checkIO(io, d.cfg.capacity); err != nil {
		return 0, err
	}
	d.st.IOs++

	// Grant any host-idle gap to the device's background machinery
	// (asynchronous reclamation).
	if at > d.st.IdleMark {
		gap := at - d.st.IdleMark
		if d.st.BusFree > d.st.IdleMark {
			gap = at - d.st.BusFree
		}
		if gap > 0 {
			d.top.Idle(gap)
		}
		d.st.IdleMark = at
	}

	start := at
	if d.st.BusFree > start {
		start = d.st.BusFree
	}
	// Throttle when the background flash stage is too far behind.
	if d.st.FlashFree > start+d.cfg.MaxFlashLag {
		start = d.st.FlashFree - d.cfg.MaxFlashLag
	}

	var ops ftl.Ops
	if err := ftl.Serve(d.top, io.Mode == Write, io.Off, io.Size, &ops); err != nil {
		return 0, fmt.Errorf("device %s: %w", d.cfg.Name, err)
	}
	opsCost := d.cfg.model.Cost(&ops)
	transfer := d.cfg.Bus.transfer(io.Mode, io.Size)

	var done time.Duration
	if io.Mode == Write && d.cfg.WriteBack {
		// Acknowledged once transferred; the flash work proceeds in the
		// background (already bounded by the MaxFlashLag throttle above).
		done = start + d.cfg.Bus.CmdLatency + transfer
		flashStart := done
		if d.st.FlashFree > flashStart {
			flashStart = d.st.FlashFree
		}
		d.st.FlashFree = flashStart + opsCost
		d.st.BusFree = done
	} else {
		// Write-through writes and all reads are synchronous: command,
		// media work and transfer in series. (Pipelining of contiguous
		// accesses is already folded into the cost model via
		// SeqReadFactor and the host/merge program split.)
		done = start + d.cfg.Bus.CmdLatency + transfer + opsCost
		if io.Mode == Read && d.st.FlashFree > start {
			// Deferred background work (write-back destaging, merges,
			// reclamation) contends with the read for the chips: the
			// read stretches by up to its own service time while the
			// backlog lasts — the lingering effect of Figure 5.
			extra := transfer + opsCost
			if backlog := d.st.FlashFree - start; extra > backlog {
				extra = backlog
			}
			done += extra
		}
		d.st.BusFree = done
		if d.st.FlashFree < done {
			d.st.FlashFree = done
		}
	}
	if d.st.IdleMark < done {
		d.st.IdleMark = done
	}
	return done, nil
}

package paperexp

import (
	"sync"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/methodology"
	"uflip/internal/par"
	"uflip/internal/statestore"
)

// keptDevices bounds the devices a Prepared keeps, and the plans it keeps
// per device; the least recently used goes first. An entry is an
// enforced master — the whole mutable state of its stack — plus its
// calibrations' reports, of which each pause report's 14,000 response times
// (110 KiB) are the bulk, and the copies it lends. Heap in use after a
// collection, enforced master alone: memoright 25 KiB at 64 MiB, 274 KiB at
// 1 GiB and 7.6 MiB at 32 GiB; kingston-dthx 20 KiB, 152 KiB and 4.1 MiB. A
// copy is as large (memoright 24 KiB, 267 KiB and 7.6 MiB), and an entry
// keeps up to one a CPU.
const keptDevices = 4

// Prepared keeps the devices a long-running process has prepared, so that a
// repeated job skips the preparation the paper does once per device: per
// state key (StateKey), the enforced master and its enforcement end
// (Section 4.1), and per plan — the exact core.Defaults it derives and its
// micro-benchmark selection — the phase and pause reports (Sections
// 4.2–4.3), the selected micro-benchmarks and the plan built on them; and
// beside each master the copies of it that earlier jobs' engine workers
// finished on, which a later job's workers reset instead of cloning the
// master (Config.shards). It keeps only what Config.Store holds, so a kept
// device is exactly a store hit. A master is only ever a reset source
// (device.Resettable), never driven, and a kept plan is only ever read, so
// any number of jobs share them; a copy serves one job at a time. The zero
// value is ready to use; a nil *Prepared keeps nothing. It is safe for
// concurrent use.
type Prepared struct {
	mu      sync.Mutex
	devices lru[statestore.Key, *preparedDevice]
}

type preparedDevice struct {
	master device.Cloneable
	at     time.Duration
	plans  lru[planKey, *benchPlan]
	copies []device.Device // the last devices of earlier jobs' engine workers
}

// planKey is a plan's calibration and its micro-benchmark names, joined by
// commas.
type planKey struct {
	d   core.Defaults
	sel string
}

// benchPlan is what a plan runs from: its calibration's reports, the
// selected micro-benchmarks and the plan built from them, its Device set.
type benchPlan struct {
	phases *methodology.PhaseReport
	pause  *methodology.PauseReport
	micros []core.Microbenchmark
	plan   methodology.Plan
}

// lru holds at most keptDevices values by key, the least recently used
// first.
type lru[K comparable, V any] []kept[K, V]

type kept[K comparable, V any] struct {
	key K
	val V
}

// get returns k's value, which becomes the most recently used.
func (l lru[K, V]) get(k K) (v V, ok bool) {
	for i, e := range l {
		if e.key == k {
			copy(l[i:], l[i+1:])
			l[len(l)-1] = e
			return e.val, true
		}
	}
	return v, false
}

// put adds a value for k, which l does not hold, dropping the least recently
// used one when l is full.
func (l *lru[K, V]) put(k K, v V) {
	if len(*l) == keptDevices {
		*l = append((*l)[:0], (*l)[1:]...)
	}
	*l = append(*l, kept[K, V]{k, v})
}

// Master returns the enforced master kept for k and its enforcement end.
func (p *Prepared) Master(k statestore.Key) (device.Cloneable, time.Duration, bool) {
	if p == nil {
		return nil, 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.devices.get(k)
	if !ok {
		return nil, 0, false
	}
	return e.master, e.at, true
}

// Calibration returns the phase and pause reports kept for k's device under d.
func (p *Prepared) Calibration(k statestore.Key, d core.Defaults) (*methodology.PhaseReport, *methodology.PauseReport, bool) {
	if p == nil {
		return nil, nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.devices.get(k); ok {
		for _, c := range e.plans {
			if c.key.d == d {
				return c.val.phases, c.val.pause, true
			}
		}
	}
	return nil, nil, false
}

// plan returns the plan kept for pk on k's device.
func (p *Prepared) plan(k statestore.Key, pk planKey) (*benchPlan, bool) {
	if p == nil {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.devices.get(k); ok {
		return e.plans.get(pk)
	}
	return nil, false
}

// keepMaster keeps master, enforced until at, as k's device. Callers hold k's
// store lock and found nothing kept for k under it.
func (p *Prepared) keepMaster(k statestore.Key, master device.Cloneable, at time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.devices.put(k, &preparedDevice{master: master, at: at})
}

// keepPlan keeps bp as the plan of pk on k's device, unless k has been
// dropped since. Callers hold k's store lock and found no plan kept for pk
// under it.
func (p *Prepared) keepPlan(k statestore.Key, pk planKey, bp *benchPlan) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.devices.get(k); ok {
		e.plans.put(pk, bp)
	}
}

// lend takes a copy of k's master that an earlier job's engine worker
// finished on, or returns nil.
func (p *Prepared) lend(k statestore.Key) (dev device.Device) {
	if p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if e, ok := p.devices.get(k); ok && len(e.copies) > 0 {
			n := len(e.copies) - 1
			dev, e.copies = e.copies[n], e.copies[:n]
		}
	}
	return dev
}

// giveBack keeps devs, the last devices of a job's engine workers on master,
// as copies of k's device while master is k's: one a CPU (par.Workers), as
// many as the jobs that run at once have workers. They go with the master.
func (p *Prepared) giveBack(k statestore.Key, master device.Cloneable, devs []device.Device) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.devices.get(k); ok && e.master == master {
		for _, dev := range devs {
			if dev != nil && len(e.copies) < par.Workers(0) {
				e.copies = append(e.copies, dev)
			}
		}
	}
}

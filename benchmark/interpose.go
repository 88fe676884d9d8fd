package main

import (
	"fmt"
	"sync"
	"time"

	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/ftl"
	"uflip/internal/profile"
	"uflip/internal/workload"
)

// layer names the boundary an interposer sits on.
type layer int

const (
	// layerDevice is the SimDevice boundary: one per plain device or array
	// member.
	layerDevice layer = iota
	// layerComposite wraps the CompositeDevice of an array spec.
	layerComposite
	// layerFaulty wraps the FaultyDevice of a faulty(...) spec.
	layerFaulty
	// layerCacheTop is the ftl.Translator above a WriteCache.
	layerCacheTop
	// layerInner is the ftl.Translator below the cache: PageFTL or BlockFTL
	// with the Array and Chips underneath (ftl.Array is a concrete type, so
	// nothing can be interposed below the FTL).
	layerInner
	numLayers
)

// region tells the sequential part of a job (the probe device the
// methodology measures phases and pause on) from the parallel part (the
// per-shard clones the engine runs on), because only the first adds up to
// job wall time.
type region int

const (
	regionProbe region = iota
	regionShard
	numRegions
)

// part is the accumulator of one interposer clone. Only the goroutine that
// owns the clone writes it; the collector reads it after the job's workers
// have been waited for.
type part struct {
	layer  layer
	region region

	calls int64
	total time.Duration
	max   time.Duration

	ios     int64   // device layers: IOs submitted
	batches int64   // device layers: Submit + SubmitBatch calls
	writes  int64   // translator layers: Write calls
	reads   int64   // translator layers: Read calls
	ops     ftl.Ops // translator layers: sum of the returned Ops
}

func (p *part) observe(d time.Duration) {
	p.calls++
	p.total += d
	if d > p.max {
		p.max = d
	}
}

func (p *part) merge(o *part) {
	p.calls += o.calls
	p.total += o.total
	p.max = max(p.max, o.max)
	p.ios += o.ios
	p.batches += o.batches
	p.writes += o.writes
	p.reads += o.reads
	p.ops.Add(o.ops)
}

// collector owns the parts of every interposer clone made during one job.
// Clones register once, under the mutex; the hot path touches only its own
// part and takes no lock.
type collector struct {
	mu     sync.Mutex
	region region
	parts  []*part
}

// newPart registers a fresh accumulator for a clone made in the current
// region.
func (c *collector) newPart(l layer) *part {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &part{layer: l, region: c.region}
	c.parts = append(c.parts, p)
	return p
}

// reset forgets every registered part and starts a job in the probe
// region. Parts of the long-lived master stack stay valid but unregistered,
// so state enforcement never shows up in a job.
func (c *collector) reset() {
	c.mu.Lock()
	c.parts = nil
	c.region = regionProbe
	c.mu.Unlock()
}

func (c *collector) setRegion(r region) {
	c.mu.Lock()
	c.region = r
	c.mu.Unlock()
}

// layerTotals is the per-(region, layer) sum of a job's parts.
type layerTotals [numRegions][numLayers]part

func (c *collector) totals() layerTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t layerTotals
	for _, p := range c.parts {
		t[p.region][p.layer].merge(p)
	}
	return t
}

// tracedDevice interposes on device.Device. It forwards every call
// unchanged, so completion times and errors are those of the wrapped
// device.
type tracedDevice struct {
	inner device.Device
	layer layer
	col   *collector
	p     *part
}

func newTracedDevice(inner device.Device, l layer, col *collector) *tracedDevice {
	return &tracedDevice{inner: inner, layer: l, col: col, p: col.newPart(l)}
}

func (t *tracedDevice) Submit(at time.Duration, io device.IO) (time.Duration, error) {
	start := time.Now()
	end, err := t.inner.Submit(at, io)
	t.p.observe(time.Since(start))
	t.p.ios++
	t.p.batches++
	return end, err
}

func (t *tracedDevice) SubmitBatch(at time.Duration, ios []device.IO, done []time.Duration) error {
	start := time.Now()
	err := t.inner.SubmitBatch(at, ios, done)
	t.p.observe(time.Since(start))
	t.p.ios += int64(len(ios))
	t.p.batches++
	return err
}

func (t *tracedDevice) Capacity() int64 { return t.inner.Capacity() }
func (t *tracedDevice) SectorSize() int { return t.inner.SectorSize() }
func (t *tracedDevice) Name() string    { return t.inner.Name() }

// CloneDevice clones the wrapped device and gives the clone its own part.
func (t *tracedDevice) CloneDevice() device.Device {
	c, ok := t.inner.(device.Cloneable)
	if !ok {
		panic(fmt.Sprintf("benchmark: traced device %s is not cloneable", t.inner.Name()))
	}
	return newTracedDevice(c.CloneDevice(), t.layer, t.col)
}

// Drain forwards so a composite above sees through the interposer.
func (t *tracedDevice) Drain() time.Duration {
	if dr, ok := t.inner.(interface{ Drain() time.Duration }); ok {
		return dr.Drain()
	}
	return 0
}

// tracedTranslator interposes on ftl.Translator.
type tracedTranslator struct {
	inner ftl.Translator
	layer layer
	col   *collector
	p     *part //uflint:scratch — an accumulator, not state: every clone registers a fresh one
}

func newTracedTranslator(inner ftl.Translator, l layer, col *collector) *tracedTranslator {
	return &tracedTranslator{inner: inner, layer: l, col: col, p: col.newPart(l)}
}

func (t *tracedTranslator) Read(off, length int64) (ftl.Ops, error) {
	start := time.Now()
	ops, err := t.inner.Read(off, length)
	t.p.observe(time.Since(start))
	t.p.reads++
	t.p.ops.Add(ops)
	return ops, err
}

func (t *tracedTranslator) Write(off, length int64) (ftl.Ops, error) {
	start := time.Now()
	ops, err := t.inner.Write(off, length)
	t.p.observe(time.Since(start))
	t.p.writes++
	t.p.ops.Add(ops)
	return ops, err
}

// Idle is timed too: asynchronous reclamation and cache destaging run in it.
func (t *tracedTranslator) Idle(d time.Duration) {
	start := time.Now()
	t.inner.Idle(d)
	t.p.observe(time.Since(start))
}

func (t *tracedTranslator) Capacity() int64 { return t.inner.Capacity() }

func (t *tracedTranslator) Clone() ftl.Translator {
	return newTracedTranslator(t.inner.Clone(), t.layer, t.col)
}

// buildTracedProfile assembles p's stack with the constructors
// profile.Profile.BuildWithCapacity uses, an interposer below the cache,
// one above it and one around the SimDevice. A profile field this function
// forgets changes the simulated results, which the interposer-equivalence
// test and the traced run's sim_digest both catch.
func buildTracedProfile(p profile.Profile, logical int64, col *collector) (*tracedDevice, error) {
	if logical <= 0 {
		return nil, fmt.Errorf("profile %s: capacity must be positive", p.Key)
	}
	const blockSize = int64(128 * 1024)
	var headroomBlocks int64
	switch p.Kind {
	case profile.PageMapped:
		headroomBlocks = int64(p.Page.ReserveBlocks + p.Page.WritePoints + 4)
	case profile.BlockMapped:
		headroomBlocks = int64(p.Block.LogBlocks + 4)
	default:
		return nil, fmt.Errorf("profile %s: unknown FTL kind %d", p.Key, p.Kind)
	}
	arr, err := ftl.NewUniformArray(p.Chips, p.Cell, logical+headroomBlocks*blockSize)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", p.Key, err)
	}
	var top ftl.Translator
	switch p.Kind {
	case profile.PageMapped:
		cfg := p.Page
		cfg.LogicalBytes = logical
		f, err := ftl.NewPageFTL(arr, cfg, p.Cost)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Key, err)
		}
		top = f
	case profile.BlockMapped:
		cfg := p.Block
		cfg.LogicalBytes = logical
		f, err := ftl.NewBlockFTL(arr, cfg, p.Cost)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Key, err)
		}
		top = f
	}
	top = newTracedTranslator(top, layerInner, col)
	if p.Cache != nil {
		c, err := ftl.NewWriteCache(top, *p.Cache, p.Cost)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Key, err)
		}
		top = newTracedTranslator(c, layerCacheTop, col)
	}
	sim := p.Sim
	sim.Name = p.Key
	dev, err := device.NewSimDevice(sim, top, p.Cost)
	if err != nil {
		return nil, err
	}
	return newTracedDevice(dev, layerDevice, col), nil
}

// buildTracedDevice is profile.BuildDevice with interposers: around every
// SimDevice, around the composite of an array spec and around the wrapper
// of a faulty spec.
func buildTracedDevice(spec string, capacity int64, col *collector) (*tracedDevice, error) {
	switch {
	case profile.IsFaultySpec(spec):
		s, err := profile.ParseFaultySpec(spec)
		if err != nil {
			return nil, err
		}
		inner, err := buildTracedDevice(s.Inner, capacity, col)
		if err != nil {
			return nil, err
		}
		cfg := s.Cfg
		cfg.Name = s.String()
		cfg.ErrOps = append([]int64(nil), s.Cfg.ErrOps...)
		return newTracedDevice(device.NewFaulty(cfg, inner), layerFaulty, col), nil
	case profile.IsArraySpec(spec):
		s, err := profile.ParseArraySpec(spec)
		if err != nil {
			return nil, err
		}
		members := make([]device.Device, len(s.MemberKeys))
		for i, key := range s.MemberKeys {
			if members[i], err = buildTracedDevice(key, capacity, col); err != nil {
				return nil, err
			}
		}
		comp, err := device.NewComposite(device.CompositeConfig{
			Name:       s.String(),
			Layout:     s.Layout,
			ChunkBytes: s.ChunkBytes,
			QueueDepth: s.QueueDepth,
		}, members)
		if err != nil {
			return nil, err
		}
		return newTracedDevice(comp, layerComposite, col), nil
	default:
		p, err := profile.ByKey(spec)
		if err != nil {
			return nil, err
		}
		return buildTracedProfile(p, capacity, col)
	}
}

// tracedFactory interposes on engine.DeviceFactory: the span covers the
// wait for the master's lock plus the deep copy, once per shard.
func tracedFactory(f engine.DeviceFactory, jt *jobTrace, parent int) engine.DeviceFactory {
	return func(s engine.Shard) (device.Device, time.Duration, error) {
		start := time.Now()
		dev, at, err := f(s)
		jt.add("engine.clone", parent, start, time.Now())
		return dev, at, err
	}
}

// tracedSource interposes on workload.Source.
type tracedSource struct {
	workload.Source
	jt     *jobTrace
	parent int
}

func (t tracedSource) Segment(start, n int) ([]workload.Op, error) {
	begin := time.Now()
	ops, err := t.Source.Segment(start, n)
	t.jt.add("workload.segment", t.parent, begin, time.Now())
	return ops, err
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/statestore"
	"uflip/internal/stats"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// The drivers time each layer's exported functions in isolation, in the
// layer's own unit. Every driver does a fixed number of operations, repeats
// it driverRepeats times and reports the median, so one slow repeat on a
// shared box does not move the number. Ratios that come from the layers'
// own counters (write amplification, merge shares, hit shares) are exact
// and repeat bit for bit.
const driverRepeats = 5

// driverSeed fixes the drivers' random streams: the drivers measure the
// code, not the workload seed.
const driverSeed = 1

// driverDefs lists the drivers' metrics in report order.
var driverDefs = []metricDef{
	{name: "flash.program_ns_per_page", unit: "ns", better: "lower"},
	{name: "flash.read_ns_per_page", unit: "ns", better: "lower"},
	{name: "flash.erase_ns_per_block", unit: "ns", better: "lower"},
	{name: "array.program_ns_per_page", unit: "ns", better: "lower"},
	{name: "array.read_ns_per_page", unit: "ns", better: "lower"},
	{name: "pageftl.write_seq_ns_per_page", unit: "ns", better: "lower"},
	{name: "pageftl.write_rand_ns_per_page", unit: "ns", better: "lower"},
	{name: "pageftl.read_ns_per_page", unit: "ns", better: "lower"},
	{name: "pageftl.write_amp_rand", unit: "ratio", better: "lower"},
	{name: "pageftl.gc_per_kwrite", unit: "count", better: "lower"},
	{name: "blockftl.write_seq_ns_per_page", unit: "ns", better: "lower"},
	{name: "blockftl.write_rand_ns_per_page", unit: "ns", better: "lower"},
	{name: "blockftl.read_ns_per_page", unit: "ns", better: "lower"},
	{name: "blockftl.merges_per_kwrite", unit: "count", better: "lower"},
	{name: "blockftl.switch_merge_share", unit: "ratio", better: "higher"},
	{name: "cache.write_hit_ns_per_io", unit: "ns", better: "lower"},
	{name: "cache.write_stream_ns_per_io", unit: "ns", better: "lower"},
	{name: "cache.hit_share_focused", unit: "ratio", better: "higher"},
	{name: "simdevice.batch_ns_per_io", unit: "ns", better: "lower"},
	{name: "simdevice.submit_ns_per_io", unit: "ns", better: "lower"},
	{name: "simdevice.batch_allocs", unit: "count", better: "lower"},
	{name: "composite.stripe_ns_per_io", unit: "ns", better: "lower"},
	{name: "composite.mirror_ns_per_io", unit: "ns", better: "lower"},
	{name: "faulty.noop_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "clone.us_per_mb.page", unit: "us/MB", better: "lower"},
	{name: "clone.us_per_mb.block", unit: "us/MB", better: "lower"},
	{name: "snapshot_restore.us_per_mb", unit: "us/MB", better: "lower"},
	{name: "engine.clone_contention_ratio", unit: "ratio", better: "lower"},
	{name: "engine.jobs_overhead_us", unit: "us", better: "lower"},
	{name: "statestore.save_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "statestore.load_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "trace.utr_scan_mrec_per_s", unit: "Mrec/s", better: "higher"},
	{name: "trace.csv_scan_mrec_per_s", unit: "Mrec/s", better: "higher"},
	{name: "trace.summary_csv_us_per_run", unit: "us", better: "lower"},
	{name: "trace.json_us_per_run", unit: "us", better: "lower"},
	{name: "stats.percentiles_ns_per_sample", unit: "ns", better: "lower"},
	{name: "stats.summarize_ns_per_sample", unit: "ns", better: "lower"},
	{name: "report.plan_section_ms", unit: "ms", better: "lower"},
}

// repeatMedian calls fn driverRepeats times and returns the median of each
// of the values it returns.
func repeatMedian(fn func() ([]float64, error)) ([]float64, error) {
	var cols [][]float64
	for range driverRepeats {
		vals, err := fn()
		if err != nil {
			return nil, err
		}
		if cols == nil {
			cols = make([][]float64, len(vals))
		}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
	}
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = median(c)
	}
	return out, nil
}

// perOp is the elapsed time since start divided over n operations, in ns.
func perOp(start time.Time, n int) float64 {
	return float64(time.Since(start)) / float64(n)
}

// runDrivers runs every driver and returns the metrics by name.
func runDrivers() (map[string]float64, error) {
	out := make(map[string]float64, len(driverDefs))
	for _, d := range []func(map[string]float64) error{
		driveFlash, driveArray, drivePageFTL, driveBlockFTL, driveCache,
		driveSimDevice, driveComposite, driveClone, driveEngine,
		driveStateStore, driveTrace, driveStats,
	} {
		if err := d(out); err != nil {
			return nil, fmt.Errorf("drivers: %w", err)
		}
		// Each driver leaves tens of MB of garbage; collect it now so the
		// next driver's timing does not pay for it.
		runtime.GC()
	}
	for _, def := range driverDefs {
		if _, ok := out[def.name]; !ok {
			return nil, fmt.Errorf("drivers: no driver reported %s", def.name)
		}
	}
	return out, nil
}

// driveFlash fills a chip page by page, reads it back and erases it, over
// and over: Chip.ProgramPage, ReadPage and EraseBlock, SLC 2 KiB x 64.
func driveFlash(out map[string]float64) error {
	geo := flash.Geometry{PageSize: 2048, OOBSize: 64, PagesPerBlock: 64, Blocks: 1024, Planes: 2}
	const cycles = 150
	vals, err := repeatMedian(func() ([]float64, error) {
		chip, err := flash.NewChip(geo, flash.SLC)
		if err != nil {
			return nil, err
		}
		var prog, read, erase time.Duration
		for range cycles {
			t0 := time.Now()
			for b := range geo.Blocks {
				for p := range geo.PagesPerBlock {
					if _, err := chip.ProgramPage(b, p, nil); err != nil {
						return nil, err
					}
				}
			}
			t1 := time.Now()
			for b := range geo.Blocks {
				for p := range geo.PagesPerBlock {
					if _, err := chip.ReadPage(b, p); err != nil {
						return nil, err
					}
				}
			}
			t2 := time.Now()
			for b := range geo.Blocks {
				if _, err := chip.EraseBlock(b); err != nil {
					return nil, err
				}
			}
			prog, read, erase = prog+t1.Sub(t0), read+t2.Sub(t1), erase+time.Since(t2)
		}
		pages := float64(cycles * geo.Blocks * geo.PagesPerBlock)
		return []float64{float64(prog) / pages, float64(read) / pages, float64(erase) / float64(cycles*geo.Blocks)}, nil
	})
	if err != nil {
		return err
	}
	out["flash.program_ns_per_page"], out["flash.read_ns_per_page"], out["flash.erase_ns_per_block"] = vals[0], vals[1], vals[2]
	return nil
}

// driveArray does the same through ftl.Array on four chips: locate + chip.
func driveArray(out map[string]float64) error {
	const cycles = 100
	vals, err := repeatMedian(func() ([]float64, error) {
		arr, err := ftl.NewUniformArray(4, flash.SLC, 128<<20)
		if err != nil {
			return nil, err
		}
		blocks, ppb := arr.Blocks(), arr.Geometry().PagesPerBlock
		var prog, read time.Duration
		for range cycles {
			t0 := time.Now()
			for b := range blocks {
				for p := range ppb {
					if err := arr.ProgramPage(b, p); err != nil {
						return nil, err
					}
				}
			}
			t1 := time.Now()
			for b := range blocks {
				for p := range ppb {
					if err := arr.ReadPage(b, p); err != nil {
						return nil, err
					}
				}
			}
			prog, read = prog+t1.Sub(t0), read+time.Since(t1)
			for b := range blocks {
				if err := arr.EraseBlock(b); err != nil {
					return nil, err
				}
			}
		}
		pages := float64(cycles * blocks * ppb)
		return []float64{float64(prog) / pages, float64(read) / pages}, nil
	})
	if err != nil {
		return err
	}
	out["array.program_ns_per_page"], out["array.read_ns_per_page"] = vals[0], vals[1]
	return nil
}

// ftlCapacity is the logical size the FTL drivers run at: large enough that
// the random stream spreads over thousands of blocks, small enough to fill
// in a few milliseconds.
const ftlCapacity = 256 << 20

const (
	ftlIOBytes = 32 * 1024 // the paper's standard IO size
	ftlIOPages = ftlIOBytes / 2048
)

// bareFTL builds p's translator without its cache, filled once
// sequentially so that every later write invalidates a mapped page.
func bareFTL(key string) (ftl.Translator, func() ftl.Stats, error) {
	p, err := profile.ByKey(key)
	if err != nil {
		return nil, nil, err
	}
	p.Cache = nil
	dev, err := p.BuildWithCapacity(ftlCapacity)
	if err != nil {
		return nil, nil, err
	}
	t := dev.Top()
	for off := int64(0); off < ftlCapacity; off += 128 * 1024 {
		if _, err := t.Write(off, 128*1024); err != nil {
			return nil, nil, err
		}
	}
	switch f := t.(type) {
	case *ftl.PageFTL:
		return t, f.Stats, nil
	case *ftl.BlockFTL:
		return t, f.Stats, nil
	}
	return nil, nil, fmt.Errorf("profile %s: unexpected translator %T", key, t)
}

// statsDelta returns the counters that grew between two snapshots.
func statsDelta(before, after ftl.Stats) ftl.Stats {
	return ftl.Stats{
		HostWrites:       after.HostWrites - before.HostWrites,
		HostPagesWritten: after.HostPagesWritten - before.HostPagesWritten,
		PagesProgrammed:  after.PagesProgrammed - before.PagesProgrammed,
		Merges:           after.Merges - before.Merges,
		SwitchMerges:     after.SwitchMerges - before.SwitchMerges,
	}
}

// ftlDrive times random writes, sequential writes and random reads on a
// filled translator. It returns the counter deltas of the random writes
// alone and of all the timed writes.
func ftlDrive(key string, randWrites int) (seq, rnd, read float64, random, all ftl.Stats, err error) {
	const seqWrites, reads = 8192, 65536
	vals, err := repeatMedian(func() ([]float64, error) {
		t, statsOf, err := bareFTL(key)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(driverSeed))
		slots := int64(ftlCapacity / ftlIOBytes)
		// Random writes first untimed, to reach the steady state in which
		// every write pays for reclamation; then timed.
		for range randWrites {
			if _, err := t.Write(rng.Int63n(slots)*ftlIOBytes, ftlIOBytes); err != nil {
				return nil, err
			}
		}
		before := statsOf()
		t0 := time.Now()
		for range randWrites {
			if _, err := t.Write(rng.Int63n(slots)*ftlIOBytes, ftlIOBytes); err != nil {
				return nil, err
			}
		}
		rnd := perOp(t0, randWrites*ftlIOPages)
		random = statsDelta(before, statsOf())
		t0 = time.Now()
		for i := range seqWrites {
			if _, err := t.Write(int64(i)*ftlIOBytes, ftlIOBytes); err != nil {
				return nil, err
			}
		}
		seq := perOp(t0, seqWrites*ftlIOPages)
		all = statsDelta(before, statsOf())
		t0 = time.Now()
		for range reads {
			if _, err := t.Read(rng.Int63n(slots)*ftlIOBytes, ftlIOBytes); err != nil {
				return nil, err
			}
		}
		return []float64{seq, rnd, perOp(t0, reads*ftlIOPages)}, nil
	})
	if err != nil {
		return 0, 0, 0, random, all, err
	}
	return vals[0], vals[1], vals[2], random, all, nil
}

// drivePageFTL: PageFTL.Write/Read in steady-state GC, memoright's config.
func drivePageFTL(out map[string]float64) error {
	seq, rnd, read, d, _, err := ftlDrive("memoright", 16384)
	if err != nil {
		return err
	}
	out["pageftl.write_seq_ns_per_page"], out["pageftl.write_rand_ns_per_page"], out["pageftl.read_ns_per_page"] = seq, rnd, read
	out["pageftl.write_amp_rand"] = d.WriteAmplification()
	out["pageftl.gc_per_kwrite"] = 1000 * float64(d.Merges) / float64(d.HostWrites)
	return nil
}

// driveBlockFTL: BlockFTL.Write/Read with log-block merges, kingston-dti's
// config. Its random writes are full merges, so fewer of them fill the
// time; the switch-merge share counts the sequential writes too, where a
// full log block replaces its data block without a copy.
func driveBlockFTL(out map[string]float64) error {
	seq, rnd, read, d, all, err := ftlDrive("kingston-dti", 2048)
	if err != nil {
		return err
	}
	out["blockftl.write_seq_ns_per_page"], out["blockftl.write_rand_ns_per_page"], out["blockftl.read_ns_per_page"] = seq, rnd, read
	out["blockftl.merges_per_kwrite"] = 1000 * float64(d.Merges) / float64(d.HostWrites)
	out["blockftl.switch_merge_share"] = float64(all.SwitchMerges) / float64(max(all.Merges, 1))
	return nil
}

// driveCache: WriteCache.Write focused inside the buffer (every write after
// the first pass is a hit) against streaming past it (every region is
// flushed to the FTL), memoright's cache over its PageFTL.
func driveCache(out map[string]float64) error {
	const focused, streamed = 400_000, 16384
	var hitShare float64
	vals, err := repeatMedian(func() ([]float64, error) {
		dev, err := profile.BuildDevice("memoright", ftlCapacity)
		if err != nil {
			return nil, err
		}
		c, ok := dev.(*device.SimDevice).Top().(*ftl.WriteCache)
		if !ok {
			return nil, fmt.Errorf("memoright has no write cache")
		}
		rng := rand.New(rand.NewSource(driverSeed))
		const line, area = 4096, 4 << 20 // half the 8 MB buffer
		for off := int64(0); off < area; off += line {
			if _, err := c.Write(off, line); err != nil {
				return nil, err
			}
		}
		before := c.Stats()
		t0 := time.Now()
		for range focused {
			if _, err := c.Write(rng.Int63n(area/line)*line, line); err != nil {
				return nil, err
			}
		}
		hit := perOp(t0, focused)
		after := c.Stats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		hitShare = float64(hits) / float64(hits+misses)
		t0 = time.Now()
		for i := range streamed {
			if _, err := c.Write(int64(i)*ftlIOBytes%ftlCapacity, ftlIOBytes); err != nil {
				return nil, err
			}
		}
		return []float64{hit, perOp(t0, streamed)}, nil
	})
	if err != nil {
		return err
	}
	out["cache.write_hit_ns_per_io"], out["cache.write_stream_ns_per_io"] = vals[0], vals[1]
	out["cache.hit_share_focused"] = hitShare
	return nil
}

// batchStream is bench_test.go's BenchmarkSubmitBatch shape: 128 rewrites
// of 32 KiB focused inside the write buffer.
func batchStream() []device.IO {
	ios := make([]device.IO, 128)
	for i := range ios {
		ios[i] = device.IO{Mode: device.Write, Off: int64(i) % 16 * 128 * 1024, Size: 32 * 1024}
	}
	return ios
}

// batchNS returns the time per IO of batches SubmitBatch calls on dev,
// after 64 untimed ones, and the heap allocations per batch.
func batchNS(dev device.Device, batches int) (nsPerIO, allocs float64, err error) {
	ios := batchStream()
	done := make([]time.Duration, len(ios))
	var at time.Duration
	submit := func() error {
		for j := range done {
			done[j] = device.ChainNext
		}
		if err := dev.SubmitBatch(at, ios, done); err != nil {
			return err
		}
		at = done[len(done)-1]
		return nil
	}
	for range 64 {
		if err := submit(); err != nil {
			return 0, 0, err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	t0 := time.Now()
	for range batches {
		if err := submit(); err != nil {
			return 0, 0, err
		}
	}
	ns := perOp(t0, batches*len(ios))
	runtime.ReadMemStats(&ms)
	return ns, float64(ms.Mallocs-mallocs) / float64(batches), nil
}

// driveSimDevice: a 128-IO SubmitBatch against one Submit per IO.
func driveSimDevice(out map[string]float64) error {
	const batches = 4000
	vals, err := repeatMedian(func() ([]float64, error) {
		dev, err := profile.BuildDevice("memoright", 64<<20)
		if err != nil {
			return nil, err
		}
		batch, allocs, err := batchNS(dev, batches)
		if err != nil {
			return nil, err
		}
		ios := batchStream()
		at := time.Duration(0)
		t0 := time.Now()
		for range batches {
			for _, io := range ios {
				if at, err = dev.Submit(at, io); err != nil {
					return nil, err
				}
			}
		}
		return []float64{batch, perOp(t0, batches*len(ios)), allocs}, nil
	})
	if err != nil {
		return err
	}
	out["simdevice.batch_ns_per_io"], out["simdevice.submit_ns_per_io"], out["simdevice.batch_allocs"] = vals[0], vals[1], vals[2]
	return nil
}

// driveComposite: the same batches through a stripe, a mirror and a
// zero-rate fault wrapper; the last as a ratio to the raw device.
func driveComposite(out map[string]float64) error {
	const batches = 2000
	vals, err := repeatMedian(func() ([]float64, error) {
		var ns [4]float64
		for i, spec := range []string{"stripe(2,memoright,memoright)", "mirror(2,memoright,memoright)", "faulty(memoright)", "memoright"} {
			dev, err := profile.BuildDevice(spec, 64<<20)
			if err != nil {
				return nil, err
			}
			if ns[i], _, err = batchNS(dev, batches); err != nil {
				return nil, err
			}
		}
		return []float64{ns[0], ns[1], ns[2]/ns[3] - 1}, nil
	})
	if err != nil {
		return err
	}
	out["composite.stripe_ns_per_io"], out["composite.mirror_ns_per_io"], out["faulty.noop_overhead_ratio"] = vals[0], vals[1], vals[2]
	return nil
}

// enforced returns key's device at 1 GiB in the enforced random state.
func enforced(key string) (device.Cloneable, time.Duration, error) {
	dev, at, _, err := paperexp.PrepareCached(key, paperexp.Config{Capacity: 1 << 30, Seed: driverSeed})
	return dev, at, err
}

// driveClone: CloneDevice, and SnapshotDevice + RestoreDevice, of an
// enforced 1 GiB device, per MB of logical capacity.
func driveClone(out map[string]float64) error {
	const clones = 8
	const mb = float64(1<<30) / 1e6
	var page device.Cloneable
	for _, c := range []struct{ metric, key string }{
		{"clone.us_per_mb.block", "kingston-dti"},
		{"clone.us_per_mb.page", "memoright"},
	} {
		dev, _, err := enforced(c.key)
		if err != nil {
			return err
		}
		vals, err := repeatMedian(func() ([]float64, error) {
			t0 := time.Now()
			for range clones {
				_ = dev.CloneDevice()
			}
			return []float64{perOp(t0, clones) / 1e3 / mb}, nil
		})
		if err != nil {
			return err
		}
		out[c.metric], page = vals[0], dev
	}
	vals, err := repeatMedian(func() ([]float64, error) {
		fresh, err := profile.BuildDevice("memoright", 1<<30)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		snap, err := device.SnapshotDevice(page)
		if err != nil {
			return nil, err
		}
		if err := device.RestoreDevice(fresh, snap); err != nil {
			return nil, err
		}
		return []float64{perOp(t0, 1) / 1e3 / mb}, nil
	})
	if err != nil {
		return err
	}
	out["snapshot_restore.us_per_mb"] = vals[0]
	return nil
}

// driveEngine: the time of one Master.Clone when nproc goroutines clone at
// once, over the time of one when a single goroutine does; and what
// ExecuteJobs costs per job that does nothing.
func driveEngine(out map[string]float64) error {
	const clones = 8
	dev, at, err := enforced("memoright")
	if err != nil {
		return err
	}
	master := engine.NewMaster(func() (device.Cloneable, time.Duration, error) { return dev, at, nil })
	nproc := runtime.GOMAXPROCS(0)
	perClone := func(goroutines int) (float64, error) {
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		t0 := time.Now()
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range clones {
					if _, _, err := master.Clone(); err != nil {
						errs[g] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		// Every goroutine made `clones` clones in this wall time: with no
		// contention this equals the single-goroutine figure.
		return perOp(t0, clones), nil
	}
	vals, err := repeatMedian(func() ([]float64, error) {
		one, err := perClone(1)
		if err != nil {
			return nil, err
		}
		many, err := perClone(nproc)
		if err != nil {
			return nil, err
		}
		return []float64{many / one}, nil
	})
	if err != nil {
		return err
	}
	out["engine.clone_contention_ratio"] = vals[0]

	const jobs = 20000
	mem := device.NewMemDevice("mem", 1<<20, 0, 0)
	noop := make([]engine.Job, jobs)
	for i := range noop {
		noop[i] = engine.Job{ID: "noop", Run: func(context.Context, device.Device, time.Duration) (*core.Run, error) {
			return &core.Run{}, nil
		}}
	}
	factory := func(engine.Shard) (device.Device, time.Duration, error) { return mem, 0, nil }
	vals, err = repeatMedian(func() ([]float64, error) {
		t0 := time.Now()
		if _, err := engine.ExecuteJobs(context.Background(), noop, factory, engine.Options{Workers: nproc}); err != nil {
			return nil, err
		}
		return []float64{perOp(t0, jobs) / 1e3}, nil
	})
	if err != nil {
		return err
	}
	out["engine.jobs_overhead_us"] = vals[0]
	return nil
}

// driveStateStore: Store.Save and Store.Load of an enforced 1 GiB
// memoright, in MB of state file per second.
func driveStateStore(out map[string]float64) error {
	dev, at, err := enforced("memoright")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "uflip-bench-drivers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := statestore.Open(dir)
	if err != nil {
		return err
	}
	key := paperexp.StateKey("memoright", paperexp.Config{Capacity: 1 << 30, Seed: driverSeed})
	vals, err := repeatMedian(func() ([]float64, error) {
		t0 := time.Now()
		if err := store.Save(key, dev, at); err != nil {
			return nil, err
		}
		save := time.Since(t0)
		fi, err := os.Stat(store.Path(key))
		if err != nil {
			return nil, err
		}
		fresh, err := profile.BuildDevice("memoright", 1<<30)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if _, hit, err := store.Load(key, fresh); err != nil || !hit {
			return nil, fmt.Errorf("state store: load hit=%v: %v", hit, err)
		}
		mb := float64(fi.Size()) / 1e6
		return []float64{mb / save.Seconds(), mb / time.Since(t0).Seconds()}, nil
	})
	if err != nil {
		return err
	}
	out["statestore.save_mb_per_s"], out["statestore.load_mb_per_s"] = vals[0], vals[1]
	return nil
}

// smallPlan runs the nine micro-benchmarks on a 64 MiB mtron: records and
// results for the render drivers.
func smallPlan() (*paperexp.BenchmarkOutcome, []trace.RunRecord, error) {
	res, err := paperexp.RunBenchmark(context.Background(), "mtron",
		paperexp.Config{Capacity: 64 << 20, Seed: driverSeed, IOCount: 256},
		paperexp.BenchmarkRequest{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, nil, err
	}
	return res, paperexp.Records(res.Results), nil
}

// driveTrace: the .utr and CSV trace scanners over 256 k records, and the
// summary-CSV and JSON encoders over one plan's records.
func driveTrace(out map[string]float64) error {
	const records = 256 * 1024
	ops, err := workload.OLTP{PageSize: 8192, TargetSize: 128 << 20, ReadFraction: 0.9, Count: records, Seed: driverSeed}.Generate()
	if err != nil {
		return err
	}
	var utr, csv bytes.Buffer
	if err := workload.WriteUTR(&utr, ops); err != nil {
		return err
	}
	if err := workload.WriteTrace(&csv, ops); err != nil {
		return err
	}
	_, recs, err := smallPlan()
	if err != nil {
		return err
	}
	vals, err := repeatMedian(func() ([]float64, error) {
		t0 := time.Now()
		sc, err := trace.NewScanner(bytes.NewReader(utr.Bytes()))
		if err != nil {
			return nil, err
		}
		n := 0
		for sc.Scan() {
			n++
		}
		if sc.Err() != nil || n != records {
			return nil, fmt.Errorf("utr scan: %d records: %v", n, sc.Err())
		}
		utrRate := records / time.Since(t0).Seconds() / 1e6
		t0 = time.Now()
		ts := workload.NewTraceScanner(bytes.NewReader(csv.Bytes()))
		n = 0
		for ts.Scan() {
			n++
		}
		if ts.Err() != nil || n != records {
			return nil, fmt.Errorf("csv scan: %d records: %v", n, ts.Err())
		}
		csvRate := records / time.Since(t0).Seconds() / 1e6
		const renders = 20
		t0 = time.Now()
		for range renders {
			if err := trace.WriteSummaryCSV(io.Discard, recs); err != nil {
				return nil, err
			}
		}
		sum := perOp(t0, renders*len(recs)) / 1e3
		t0 = time.Now()
		if err := trace.WriteJSON(io.Discard, recs); err != nil {
			return nil, err
		}
		return []float64{utrRate, csvRate, sum, perOp(t0, len(recs)) / 1e3}, nil
	})
	if err != nil {
		return err
	}
	out["trace.utr_scan_mrec_per_s"], out["trace.csv_scan_mrec_per_s"] = vals[0], vals[1]
	out["trace.summary_csv_us_per_run"], out["trace.json_us_per_run"] = vals[2], vals[3]
	return nil
}

// driveStats: stats.Percentiles and stats.Summarize on one replay segment's
// worth of samples, and report.PlanSection on one plan.
func driveStats(out map[string]float64) error {
	const samples, rounds = 12_500, 200
	rng := rand.New(rand.NewSource(driverSeed))
	rts := make([]time.Duration, samples)
	for i := range rts {
		rts[i] = time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
	}
	plan, _, err := smallPlan()
	if err != nil {
		return err
	}
	ioSize := core.StandardDefaults().IOSize
	vals, err := repeatMedian(func() ([]float64, error) {
		t0 := time.Now()
		for range rounds {
			_ = stats.Percentiles(rts, 50, 95, 99)
		}
		pct := perOp(t0, rounds*samples)
		t0 = time.Now()
		for range rounds {
			_ = stats.Summarize(rts)
		}
		sum := perOp(t0, rounds*samples)
		const renders = 20
		t0 = time.Now()
		for range renders {
			if err := report.PlanSection(io.Discard, plan.Micros, plan.Results, ioSize); err != nil {
				return nil, err
			}
		}
		return []float64{pct, sum, perOp(t0, renders) / 1e6}, nil
	})
	if err != nil {
		return err
	}
	out["stats.percentiles_ns_per_sample"], out["stats.summarize_ns_per_sample"], out["report.plan_section_ms"] = vals[0], vals[1], vals[2]
	return nil
}

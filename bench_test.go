package uflip_test

// This file holds ablations of the simulator's design choices as Go
// benchmarks: each builds small devices that differ in one mechanism — the
// mapping, the write buffer, asynchronous reclamation, the number of log
// blocks — and reports the response times it changes as custom metrics. The
// paper's own figures and results are regenerated by `uflip paper -exp all`.
// None of these is a speed measurement: how fast the simulator itself runs is
// the repository benchmark's business (benchmark/, BENCHMARK.json), which
// repeats its runs and reports spread.

import (
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/methodology"
)

type ablationDevice struct {
	name string
	dev  device.Device
}

func buildAblation(b *testing.B, name string, logical int64, build func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error)) ablationDevice {
	b.Helper()
	cost := ftl.DefaultCostModel(flash.SLC)
	cost.ReadParallel = 4
	cost.ProgramParallel = 8
	cost.MergeParallel = 2
	cost.EraseParallel = 2
	arr, err := ftl.NewUniformArray(4, flash.SLC, logical+96*128*1024)
	if err != nil {
		b.Fatal(err)
	}
	top, err := build(arr, cost)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := device.NewSimDevice(device.SimConfig{
		Name: name,
		Bus:  device.BusConfig{CmdLatency: 100 * time.Microsecond, ReadBytesPerS: 100 << 20, WriteBytesPerS: 100 << 20},
	}, top, cost)
	if err != nil {
		b.Fatal(err)
	}
	return ablationDevice{name: name, dev: sim}
}

// pageCfg maps flash blocks out of place: a 32 KB random write pays a
// read-modify-write of its block, and reclamation erases obsolete blocks.
func pageCfg(logical int64) ftl.PageConfig {
	return ftl.PageConfig{
		LogicalBytes:  logical,
		WritePoints:   4,
		ReserveBlocks: 16,
		GCBatch:       4,
	}
}

func measureRW(b *testing.B, ad ablationDevice) float64 {
	b.Helper()
	end, err := methodology.EnforceRandomState(ad.dev, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := core.StandardDefaults()
	d.IOCount = 1024
	d.RandomTarget = core.RandomTargetFor(ad.dev.Capacity())
	run, err := core.ExecutePattern(new(core.Scratch), ad.dev, core.RW.Pattern(d), end+5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	return run.Summary.Mean * 1e3
}

// BenchmarkAblationMapping contrasts the two translation designs — blocks
// written out of place from a pre-erased pool, and in-place block mapping
// through a few log blocks that degenerate to full merges: the reason SSD and
// USB-stick random writes differ by an order of magnitude.
func BenchmarkAblationMapping(b *testing.B) {
	const logical = 256 << 20
	for i := 0; i < b.N; i++ {
		page := buildAblation(b, "page-mapped", logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			return ftl.NewPageFTL(arr, pageCfg(logical), cost)
		})
		block := buildAblation(b, "block-mapped", logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			return ftl.NewBlockFTL(arr, ftl.BlockConfig{LogicalBytes: logical, LogBlocks: 4, MapDirtyLimit: 64, MapUnitsPerPage: 128}, cost)
		})
		b.ReportMetric(measureRW(b, page), "page-RW-ms")
		b.ReportMetric(measureRW(b, block), "block-RW-ms")
	}
}

// BenchmarkAblationWriteCache contrasts random-write cost with and without
// a write buffer when the working set fits: the locality mechanism. Uncached,
// every sub-block random write pays a read-modify-write of its flash block;
// the buffer coalesces them into whole blocks.
func BenchmarkAblationWriteCache(b *testing.B) {
	const logical = 256 << 20
	for i := 0; i < b.N; i++ {
		bare := buildAblation(b, "no-cache", logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			return ftl.NewPageFTL(arr, pageCfg(logical), cost)
		})
		cached := buildAblation(b, "cache-8MB", logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			inner, err := ftl.NewPageFTL(arr, pageCfg(logical), cost)
			if err != nil {
				return nil, err
			}
			return ftl.NewWriteCache(inner, ftl.CacheConfig{
				CapacityBytes: 8 << 20, Streams: 8,
			}, cost)
		})
		d := core.StandardDefaults()
		d.IOCount = 1024
		d.RandomTarget = 4 << 20 // focused area within the cache
		for _, ad := range []ablationDevice{bare, cached} {
			end, err := methodology.EnforceRandomState(ad.dev, 1)
			if err != nil {
				b.Fatal(err)
			}
			run, err := core.ExecutePattern(new(core.Scratch), ad.dev, core.RW.Pattern(d), end+5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(run.Summary.Mean*1e3, ad.name+"-focusedRW-ms")
		}
	}
}

// BenchmarkAblationAsyncGC contrasts the Pause micro-benchmark with and
// without asynchronous reclamation (a positive ReadSteal, here memoright's
// 0.3; the pattern only writes, so no read is stalled): only the async device
// benefits from pauses between IOs.
func BenchmarkAblationAsyncGC(b *testing.B) {
	const logical = 256 << 20
	build := func(readSteal float64, name string) ablationDevice {
		return buildAblation(b, name, logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
			cfg := pageCfg(logical)
			cfg.ReadSteal = readSteal
			cfg.ReserveBlocks = 64
			return ftl.NewPageFTL(arr, cfg, cost)
		})
	}
	for i := 0; i < b.N; i++ {
		for _, ad := range []ablationDevice{build(0, "sync"), build(0.3, "async")} {
			end, err := methodology.EnforceRandomState(ad.dev, 1)
			if err != nil {
				b.Fatal(err)
			}
			d := core.StandardDefaults()
			d.IOCount = 1024
			d.RandomTarget = core.RandomTargetFor(ad.dev.Capacity())
			p := core.RW.Pattern(d)
			p.Pause = 10 * time.Millisecond
			run, err := core.ExecutePattern(new(core.Scratch), ad.dev, p, end+5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(run.Summary.Mean*1e3, ad.name+"-pausedRW-ms")
		}
	}
}

// BenchmarkAblationLogBlocks sweeps the replacement-block count of a
// block-mapped FTL and reports the partitioned sequential-write cost at 2
// and at 16 partitions: the partition-tolerance mechanism.
func BenchmarkAblationLogBlocks(b *testing.B) {
	const logical = 256 << 20
	for _, logs := range []int{2, 8} {
		logs := logs
		b.Run(deviceName("logs", logs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ad := buildAblation(b, deviceName("logs", logs), logical, func(arr *ftl.Array, cost ftl.CostModel) (ftl.Translator, error) {
					return ftl.NewBlockFTL(arr, ftl.BlockConfig{LogicalBytes: logical, LogBlocks: logs, MapDirtyLimit: 64, MapUnitsPerPage: 128}, cost)
				})
				end, err := methodology.EnforceRandomState(ad.dev, 1)
				if err != nil {
					b.Fatal(err)
				}
				d := core.StandardDefaults()
				d.IOCount = 1024
				at := end + 5*time.Second
				for _, parts := range []int{2, 8, 16} {
					p := core.SW.Pattern(d)
					p.LBA = core.Partitioned
					p.Partitions = parts
					p.TargetSize = 16 << 20
					run, err := core.ExecutePattern(new(core.Scratch), ad.dev, p, at)
					if err != nil {
						b.Fatal(err)
					}
					at += run.Total + 5*time.Second
					b.ReportMetric(run.Summary.Mean*1e3, deviceName("parts", parts)+"-ms")
				}
			}
		})
	}
}

func deviceName(prefix string, n int) string {
	return prefix + "-" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

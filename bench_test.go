package uflip_test

// This file regenerates the figures and the Section 5.2 / 4.1 results of the
// uFLIP paper's evaluation as Go benchmarks. The benchmarks run the
// methodology against simulated devices (scaled to 512 MB for speed;
// behaviour is capacity-independent) and report the headline numbers as
// custom metrics, named after what the paper reports:
//
//	BenchmarkFigure3           — Mtron RW start-up length and cost levels
//	BenchmarkFigure4           — Kingston DTI SW period
//	BenchmarkFigure5           — Mtron lingering reclamation (pause bound)
//	BenchmarkFigure6/7         — granularity curves (Memoright / DTI)
//	BenchmarkFigure8           — locality curves (Samsung/Memoright/Mtron)
//	BenchmarkAlignment/Mix/Parallelism — the Section 5.2 "other results"
//	BenchmarkDeviceState       — the Section 4.1 Samsung state anomaly
//	BenchmarkAblation*         — ablations of the simulator's design choices
//
// Absolute numbers come from the calibrated simulator; the claim is shape
// fidelity against the paper (README describes the model; ROADMAP item 2
// plans the claims ledger that will check it). Figures 6-8 and the Section
// 5.2 results run through paperexp.RunBenchmark, the pipeline the uflip
// command runs. Table 3 is regenerated by `uflip paper -exp table3`. None of these is a speed measurement: how fast
// the simulator itself runs is the repository benchmark's business
// (benchmark/, BENCHMARK.json), which repeats its runs and reports spread.

import (
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/methodology"
	"uflip/internal/paperexp"
	"uflip/internal/statestore"
)

// benchState is the state store every benchmark in this file shares: each
// (device, capacity, seed) master is enforced once per `go test -bench`
// invocation instead of once per benchmark, without changing any result —
// cached states are byte-identical to freshly enforced ones.
var benchState struct {
	once sync.Once
	dir  string
	st   *statestore.Store
}

func benchCfg() paperexp.Config {
	cfg := paperexp.DefaultConfig()
	cfg.Capacity = 512 << 20
	benchState.once.Do(func() {
		dir, err := os.MkdirTemp("", "uflip-bench-state-")
		if err != nil {
			return // fall back to live enforcement
		}
		st, err := statestore.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return
		}
		benchState.dir, benchState.st = dir, st
	})
	cfg.Store = benchState.st
	return cfg
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchState.dir != "" {
		os.RemoveAll(benchState.dir)
	}
	os.Exit(code)
}

func prepare(b *testing.B, key string, cfg paperexp.Config) (device.Device, time.Duration) {
	b.Helper()
	dev, at, err := paperexp.Prepare(key, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return dev, at
}

// runPlan runs the named micro-benchmarks on key through the pipeline the
// uflip command runs.
func runPlan(b *testing.B, key string, cfg paperexp.Config, micros ...string) *methodology.Results {
	b.Helper()
	out, err := paperexp.RunBenchmark(context.Background(), key, cfg, paperexp.BenchmarkRequest{Micros: micros})
	if err != nil {
		b.Fatal(err)
	}
	return out.Results
}

// BenchmarkFigure3 regenerates the Mtron random-write trace: a cheap
// start-up phase (paper: ~125 IOs at ~0.4 ms) followed by oscillation.
func BenchmarkFigure3(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, "mtron", cfg)
		tr, err := paperexp.Figure3(dev, at, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tr.Analysis.StartUp), "startup-ios")
		b.ReportMetric(tr.Analysis.CheapLevel*1e3, "cheap-ms")
		b.ReportMetric(tr.Analysis.ExpensiveLevel*1e3, "expensive-ms")
		b.ReportMetric(tr.Run.Summary.Mean*1e3, "mean-ms")
	}
}

// BenchmarkFigure4 regenerates the Kingston DTI sequential-write trace:
// no start-up, oscillation with a period around the flash block (paper:
// ~128 IOs).
func BenchmarkFigure4(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, "kingston-dti", cfg)
		tr, err := paperexp.Figure4(dev, at, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tr.Analysis.StartUp), "startup-ios")
		b.ReportMetric(float64(tr.Analysis.Period), "period-ios")
		b.ReportMetric(tr.Run.Summary.Mean*1e3, "mean-ms")
	}
}

// BenchmarkFigure5 regenerates the pause-determination experiment on the
// Mtron: sequential reads stay slow for a while after a random-write batch
// (paper: ~3,000 reads, ~2.5 s).
func BenchmarkFigure5(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		dev, at := prepare(b, "mtron", cfg)
		rep, err := paperexp.Figure5(dev, at, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.LingerIOs), "linger-ios")
		b.ReportMetric(rep.LingerTime.Seconds(), "linger-s")
		b.ReportMetric(rep.RecommendedPause.Seconds(), "pause-s")
	}
}

func granularityBench(b *testing.B, key string) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		curves := paperexp.Curves(runPlan(b, key, cfg, "Granularity"), "Granularity")
		for _, base := range core.Baselines {
			for _, pt := range curves[base.String()] {
				if pt.X == 32<<10 { // the paper's reference size
					b.ReportMetric(pt.Y, base.String()+"32K-ms")
				}
				if pt.X == 512<<10 {
					b.ReportMetric(pt.Y, base.String()+"512K-ms")
				}
			}
		}
	}
}

// BenchmarkFigure6 regenerates the granularity curves for the Memoright SSD
// (all reads and sequential writes linear and cheap; random writes >= 5 ms
// past the caching threshold).
func BenchmarkFigure6(b *testing.B) { granularityBench(b, "memoright") }

// BenchmarkFigure7 regenerates the granularity curves for the Kingston DTI
// (small sequential writes disproportionately expensive; random writes flat
// around 260 ms).
func BenchmarkFigure7(b *testing.B) { granularityBench(b, "kingston-dti") }

// BenchmarkFigure8 regenerates the locality curves: RW cost relative to SW
// as the random-write target grows, for Samsung, Memoright and Mtron.
func BenchmarkFigure8(b *testing.B) {
	for _, key := range []string{"samsung", "memoright", "mtron"} {
		key := key
		b.Run(key, func(b *testing.B) {
			cfg := benchCfg()
			for i := 0; i < b.N; i++ {
				pts, err := paperexp.Figure8(runPlan(b, key, cfg, "Granularity", "Locality"))
				if err != nil {
					b.Fatal(err)
				}
				for _, pt := range pts {
					switch pt.X {
					case 1 << 20:
						b.ReportMetric(pt.Y, "rel-1MB")
					case 8 << 20:
						b.ReportMetric(pt.Y, "rel-8MB")
					case 128 << 20:
						b.ReportMetric(pt.Y, "rel-128MB")
					}
				}
			}
		})
	}
}

// BenchmarkAlignment regenerates the Section 5.2 alignment result: on the
// Samsung SSD, unaligned random IOs cost roughly twice as much.
func BenchmarkAlignment(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rw := paperexp.Curves(runPlan(b, "samsung", cfg, "Alignment"), "Alignment")["RW"]
		if len(rw) > 0 {
			b.ReportMetric(rw[0].Y, "aligned512B-shift-ms")
			b.ReportMetric(rw[len(rw)/2].Y, "midshift-ms")
		}
	}
}

// BenchmarkMix regenerates the Section 5.2 mix result: combining baseline
// patterns does not change overall cost much (unlike disks).
func BenchmarkMix(b *testing.B) {
	cfg := benchCfg()
	cfg.IOCount = 512
	for i := 0; i < b.N; i++ {
		series := paperexp.Curves(runPlan(b, "memoright", cfg, "Mix"), "Mix")
		if pts := series["SR/RR"]; len(pts) > 0 {
			b.ReportMetric(pts[0].Y, "SR-RR-1:1-ms")
		}
		if pts := series["RR/RW"]; len(pts) > 0 {
			b.ReportMetric(pts[len(pts)-1].Y, "RR-RW-64:1-ms")
		}
	}
}

// BenchmarkParallelism regenerates the Section 5.2 parallelism result:
// no benefit from concurrent submission; parallel sequential writes
// degenerate toward partitioned/random cost.
func BenchmarkParallelism(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		series := paperexp.Curves(runPlan(b, "memoright", cfg, "Parallelism"), "Parallelism")
		for _, pt := range series["SR"] {
			if pt.X == 1 {
				b.ReportMetric(pt.Y, "SR-par1-ms")
			}
			if pt.X == 16 {
				b.ReportMetric(pt.Y, "SR-par16-ms")
			}
		}
		for _, pt := range series["SW"] {
			if pt.X == 1 {
				b.ReportMetric(pt.Y, "SW-par1-ms")
			}
			if pt.X == 16 {
				b.ReportMetric(pt.Y, "SW-par16-ms")
			}
		}
	}
}

// BenchmarkDeviceState regenerates the Section 4.1 anomaly: the Samsung SSD
// writes randomly at ~1 ms out of the box, an order of magnitude faster
// than after the whole device has been written once.
func BenchmarkDeviceState(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fresh, used, err := paperexp.StateAnomaly("samsung", cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fresh, "outofbox-ms")
		b.ReportMetric(used, "randomstate-ms")
	}
}

// --- Ablations: isolate the simulator's design choices. ---

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
	run, err := core.ExecutePattern(ad.dev, core.RW.Pattern(d), end+5*time.Second)
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
			run, err := core.ExecutePattern(ad.dev, core.RW.Pattern(d), end+5*time.Second)
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
			run, err := core.ExecutePattern(ad.dev, p, end+5*time.Second)
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
					run, err := core.ExecutePattern(ad.dev, p, at)
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

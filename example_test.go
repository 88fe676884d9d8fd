package uflip_test

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/methodology"
	"uflip/internal/profile"
)

// Quickstart: build a simulated flash device, put it in the well-defined
// random state the uFLIP methodology requires, run the four baseline
// patterns, and print their summary statistics — the minimal end-to-end use
// of the library.
func Example_quickstart() {
	// Pick a device from Table 2 of the paper and build it scaled down to
	// 512 MB (behaviour is capacity-independent; small devices are fast).
	prof, err := profile.ByKey("memoright")
	if err != nil {
		log.Fatal(err)
	}
	dev, err := prof.BuildWithCapacity(512 << 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %s\n", prof)

	// Section 4.1: measurements are only meaningful from a well-defined
	// state; write the whole device once with random IOs of random size.
	start, err := methodology.EnforceRandomState(dev, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random state enforced (%v of device time)\n\n", start.Round(time.Second))

	// Run the four baseline patterns: sequential/random x read/write,
	// 32 KB IOs, consecutive submission.
	d := core.StandardDefaults()
	d.RandomTarget = dev.Capacity() / 2
	at := start + 5*time.Second
	var sc core.Scratch // one caller's IO batch and generators, reused by each run
	for _, b := range core.Baselines {
		run, err := core.ExecutePattern(&sc, dev, b.Pattern(d), at)
		if err != nil {
			log.Fatal(err)
		}
		at += run.Total + 5*time.Second // pause between runs (Section 4.3)
		fmt.Printf("%-3s %s\n", b, run.Summary)
	}
	// Output:
	// device: Memoright MR25.2-032S (SSD, 32 GB)
	// random state enforced (29s of device time)
	//
	// SR  n=1024 min=0.299ms max=0.408ms mean=0.324ms sd=0.042ms
	// RR  n=1024 min=0.324ms max=0.420ms mean=0.394ms sd=0.018ms
	// SW  n=1024 min=0.291ms max=0.291ms mean=0.291ms sd=0.000ms
	// RW  n=1024 min=0.291ms max=26.507ms mean=3.578ms sd=7.041ms
}

// Dbdesign shows the paper's design hints (Section 5.3) being derived from
// measurements and then applied: an external-sort merge chooses its fan-in
// from the device's partition tolerance (Hint 5: sequential writes should be
// limited to a few partitions), and the database block size is chosen from
// the granularity sweep (Hints 1-2: larger IOs amortize the per-IO latency;
// 32 KB is the sweet spot on 2008-era devices).
//
// The example measures a device, derives both parameters, and then verifies
// the choice by timing the merge phase of an external sort at the derived
// fan-in versus a deliberately excessive one.
func Example_dbdesign() {
	prof, err := profile.ByKey("kingston-dti")
	if err != nil {
		log.Fatal(err)
	}
	dev, err := prof.BuildWithCapacity(512 << 20)
	if err != nil {
		log.Fatal(err)
	}
	at, err := methodology.EnforceRandomState(dev, 7)
	if err != nil {
		log.Fatal(err)
	}
	at += 5 * time.Second
	fmt.Printf("device: %s\n\n", prof)

	// Hint 1-2: sweep the IO size for sequential writes and pick the knee
	// where cost per byte stops improving much.
	d := core.StandardDefaults()
	d.IOCount = 512
	d.RandomTarget = dev.Capacity() / 2
	blockSize, at := chooseBlockSize(dev, d, at)
	fmt.Printf("-> chosen block size: %d KB (Hint 2: the paper recommends 32 KB)\n\n", blockSize/1024)

	// Hint 5: sweep the partition count for sequential writes and find
	// the cliff.
	d.IOSize = blockSize
	fanIn, at := choosePartitions(dev, d, at)
	fmt.Printf("-> chosen merge fan-in: %d partitions (Hint 5: 4-8 on the paper's devices)\n\n", fanIn)

	// Verify: merge phase of an external sort writing one output stream
	// while cycling over N input buckets — the partitioned pattern.
	good, at := mergeCost(dev, d, fanIn, at)
	bad, _ := mergeCost(dev, d, 64, at)
	fmt.Printf("external-sort merge, %d-way:  %6.2f ms per %d KB IO\n", fanIn, good, blockSize/1024)
	fmt.Printf("external-sort merge, 64-way: %6.2f ms per %d KB IO  (%.1fx slower)\n", bad, blockSize/1024, bad/good)
	fmt.Println("\nKeeping the fan-in within the device's partition tolerance keeps the")
	fmt.Println("merge sequential-write cheap; beyond it, writes degrade to random cost.")
	// Output:
	// device: Kingston DTI 4GB (USB drive, 4 GB)
	//
	// sequential-write granularity sweep:
	//        4 KB:   0.946 ms/IO, 230.897 us/KB
	//        8 KB:   0.724 ms/IO,  88.351 us/KB
	//       16 KB:   1.698 ms/IO, 103.664 us/KB
	//       32 KB:   3.092 ms/IO,  94.362 us/KB
	//       64 KB:   6.812 ms/IO, 103.950 us/KB
	//      128 KB:  13.320 ms/IO, 101.625 us/KB
	// -> chosen block size: 8 KB (Hint 2: the paper recommends 32 KB)
	//
	// partitioned sequential-write sweep:
	//     1 partitions:   0.964 ms/IO
	//     2 partitions:   0.826 ms/IO
	//     4 partitions:   0.772 ms/IO
	//     8 partitions:  57.318 ms/IO
	//    16 partitions:  58.043 ms/IO
	//    32 partitions:  27.815 ms/IO
	//    64 partitions:  12.337 ms/IO
	// -> chosen merge fan-in: 4 partitions (Hint 5: 4-8 on the paper's devices)
	//
	// external-sort merge, 4-way:    0.73 ms per 8 KB IO
	// external-sort merge, 64-way:  12.34 ms per 8 KB IO  (16.9x slower)
	//
	// Keeping the fan-in within the device's partition tolerance keeps the
	// merge sequential-write cheap; beyond it, writes degrade to random cost.
}

// chooseBlockSize sweeps SW IO sizes and returns the smallest size whose
// cost per byte is within 30% of the best observed.
func chooseBlockSize(dev device.Device, d core.Defaults, at time.Duration) (int64, time.Duration) {
	type sample struct {
		size    int64
		perByte float64
	}
	var samples []sample
	fmt.Println("sequential-write granularity sweep:")
	for _, size := range []int64{4096, 8192, 16384, 32768, 65536, 131072} {
		dd := d
		dd.IOSize = size
		run, err := core.ExecutePattern(new(core.Scratch), dev, core.SW.Pattern(dd), at)
		if err != nil {
			log.Fatal(err)
		}
		at += run.Total + 5*time.Second
		perByte := run.Summary.Mean / float64(size)
		samples = append(samples, sample{size, perByte})
		fmt.Printf("  %6d KB: %7.3f ms/IO, %7.3f us/KB\n", size/1024, run.Summary.Mean*1e3, perByte*1e9)
	}
	best := samples[0].perByte
	for _, s := range samples {
		if s.perByte < best {
			best = s.perByte
		}
	}
	for _, s := range samples {
		if s.perByte <= best*1.3 {
			return s.size, at
		}
	}
	return samples[len(samples)-1].size, at
}

// choosePartitions sweeps the partitioned sequential-write pattern and
// returns the largest partition count before cost doubles over the single-
// stream case.
func choosePartitions(dev device.Device, d core.Defaults, at time.Duration) (int, time.Duration) {
	fmt.Println("partitioned sequential-write sweep:")
	var base float64
	chosen := 1
	for parts := 1; parts <= 64; parts *= 2 {
		cost, end := partitionedCost(dev, d, parts, at)
		at = end
		fmt.Printf("  %3d partitions: %7.3f ms/IO\n", parts, cost)
		if parts == 1 {
			base = cost
			continue
		}
		if cost <= 2.5*base {
			chosen = parts
		}
	}
	return chosen, at
}

func partitionedCost(dev device.Device, d core.Defaults, parts int, at time.Duration) (float64, time.Duration) {
	p := core.SW.Pattern(d)
	p.LBA = core.Partitioned
	p.Partitions = parts
	p.TargetSize = int64(d.IOCount) * d.IOSize / 2
	if p.TargetSize/int64(parts) < d.IOSize {
		p.TargetSize = int64(parts) * d.IOSize * 4
	}
	run, err := core.ExecutePattern(new(core.Scratch), dev, p, at)
	if err != nil {
		log.Fatal(err)
	}
	return run.Summary.Mean * 1e3, at + run.Total + 5*time.Second
}

// mergeCost times the write side of an N-way merge (round-robin sequential
// writes over N buckets).
func mergeCost(dev device.Device, d core.Defaults, fanIn int, at time.Duration) (float64, time.Duration) {
	cost, end := partitionedCost(dev, d, fanIn, at)
	if cost == 0 {
		fmt.Fprintln(os.Stderr, "warning: zero merge cost measured")
	}
	return cost, end
}

// Endurance studies device aging, which footnote 1 of the paper rules out
// for physical devices ("reaching the erase limit (with wear leveling) may
// take years"). The simulator tracks per-block erase counts exactly, so this
// example measures write amplification and wear spread under sustained
// writes on the Memoright's design — its translation layer and write buffer
// — built on MLC chips (10^5 erases per block), and projects the device's
// lifetime. The answer depends on the workload's locality: a random write the
// buffer cannot absorb rewrites its whole flash block.
func Example_endurance() {
	cellType := flash.MLC
	const logical = 128 << 20

	fmt.Printf("%s device, %d MB logical, erase budget %d cycles/block\n\n",
		cellType, logical>>20, cellType.EraseLimit())
	fmt.Printf("%-28s %10s %12s %14s\n", "workload", "write amp", "wear spread", "est. lifetime")
	for _, wl := range []struct {
		name   string
		target int64
	}{
		{"random over whole device", logical / 2},
		{"random over 8 MB hot spot", 8 << 20},
		{"sequential", 0},
	} {
		amp, spread, lifetime := measureWear(cellType, logical, wl.target)
		fmt.Printf("%-28s %10.2f %12.2f %14s\n", wl.name, amp, spread, lifetime)
	}
	fmt.Println("\nWrite amplification multiplies wear; the wear spread (max erase count")
	fmt.Println("over mean) shows how well dynamic wear leveling keeps blocks even. The")
	fmt.Println("lifetime projects the measured rates onto a 32 GB device sustaining")
	fmt.Println("10 MB/s of writes — the measurement the paper's footnote 1 deems")
	fmt.Println("impractical on hardware.")
	// Output:
	// MLC device, 128 MB logical, erase budget 100000 cycles/block
	//
	// workload                      write amp  wear spread  est. lifetime
	// random over whole device           2.89         1.70      2.4 years
	// random over 8 MB hot spot          0.50         3.16      7.5 years
	// sequential                         1.00         1.30      9.1 years
	//
	// Write amplification multiplies wear; the wear spread (max erase count
	// over mean) shows how well dynamic wear leveling keeps blocks even. The
	// lifetime projects the measured rates onto a 32 GB device sustaining
	// 10 MB/s of writes — the measurement the paper's footnote 1 deems
	// impractical on hardware.
}

// measureWear builds a fresh buffered FTL-backed device, applies ~3x the logical
// capacity of writes with the given random target (0 = sequential), and
// returns the write amplification, the wear spread (max/mean erase count),
// and the projected lifetime at 10 MB/s.
func measureWear(cell flash.CellType, logical int64, randomTarget int64) (amp, spread float64, lifetime string) {
	// The Memoright's translation layer and write buffer over chips of the
	// given cell type.
	prof, err := profile.ByKey("memoright")
	if err != nil {
		log.Fatal(err)
	}
	cfg := prof.Page
	cfg.LogicalBytes = logical
	arr, err := ftl.NewUniformArray(4, cell, logical+int64(cfg.ReserveBlocks+cfg.WritePoints+4)*128*1024)
	if err != nil {
		log.Fatal(err)
	}
	cost := ftl.DefaultCostModel(cell)
	f, err := ftl.NewPageFTL(arr, cfg, cost)
	if err != nil {
		log.Fatal(err)
	}
	buffered, err := ftl.NewWriteCache(f, *prof.Cache, cost)
	if err != nil {
		log.Fatal(err)
	}
	dev, err := device.NewSimDevice(device.SimConfig{
		Name: "endurance",
		Bus:  device.BusConfig{CmdLatency: 100 * time.Microsecond, ReadBytesPerS: 100 << 20, WriteBytesPerS: 100 << 20},
	}, buffered, cost)
	if err != nil {
		log.Fatal(err)
	}
	at, err := methodology.EnforceRandomState(dev, 1)
	if err != nil {
		log.Fatal(err)
	}
	baselinePages := f.Stats().PagesProgrammed

	d := core.StandardDefaults()
	d.IOCount = int(3 * logical / d.IOSize)
	var p core.Pattern
	if randomTarget > 0 {
		p = core.RW.Pattern(d)
		p.TargetSize = randomTarget
	} else {
		p = core.SW.Pattern(d)
		p.TargetSize = logical // wrap: keep rewriting the device
	}
	if _, err := core.ExecutePattern(new(core.Scratch), dev, p, at+time.Second); err != nil {
		log.Fatal(err)
	}

	st := f.Stats()
	written := int64(d.IOCount) * d.IOSize / 2048 // host pages this workload
	amp = float64(st.PagesProgrammed-baselinePages) / float64(written)

	// Wear spread: max erase count over the mean across all blocks.
	var counts []int
	total := 0
	for b := 0; b < arr.Blocks(); b++ {
		ec, _ := arr.EraseCount(b)
		counts = append(counts, ec)
		total += ec
	}
	sort.Ints(counts)
	mean := float64(total) / float64(len(counts))
	if mean > 0 {
		spread = float64(counts[len(counts)-1]) / mean
	}

	// Lifetime: at 10 MB/s host writes, flash wears amp times faster; the
	// budget is erases/block x blocks x blockBytes of erase-equivalent
	// writes, derated by the wear spread (the hottest block dies first).
	// Write amplification and spread are capacity-independent, so project
	// onto a full-size 32 GB device.
	const fullSize = 32 << 30
	blocks := float64(arr.Blocks()) * fullSize / float64(logical)
	budgetBytes := float64(cell.EraseLimit()) * blocks * 128 * 1024
	effective := budgetBytes / amp / spread
	seconds := effective / (10 << 20)
	years := seconds / (365 * 24 * 3600)
	lifetime = fmt.Sprintf("%.1f years", years)
	return amp, spread, lifetime
}

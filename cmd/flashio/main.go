// Command flashio is the low-level pattern runner, the analogue of the
// FlashIO tool the uFLIP authors used: it executes one fully parameterized
// IO pattern against a device (simulated or a real file) and reports per-IO
// response times and summary statistics.
//
// Examples:
//
//	flashio -device memoright -pattern RW -iosize 32768 -iocount 1024
//	flashio -device kingston-dti -pattern SW -lba partitioned -partitions 8
//	flashio -device mtron -pattern RW -pause 10ms -series rw.csv
//	flashio -file /tmp/scratch.img -capacity 1073741824 -pattern RR
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/stats"
	"uflip/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flashio:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		devKey    = flag.String("device", "", "simulated device profile (see -list)")
		list      = flag.Bool("list", false, "list device profiles and exit")
		file      = flag.String("file", "", "measure a real file instead of a simulated device (every write is followed by an fsync)")
		capacity  = flag.Int64("capacity", 1<<30, "device capacity in bytes (simulated or created file)")
		state     = flag.String("state", "random", "initial device state: random, sequential or none (Section 4.1)")
		pattern   = flag.String("pattern", "SR", "baseline pattern: SR, RR, SW or RW")
		lba       = flag.String("lba", "", "override location function: seq, rnd, ordered or partitioned")
		ioSize    = flag.Int64("iosize", 32*1024, "IO size in bytes")
		ioShift   = flag.Int64("shift", 0, "alignment shift in bytes (IOShift)")
		ioCount   = flag.Int("iocount", 1024, "number of IOs")
		ioIgnore  = flag.Int("ioignore", 0, "warm-up IOs excluded from the summary")
		offset    = flag.Int64("offset", 0, "target offset in bytes")
		target    = flag.Int64("target", 0, "target size in bytes (0 = methodology default)")
		pause     = flag.Duration("pause", 0, "pause between IOs")
		burst     = flag.Int("burst", 0, "burst length (IOs between pauses; 0/1 = every IO)")
		incr      = flag.Int64("incr", 1, "LBA increment for -lba ordered (-1 reverse, 0 in-place)")
		parts     = flag.Int("partitions", 1, "partition count for -lba partitioned")
		parallel  = flag.Int("parallel", 1, "replicate the pattern over N processes")
		seed      = flag.Int64("seed", 1, "random seed")
		seriesOut = flag.String("series", "", "write the per-IO response-time series to this CSV file")
	)
	flag.Parse()

	if *list {
		for _, p := range profile.All() {
			fmt.Printf("%-18s %s ($%d)\n", p.Key, p.String(), p.PriceUSD)
		}
		return nil
	}

	dev, err := openDevice(*devKey, *file, *capacity)
	if err != nil {
		return err
	}

	var at time.Duration
	switch *state {
	case "random":
		fmt.Fprintf(os.Stderr, "enforcing random state over %d bytes...\n", dev.Capacity())
		at, err = methodology.EnforceRandomState(dev, *seed)
	case "sequential":
		at, err = methodology.EnforceSequentialState(dev, *seed)
	case "none":
	default:
		return fmt.Errorf("unknown -state %q", *state)
	}
	if err != nil {
		return err
	}
	at += time.Second

	b, err := core.ParseBaseline(*pattern)
	if err != nil {
		return err
	}
	d := core.StandardDefaults()
	d.IOSize = *ioSize
	d.IOCount = *ioCount
	d.IOIgnore = *ioIgnore
	d.Seed = *seed
	d.RandomTarget = core.RandomTargetFor(dev.Capacity())
	p := b.Pattern(d)
	p.TargetOffset = *offset
	p.IOShift = *ioShift
	p.Pause = *pause
	p.Burst = *burst
	if *target > 0 {
		p.TargetSize = *target
	}
	switch *lba {
	case "":
	case "seq":
		p.LBA = core.Sequential
	case "rnd":
		p.LBA = core.Random
	case "ordered":
		p.LBA = core.Ordered
		p.Incr = *incr
	case "partitioned":
		p.LBA = core.Partitioned
		p.Partitions = *parts
	default:
		return fmt.Errorf("unknown -lba %q", *lba)
	}

	var run *core.Run
	if *parallel > 1 {
		run, err = core.ExecuteParallel(dev, p, *parallel, at)
	} else {
		run, err = core.ExecutePattern(dev, p, at)
	}
	if err != nil {
		return err
	}

	fmt.Printf("device=%s pattern=%s ios=%d total=%v\n", dev.Name(), run.Name, len(run.RTs), run.Total)
	fmt.Printf("summary (excluding %d warm-up IOs): %s\n", run.IOIgnore, run.Summary)
	an := stats.AnalyzePhases(run.RTs)
	fmt.Printf("two-phase analysis: start-up=%d IOs, period=%d IOs, oscillates=%v\n",
		an.StartUp, an.Period, an.Oscillates)

	if *seriesOut != "" {
		f, err := os.Create(*seriesOut)
		if err != nil {
			return err
		}
		if err := trace.WriteRTSeriesCSV(f, run.RTs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("per-IO series written to %s\n", *seriesOut)
	}
	return nil
}

func openDevice(devKey, file string, capacity int64) (device.Device, error) {
	switch {
	case devKey != "" && file != "":
		return nil, fmt.Errorf("use -device or -file, not both")
	case file != "":
		return device.OpenFileDevice(file, capacity)
	case devKey != "":
		p, err := profile.ByKey(devKey)
		if err != nil {
			return nil, err
		}
		return p.BuildWithCapacity(capacity)
	default:
		return nil, fmt.Errorf("pass -device <profile> (see -list) or -file <path>")
	}
}

package profile

import (
	"time"

	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
)

const (
	kb = int64(1024)
	mb = 1024 * kb
	gb = 1024 * mb
)

// slc/mlcBase return cost models seeded from datasheet chip timings; each
// profile then sets its calibrated parallelism coefficients.
func slcBase() ftl.CostModel {
	return ftl.DefaultCostModel(flash.SLC)
}

func mlcBase() ftl.CostModel {
	return ftl.DefaultCostModel(flash.MLC)
}

func mbps(n float64) float64 { return n * 1024 * 1024 }

// All returns the eleven devices of Table 2. Order follows the table.
func All() []Profile {
	return []Profile{
		memoright(),
		gskill(),
		samsung(),
		mtron(),
		transcendSSD16(),
		transcendMLC32(),
		kingstonDTHX(),
		corsair(),
		transcendModule(),
		kingstonDTI(),
		kingstonSD(),
	}
}

// memoright is the Memoright MR25.2-032S, the paper's top-of-the-line SSD
// (Figure 1 shows its FPGA, 16 MB RAM and capacitor). Table 3 row:
// SR 0.3 / RR 0.4 / SW 0.3 / RW 5 ms; pause effect at 5 ms; locality 8 MB
// (=SW); 8 partitions (=); reverse =; in-place =; large Incr x4.
func memoright() Profile {
	cost := slcBase()
	cost.ReadParallel = 8
	cost.SeqReadFactor = 0.05
	cost.ProgramParallel = 16
	cost.MergeParallel = 3.7
	cost.EraseParallel = 4
	cost.RAMPerByte = 1 * time.Nanosecond
	cost.MapFlush = 15 * time.Millisecond
	cost.ReadSeek = 90 * time.Microsecond
	return Profile{
		Key: "memoright", Brand: "Memoright", Model: "MR25.2-032S", Type: "SSD",
		CapacityBytes: 32 * gb, PriceUSD: 943, Representative: true,
		Cell: flash.SLC, Chips: 8, Kind: PageMapped,
		Page: ftl.PageConfig{
			WritePoints:   8,
			ReserveBlocks: 128,
			ReadSteal:     0.3,
			GCBatch:       8,
		},
		Cache: &ftl.CacheConfig{
			CapacityBytes: 8 * mb,
			Streams:       8,
			EvictBatch:    4,
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus:         device.BusConfig{CmdLatency: 60 * time.Microsecond, ReadBytesPerS: mbps(135), WriteBytesPerS: mbps(135)},
			WriteBack:   true,
			MaxFlashLag: 150 * time.Millisecond,
		},
	}
}

// gskill is the GSKILL FS-25S2-32GB, a mid-range MLC SSD not detailed in
// Table 3; modelled as a slower Samsung-class device.
func gskill() Profile {
	cost := mlcBase()
	cost.ReadParallel = 4
	cost.SeqReadFactor = 0.1
	cost.ProgramParallel = 12
	cost.MergeParallel = 1
	cost.EraseParallel = 2
	cost.MapFlush = 25 * time.Millisecond
	cost.ReadSeek = 200 * time.Microsecond
	return Profile{
		Key: "gskill", Brand: "GSKILL", Model: "FS-25S2-32GB", Type: "SSD",
		CapacityBytes: 32 * gb, PriceUSD: 694,
		Cell: flash.MLC, Chips: 4, Kind: PageMapped,
		Page: ftl.PageConfig{
			WritePoints:   4,
			ReserveBlocks: 8,
			GCBatch:       4,
		},
		Cache: &ftl.CacheConfig{
			CapacityBytes:    8 * mb,
			Streams:          4,
			FlashBacked:      true,
			SeqAdmitPerPage:  3 * time.Microsecond,
			RandAdmitPerPage: 100 * time.Microsecond,
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus: device.BusConfig{CmdLatency: 80 * time.Microsecond, ReadBytesPerS: mbps(80), WriteBytesPerS: mbps(80)},
		},
	}
}

// samsung is the Samsung MCBQE32G5MPP. Table 3 row: SR 0.5 / RR 0.5 /
// SW 0.6 / RW 18 ms; no pause effect; locality 16 MB (x1.5); 4 partitions
// (x2); reverse x1.5; in-place x0.6; large Incr x2. Write-through (no pause
// effect), with a 16 MB flash-backed log zone providing the large locality
// area. This is also the device of the Section 4.1 state anomaly: out of the
// box its random writes are ~1 ms until the whole device has been written.
func samsung() Profile {
	cost := slcBase()
	cost.ReadParallel = 8
	cost.SeqReadFactor = 0.05
	cost.ProgramParallel = 24
	cost.MergeParallel = 1
	cost.EraseParallel = 2
	cost.MapFlush = 18 * time.Millisecond
	cost.ReadSeek = 60 * time.Microsecond
	return Profile{
		Key: "samsung", Brand: "Samsung", Model: "MCBQE32G5MPP", Type: "SSD",
		CapacityBytes: 32 * gb, PriceUSD: 517, Representative: true,
		Cell: flash.SLC, Chips: 4, Kind: PageMapped,
		Page: ftl.PageConfig{
			WritePoints:   4,
			ReserveBlocks: 8,
			GCBatch:       4,
		},
		Cache: &ftl.CacheConfig{
			CapacityBytes:    16 * mb,
			Streams:          4,
			FlashBacked:      true,
			SeqAdmitPerPage:  2 * time.Microsecond,
			RandAdmitPerPage: 32 * time.Microsecond,
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus: device.BusConfig{CmdLatency: 60 * time.Microsecond, ReadBytesPerS: mbps(100), WriteBytesPerS: mbps(100)},
		},
	}
}

// mtron is the Mtron SATA7035-016. Table 3 row: SR 0.4 / RR 0.5 / SW 0.4 /
// RW 9 ms; pause effect at 9 ms; locality 8 MB (x2); 4 partitions (x1.5);
// reverse =; in-place =; large Incr x2. Figure 3 shows its ~125-IO random-
// write start-up phase; Figure 5 its ~2.5 s lingering reclamation.
func mtron() Profile {
	cost := slcBase()
	cost.ReadParallel = 8
	cost.SeqReadFactor = 0.05
	cost.ProgramParallel = 16
	cost.MergeParallel = 1.9
	cost.EraseParallel = 4
	cost.RAMPerByte = 1 * time.Nanosecond
	cost.MapFlush = 9 * time.Millisecond
	cost.ReadSeek = 100 * time.Microsecond
	return Profile{
		Key: "mtron", Brand: "Mtron", Model: "SATA7035-016", Type: "SSD",
		CapacityBytes: 16 * gb, PriceUSD: 407, Representative: true,
		Cell: flash.SLC, Chips: 4, Kind: PageMapped,
		Page: ftl.PageConfig{
			WritePoints:   4,
			ReserveBlocks: 256,
			ReadSteal:     0.33,
			GCBatch:       8,
		},
		Cache: &ftl.CacheConfig{
			CapacityBytes: 8 * mb,
			Streams:       4,
			EvictBatch:    4,
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus:         device.BusConfig{CmdLatency: 70 * time.Microsecond, ReadBytesPerS: mbps(115), WriteBytesPerS: mbps(115)},
			WriteBack:   true,
			MaxFlashLag: 650 * time.Millisecond,
		},
	}
}

// transcendSSD16 is the Transcend TS16GSSD25S-S, a low-end SLC SSD not in
// Table 3: block-mapped with a small log zone.
func transcendSSD16() Profile {
	cost := slcBase()
	cost.ReadParallel = 4
	cost.SeqReadFactor = 0.1
	cost.ProgramParallel = 12
	cost.MergeParallel = 1
	cost.EraseParallel = 2
	cost.MapFlush = 30 * time.Millisecond
	cost.ReadSeek = 300 * time.Microsecond
	return Profile{
		Key: "transcend-ssd16", Brand: "Transcend", Model: "TS16GSSD25S-S", Type: "SSD",
		CapacityBytes: 16 * gb, PriceUSD: 250,
		Cell: flash.SLC, Chips: 2, Kind: BlockMapped,
		Block: ftl.BlockConfig{
			LogBlocks:       4,
			MapDirtyLimit:   16,
			MapUnitsPerPage: 8,
		},
		Cache: &ftl.CacheConfig{
			CapacityBytes:    4 * mb,
			Streams:          4,
			FlashBacked:      true,
			SeqAdmitPerPage:  2 * time.Microsecond,
			RandAdmitPerPage: 120 * time.Microsecond,
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus: device.BusConfig{CmdLatency: 120 * time.Microsecond, ReadBytesPerS: mbps(35), WriteBytesPerS: mbps(35)},
		},
	}
}

// transcendMLC32 is the Transcend TS32GSSD25S-M ("Transcend MLC" in
// Table 3): SR 1.4 / RR 3.0 / SW 2.6 / RW 233 ms; locality 4 MB (=);
// 4 partitions (x2); reverse x2; in-place x2; large Incr x1.
func transcendMLC32() Profile {
	cost := mlcBase()
	cost.ReadParallel = 4
	cost.SeqReadFactor = 0.1
	cost.ProgramParallel = 24
	cost.MergeParallel = 1
	cost.EraseParallel = 2
	cost.MapFlush = 175 * time.Millisecond
	cost.ReadSeek = 2 * time.Millisecond
	return Profile{
		Key: "transcend-mlc32", Brand: "Transcend", Model: "TS32GSSD25S-M", Type: "SSD",
		CapacityBytes: 32 * gb, PriceUSD: 199, Representative: true,
		Cell: flash.MLC, Chips: 2, Kind: BlockMapped,
		Block: ftl.BlockConfig{
			LogBlocks:       4,
			MapDirtyLimit:   2, // scattered writes flush bookkeeping constantly
			MapUnitsPerPage: 8, // one map page covers 1 MB
		},
		Cache: &ftl.CacheConfig{
			CapacityBytes:    4 * mb,
			Streams:          4,
			FlashBacked:      true,
			SeqAdmitPerPage:  2 * time.Microsecond,
			RandAdmitPerPage: 60 * time.Microsecond,
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus: device.BusConfig{CmdLatency: 150 * time.Microsecond, ReadBytesPerS: mbps(38), WriteBytesPerS: mbps(26)},
		},
	}
}

// kingstonDTHX is the Kingston DataTraveler HyperX USB drive: SR 1.3 /
// RR 1.5 / SW 1.8 / RW 270 ms; locality 16 MB (x20); 8 partitions (x20);
// reverse x7; in-place x6; large Incr x1.
func kingstonDTHX() Profile {
	cost := mlcBase()
	cost.ReadParallel = 4
	cost.SeqReadFactor = 0.1
	cost.ProgramParallel = 48
	cost.MergeParallel = 1
	cost.EraseParallel = 4
	cost.MapFlush = 205 * time.Millisecond
	cost.ReadSeek = 200 * time.Microsecond
	return Profile{
		Key: "kingston-dthx", Brand: "Kingston", Model: "DT HyperX", Type: "USB drive",
		CapacityBytes: 8 * gb, PriceUSD: 153, Representative: true,
		Cell: flash.MLC, Chips: 2, Kind: BlockMapped,
		Block: ftl.BlockConfig{
			LogBlocks:       8,
			MapDirtyLimit:   2,
			MapUnitsPerPage: 8,
		},
		Cache: &ftl.CacheConfig{
			CapacityBytes:    16 * mb,
			Streams:          8,
			FlashBacked:      true,
			SeqAdmitPerPage:  2 * time.Microsecond,
			RandAdmitPerPage: 2200 * time.Microsecond, // calibrated: zone compaction on this device is extreme
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus: device.BusConfig{CmdLatency: 100 * time.Microsecond, ReadBytesPerS: mbps(26), WriteBytesPerS: mbps(25)},
		},
	}
}

// corsair is the Corsair Flash Voyager GT, a USB drive not in Table 3;
// modelled between the HyperX and the DTI.
func corsair() Profile {
	cost := mlcBase()
	cost.ReadParallel = 2
	cost.SeqReadFactor = 0.1
	cost.ProgramParallel = 48
	cost.MergeParallel = 1
	cost.EraseParallel = 4
	cost.MapFlush = 180 * time.Millisecond
	cost.ReadSeek = 300 * time.Microsecond
	return Profile{
		Key: "corsair", Brand: "Corsair", Model: "Flash Voyager GT", Type: "USB drive",
		CapacityBytes: 16 * gb, PriceUSD: 110,
		Cell: flash.MLC, Chips: 2, Kind: BlockMapped,
		Block: ftl.BlockConfig{
			LogBlocks:       4,
			MapDirtyLimit:   2,
			MapUnitsPerPage: 8,
		},
		Cache: &ftl.CacheConfig{
			CapacityBytes:    8 * mb,
			Streams:          4,
			FlashBacked:      true,
			SeqAdmitPerPage:  2 * time.Microsecond,
			RandAdmitPerPage: 1 * time.Millisecond,
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus: device.BusConfig{CmdLatency: 150 * time.Microsecond, ReadBytesPerS: mbps(22), WriteBytesPerS: mbps(20)},
		},
	}
}

// transcendModule is the Transcend TS4GDOM40V-S IDE module ("Transcend
// Module" in Table 3): SR 1.2 / RR 1.3 / SW 1.7 / RW 18 ms; locality 4 MB
// (x2); 4 partitions (x2); reverse x3; in-place x2; large Incr x2. Its SLC
// chips keep merges an order of magnitude cheaper than the MLC USB drives.
func transcendModule() Profile {
	cost := slcBase()
	cost.ReadParallel = 2
	cost.SeqReadFactor = 0.1
	cost.ProgramParallel = 12
	cost.MergeParallel = 1
	cost.EraseParallel = 2
	cost.MapFlush = 18 * time.Millisecond
	cost.ReadSeek = 150 * time.Microsecond
	return Profile{
		Key: "transcend-module", Brand: "Transcend", Model: "TS4GDOM40V-S", Type: "IDE module",
		CapacityBytes: 4 * gb, PriceUSD: 62, Representative: true,
		Cell: flash.SLC, Chips: 1, Kind: BlockMapped,
		Block: ftl.BlockConfig{
			LogBlocks:       4,
			MapDirtyLimit:   512, // bookkeeping flushes only on very wide scatter
			MapUnitsPerPage: 8,
		},
		Cache: &ftl.CacheConfig{
			CapacityBytes:    4 * mb,
			Streams:          4,
			FlashBacked:      true,
			SeqAdmitPerPage:  2 * time.Microsecond,
			RandAdmitPerPage: 130 * time.Microsecond,
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus: device.BusConfig{CmdLatency: 100 * time.Microsecond, ReadBytesPerS: mbps(30), WriteBytesPerS: mbps(30)},
		},
	}
}

// kingstonDTI is the Kingston DataTraveler I, the paper's canonical low-end
// USB drive (Figures 4 and 7): SR 1.9 / RR 2.2 / SW 2.9 / RW 256 ms;
// no locality benefit; 4 partitions (x5); reverse x8; in-place x40; large
// Incr x1. No write buffer at all: every random write pays a full merge.
func kingstonDTI() Profile {
	cost := mlcBase()
	cost.ReadParallel = 2
	cost.SeqReadFactor = 0.1
	cost.ProgramParallel = 24
	cost.MergeParallel = 1
	cost.EraseParallel = 4
	cost.MapFlush = 200 * time.Millisecond
	cost.MapFlushSeq = 120 * time.Millisecond
	cost.ReadSeek = 300 * time.Microsecond
	return Profile{
		Key: "kingston-dti", Brand: "Kingston", Model: "DTI 4GB", Type: "USB drive",
		CapacityBytes: 4 * gb, PriceUSD: 17, Representative: true,
		Cell: flash.MLC, Chips: 2, Kind: BlockMapped,
		Block: ftl.BlockConfig{
			LogBlocks:       4,
			MapDirtyLimit:   2,
			MapUnitsPerPage: 32, // one map page covers 4 MB: spikes every ~128 IOs (Figure 4)
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus: device.BusConfig{CmdLatency: 150 * time.Microsecond, ReadBytesPerS: mbps(22), WriteBytesPerS: mbps(20)},
		},
	}
}

// kingstonSD is the Kingston SD 4GB card (2 GB usable in the paper's
// table), the cheapest and slowest device.
func kingstonSD() Profile {
	cost := mlcBase()
	cost.ReadParallel = 1
	cost.SeqReadFactor = 0.2
	cost.ProgramParallel = 8
	cost.MergeParallel = 1
	cost.EraseParallel = 1
	cost.MapFlush = 250 * time.Millisecond
	cost.ReadSeek = 500 * time.Microsecond
	return Profile{
		Key: "kingston-sd", Brand: "Kingston", Model: "SD 4GB", Type: "SD card",
		CapacityBytes: 2 * gb, PriceUSD: 12,
		Cell: flash.MLC, Chips: 1, Kind: BlockMapped,
		Block: ftl.BlockConfig{
			LogBlocks:       2,
			MapDirtyLimit:   2,
			MapUnitsPerPage: 8,
		},
		Cost: cost,
		Sim: device.SimConfig{
			Bus: device.BusConfig{CmdLatency: 300 * time.Microsecond, ReadBytesPerS: mbps(10), WriteBytesPerS: mbps(8)},
		},
	}
}

package workload

import (
	"fmt"
	"math/rand"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
)

// OLTP models a page-based DBMS buffer pool under transaction load:
// page-sized IOs at uniformly random page addresses, a fixed read/write mix,
// and an optional per-op think time. It is the "random page read/write mix"
// the paper positions flash devices to serve (Section 1's database-design
// motivation).
type OLTP struct {
	// PageSize is the IO size (default 8 KB, a common DBMS page).
	PageSize int64
	// TargetSize bounds the addressable area, which starts at offset 0.
	TargetSize int64
	// ReadFraction is the probability an op is a read, in [0, 1]
	// (e.g. 0.7 for a 70/30 read/write mix).
	ReadFraction float64
	// Think is the inter-arrival gap between ops (0 = back-to-back).
	Think time.Duration
	// Count is the stream length.
	Count int
	// Seed makes the stream reproducible.
	Seed int64
}

// Name labels the workload.
func (o OLTP) Name() string { return fmt.Sprintf("oltp(r=%.2f)", o.ReadFraction) }

func (o OLTP) checked() (OLTP, error) {
	if o.PageSize == 0 {
		o.PageSize = 8 * 1024
	}
	switch {
	case o.PageSize <= 0 || o.PageSize%core.SectorSize != 0:
		return o, fmt.Errorf("workload: OLTP PageSize %d must be a positive multiple of %d", o.PageSize, core.SectorSize)
	case o.TargetSize < o.PageSize:
		return o, fmt.Errorf("workload: OLTP TargetSize %d smaller than PageSize %d", o.TargetSize, o.PageSize)
	case o.ReadFraction < 0 || o.ReadFraction > 1:
		return o, fmt.Errorf("workload: OLTP ReadFraction %v must be in [0, 1]", o.ReadFraction)
	case o.Think < 0:
		return o, fmt.Errorf("workload: OLTP Think must be non-negative")
	case o.Count <= 0:
		return o, fmt.Errorf("workload: OLTP Count must be positive")
	}
	return o, nil
}

// Generate materializes the stream.
func (o OLTP) Generate() ([]Op, error) {
	o, err := o.checked()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	pages := o.TargetSize / o.PageSize
	ops := make([]Op, o.Count)
	for i := range ops {
		mode := device.Write
		if rng.Float64() < o.ReadFraction {
			mode = device.Read
		}
		ops[i] = Op{
			Gap: o.Think,
			IO: device.IO{
				Mode: mode,
				Off:  rng.Int63n(pages) * o.PageSize,
				Size: o.PageSize,
			},
		}
	}
	return ops, nil
}

// LogAppend models log-structured storage: Streams concurrent append-only
// write streams, round-robin across streams, each appending sequentially
// within its own region (and wrapping when the region fills) — the pattern
// of WALs, LSM segment writes and event logs, and the workload that probes a
// device's write-point limit (the Partitioning cliff of Table 3).
type LogAppend struct {
	// Streams is the number of concurrent append streams (default 1).
	Streams int
	// IOSize is the append size (default 32 KB).
	IOSize int64
	// TargetSize bounds the area divided across streams, from offset 0.
	TargetSize int64
	// Gap is the inter-arrival gap between appends.
	Gap time.Duration
	// Count is the stream length.
	Count int
}

// Name labels the workload.
func (l LogAppend) Name() string {
	s := l.Streams
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("append(streams=%d)", s)
}

func (l LogAppend) checked() (LogAppend, error) {
	if l.Streams == 0 {
		l.Streams = 1
	}
	if l.IOSize == 0 {
		l.IOSize = 32 * 1024
	}
	switch {
	case l.Streams < 1:
		return l, fmt.Errorf("workload: LogAppend Streams must be >= 1")
	case l.IOSize <= 0 || l.IOSize%core.SectorSize != 0:
		return l, fmt.Errorf("workload: LogAppend IOSize %d must be a positive multiple of %d", l.IOSize, core.SectorSize)
	case l.Gap < 0:
		return l, fmt.Errorf("workload: LogAppend Gap must be non-negative")
	case l.Count <= 0:
		return l, fmt.Errorf("workload: LogAppend Count must be positive")
	}
	if l.TargetSize/int64(l.Streams) < l.IOSize {
		return l, fmt.Errorf("workload: LogAppend target %d too small for %d streams at IOSize %d", l.TargetSize, l.Streams, l.IOSize)
	}
	return l, nil
}

// Generate materializes the stream.
func (l LogAppend) Generate() ([]Op, error) {
	l, err := l.checked()
	if err != nil {
		return nil, err
	}
	region := l.TargetSize / int64(l.Streams)
	region -= region % l.IOSize
	ops := make([]Op, l.Count)
	for i := range ops {
		s := int64(i % l.Streams)
		seq := int64(i / l.Streams)
		ops[i] = Op{
			Gap: l.Gap,
			IO: device.IO{
				Mode: device.Write,
				Off:  s*region + (seq*l.IOSize)%region,
				Size: l.IOSize,
			},
		}
	}
	return ops, nil
}

// Zipfian models skewed hot/cold access: page addresses drawn from a Zipf
// distribution, so a few hot pages absorb most of the traffic — the access
// shape of caches, indexes and social-media reads. Hot ranks are scattered
// across the target with a deterministic hash so the hot set is spatially
// spread, as it is in a real address space.
type Zipfian struct {
	// PageSize is the IO size (default 8 KB).
	PageSize int64
	// TargetSize bounds the addressable area, which starts at offset 0.
	TargetSize int64
	// S is the Zipf skew (> 1; default 1.2 — higher is more skewed).
	S float64
	// ReadFraction is the probability an op is a read, in [0, 1].
	ReadFraction float64
	// Think is the inter-arrival gap between ops.
	Think time.Duration
	// Count is the stream length.
	Count int
	// Seed makes the stream reproducible.
	Seed int64
}

// Name labels the workload.
func (z Zipfian) Name() string { return fmt.Sprintf("zipf(s=%.2f,r=%.2f)", z.skew(), z.ReadFraction) }

func (z Zipfian) skew() float64 {
	if z.S == 0 {
		return 1.2
	}
	return z.S
}

func (z Zipfian) checked() (Zipfian, error) {
	if z.PageSize == 0 {
		z.PageSize = 8 * 1024
	}
	z.S = z.skew()
	switch {
	case z.PageSize <= 0 || z.PageSize%core.SectorSize != 0:
		return z, fmt.Errorf("workload: Zipfian PageSize %d must be a positive multiple of %d", z.PageSize, core.SectorSize)
	case z.TargetSize < z.PageSize:
		return z, fmt.Errorf("workload: Zipfian TargetSize %d smaller than PageSize %d", z.TargetSize, z.PageSize)
	case z.S <= 1:
		return z, fmt.Errorf("workload: Zipfian skew S %v must be > 1", z.S)
	case z.ReadFraction < 0 || z.ReadFraction > 1:
		return z, fmt.Errorf("workload: Zipfian ReadFraction %v must be in [0, 1]", z.ReadFraction)
	case z.Think < 0:
		return z, fmt.Errorf("workload: Zipfian Think must be non-negative")
	case z.Count <= 0:
		return z, fmt.Errorf("workload: Zipfian Count must be positive")
	}
	return z, nil
}

// scatter maps a Zipf rank to a page slot with a splitmix64-style hash so
// hot ranks spread over the whole target instead of clustering at offset 0.
// The map is deterministic; distinct ranks may rarely collide, which only
// merges two hot pages.
func scatter(rank uint64, slots int64) int64 {
	x := rank + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x % uint64(slots))
}

// Generate materializes the stream.
func (z Zipfian) Generate() ([]Op, error) {
	z, err := z.checked()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(z.Seed))
	slots := z.TargetSize / z.PageSize
	zipf := rand.NewZipf(rng, z.S, 1, uint64(slots-1))
	if zipf == nil {
		return nil, fmt.Errorf("workload: invalid Zipf parameters (S=%v, slots=%d)", z.S, slots)
	}
	ops := make([]Op, z.Count)
	for i := range ops {
		mode := device.Write
		if rng.Float64() < z.ReadFraction {
			mode = device.Read
		}
		ops[i] = Op{
			Gap: z.Think,
			IO: device.IO{
				Mode: mode,
				Off:  scatter(zipf.Uint64(), slots) * z.PageSize,
				Size: z.PageSize,
			},
		}
	}
	return ops, nil
}

// Bursty wraps another workload into bursty arrival phases: BurstOps ops
// submitted back-to-back, then a Gap pause before the next burst — the
// arrival shape of checkpoints, group commits and batched ETL, and the
// pattern that exercises a device's asynchronous reclamation (the
// Pause/Bursts rows of Table 3).
type Bursty struct {
	// Inner supplies the IOs; Bursty only reshapes their arrival times.
	Inner Generator
	// BurstOps is the number of back-to-back ops per burst (default 32).
	BurstOps int
	// Gap is the pause before each burst (0 = bursts run back-to-back and
	// only the within-burst gaps are cleared). The paper's Bursts
	// micro-benchmark uses 100 ms.
	Gap time.Duration
}

// Name labels the workload.
func (b Bursty) Name() string {
	inner := "?"
	if b.Inner != nil {
		inner = b.Inner.Name()
	}
	return fmt.Sprintf("bursty(%s)", inner)
}

// Generate materializes the inner stream and reshapes its arrivals. The
// inner stream is copied, never mutated: a generator backed by a shared
// slice keeps its original gaps.
func (b Bursty) Generate() ([]Op, error) {
	if b.Inner == nil {
		return nil, fmt.Errorf("workload: Bursty needs an Inner generator")
	}
	if b.BurstOps == 0 {
		b.BurstOps = 32
	}
	if b.BurstOps < 1 {
		return nil, fmt.Errorf("workload: Bursty BurstOps must be >= 1")
	}
	if b.Gap < 0 {
		return nil, fmt.Errorf("workload: Bursty Gap must be non-negative")
	}
	inner, err := b.Inner.Generate()
	if err != nil {
		return nil, err
	}
	ops := make([]Op, len(inner))
	copy(ops, inner)
	for i := range ops {
		if i%b.BurstOps == 0 {
			ops[i].Gap = b.Gap
		} else {
			ops[i].Gap = 0
		}
	}
	return ops, nil
}

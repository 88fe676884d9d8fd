// Package paperexp regenerates the tables and figures of the uFLIP paper's
// evaluation (Section 5) against the simulated devices, one function per
// artifact. Every artifact built from micro-benchmarks is a view of one
// product plan — RunBenchmark, the pipeline the uflip command, the daemon and
// the repository benchmark run (enforce the state, measure the phases and the
// pause, execute the plan through the engine): Table 3 is
// report.Characterize over a plan of Table3Micros, Figures 6 and 7 and the
// Section 5.2 sweeps are Curves over a plan of their micro-benchmark, and
// Figure 8 reads a Granularity and Locality plan. Figures 3–5 and the Section
// 4.1 state anomaly each drive one pattern or probe on a prepared device.
package paperexp

import (
	"fmt"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/statestore"
	"uflip/internal/stats"
)

// Config controls experiment scale. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Capacity is the simulated device capacity. A scaled-down device
	// (1 GB) reproduces the full-size shapes quickly, with two limits: a
	// page-mapped device flushes direct-map pages only above 1 GiB, and a
	// plan needs at least IOCount × 32 KiB, the span of its sequential
	// baselines (RunBenchmark refuses a smaller device).
	Capacity int64
	// Seed drives state enforcement and random patterns.
	Seed int64
	// IOCount is the default run length; RW runs are extended
	// automatically per the two-phase methodology.
	IOCount int
	// Pause is the pause inserted between runs (Section 4.3).
	Pause time.Duration
	// Store, when non-nil, persists enforced device states: Prepare and
	// the engine masters load the (spec, capacity, seed) state from disk
	// on a cache hit instead of replaying the enforcement IOs, and save it
	// after enforcing on a miss. Results are byte-identical either way.
	Store *statestore.Store
}

// DefaultConfig returns the scale used throughout the repository's
// benchmarks: 1 GB devices, 1,024-IO runs, 5 s pauses.
func DefaultConfig() Config {
	return Config{
		Capacity: 1 << 30,
		Seed:     42,
		IOCount:  1024,
		Pause:    5 * time.Second,
	}
}

func (c Config) defaults(capacity int64) core.Defaults {
	d := core.StandardDefaults()
	d.IOCount = c.IOCount
	d.Seed = c.Seed
	d.RandomTarget = core.RandomTargetFor(capacity)
	return d
}

// Prepare builds the named device at the configured capacity and enforces
// the random initial state (Section 4.1), returning the device and the
// virtual time at which measurements may start. The key may be a plain
// profile key ("mtron") or a composite array spec ("stripe(2,mtron,mtron)");
// for arrays, cfg.Capacity applies per member.
func Prepare(key string, cfg Config) (device.Cloneable, time.Duration, error) {
	dev, end, _, err := PrepareCached(key, cfg)
	if err != nil {
		return nil, 0, err
	}
	return dev, end + cfg.Pause, nil
}

// StateKey returns the state-store key of a device spec under cfg: the spec
// canonicalized (array and faulty expressions through their parsers'
// canonical String forms, so equivalent spellings share one cache entry —
// and different fault schedules never share one), a fingerprint of the
// resolved profile parameters (so editing a profile is a cache miss, never a
// stale hit), the per-member capacity, the enforcement seed and the
// enforcement kind (always random). An unresolvable spec leaves the fingerprint empty;
// building such a device fails before the key is ever used.
func StateKey(key string, cfg Config) statestore.Key {
	canonical := key
	if c, err := profile.CanonicalSpec(key); err == nil {
		canonical = c
	}
	fp, err := profile.Fingerprint(key)
	if err != nil {
		fp = ""
	}
	return statestore.Key{
		Spec:        canonical,
		Capacity:    cfg.Capacity,
		Seed:        cfg.Seed,
		Enforce:     "random",
		Fingerprint: fp,
	}
}

// PrepareCached builds the device and brings it to the random initial state
// (Section 4.1), returning the device, the virtual time enforcement finished
// (without cfg.Pause added) and whether the state came from cfg.Store. With no
// store configured it always enforces live (hit=false). With a store, a hit restores the
// persisted state — byte-identical to enforcing — and a miss enforces live
// and saves. The load-or-enforce window holds the store's per-key lock, so
// concurrent jobs that race on one key enforce it once.
func PrepareCached(key string, cfg Config) (device.Cloneable, time.Duration, bool, error) {
	dev, err := profile.BuildDevice(key, cfg.Capacity)
	if err != nil {
		return nil, 0, false, err
	}
	at, hit, err := enforceCached(dev, key, cfg)
	if err != nil {
		return nil, 0, false, err
	}
	return dev, at, hit, nil
}

// enforceCached brings an already-built device to the random initial state,
// loading it from cfg.Store on a hit and enforcing live (and saving) on a miss
// or with no store.
func enforceCached(dev device.Cloneable, key string, cfg Config) (time.Duration, bool, error) {
	if cfg.Store == nil {
		end, err := methodology.EnforceRandomState(dev, cfg.Seed)
		return end, false, err
	}
	sk := StateKey(key, cfg)
	unlock := cfg.Store.LockKey(sk)
	defer unlock()
	if at, hit, err := cfg.Store.Load(sk, dev); err != nil {
		return 0, false, err
	} else if hit {
		return at, true, nil
	}
	end, err := methodology.EnforceRandomState(dev, cfg.Seed)
	if err != nil {
		return 0, false, err
	}
	if err := cfg.Store.Save(sk, dev, end); err != nil {
		return 0, false, err
	}
	return end, false, nil
}

// Point is one sample of a parameter sweep.
type Point struct {
	X float64 // the experiment's parameter value, in its own unit
	Y float64 // response time in ms, or a ratio for relative figures
}

// TraceResult bundles a per-IO response-time series with its two-phase
// analysis; Figures 3 and 4 are plots of such traces.
type TraceResult struct {
	Run      *core.Run
	Analysis stats.PhaseAnalysis
}

// Figure3 runs the RW baseline with a large IOCount and analyzes its
// start-up and running phases (the paper shows the Mtron SSD: ~125 cheap IOs
// then oscillation between ~0.4 and ~27 ms).
func Figure3(dev device.Device, at time.Duration, cfg Config) (*TraceResult, error) {
	return baselineTrace(dev, at, cfg, core.RW, 4096)
}

// Figure4 runs the SW baseline the same way (the paper shows the Kingston
// DTI: no start-up, period ~128 IOs).
func Figure4(dev device.Device, at time.Duration, cfg Config) (*TraceResult, error) {
	return baselineTrace(dev, at, cfg, core.SW, 2048)
}

func baselineTrace(dev device.Device, at time.Duration, cfg Config, b core.Baseline, count int) (*TraceResult, error) {
	d := cfg.defaults(dev.Capacity())
	p := b.Pattern(d)
	p.IOCount = count
	if p.LBA == core.Sequential {
		p.TargetSize = int64(count) * p.IOSize
	}
	run, err := core.ExecutePattern(dev, p, at)
	if err != nil {
		return nil, err
	}
	return &TraceResult{Run: run, Analysis: stats.AnalyzePhases(run.RTs)}, nil
}

// Figure5 runs the pause-determination experiment (SR, RW batch, SR) and
// returns the methodology's report, whose trace is the figure.
func Figure5(dev device.Device, at time.Duration, cfg Config) (*methodology.PauseReport, error) {
	return methodology.MeasurePause(dev, cfg.defaults(dev.Capacity()), at)
}

// ShardFactory returns the engine device factory for a profile: one master
// device per (profile, capacity, enforcement-seed) is built and enforced
// lazily, and every shard receives its state — private mutable FTL state at
// copy cost instead of replaying the enforcement IOs, reset into the device
// the worker's previous shard ran on (engine.Shard.Reuse) rather than cloned
// afresh. Results are byte-identical, for any worker count, to building and
// enforcing a device per shard (the package's tests keep that rebuild factory
// as the clone-correctness oracle).
//
// Every shard now starts from the cfg.Seed-enforced state; earlier releases
// enforced each shard with its own derived seed, so absolute numbers differ
// from results recorded before the snapshot engine (determinism across
// worker counts is unchanged, and a shared enforced state matches the
// paper's one-device methodology more closely).
func ShardFactory(key string, cfg Config) engine.DeviceFactory {
	return engine.CloningFactory(func() (device.Cloneable, time.Duration, error) {
		return Prepare(key, cfg)
	})
}

// Table3Micros are the five micro-benchmarks a Table 3 row is read from
// (report.Characterize). Table 3 runs a plan of exactly these: BuildPlan
// places each sequential-write target after the ones before it, so a plan
// with more micro-benchmarks moves where the Partitioning and Order runs
// write, and with it their results.
var Table3Micros = []string{"Granularity", "Locality", "Partitioning", "Order", "Pause"}

// Curves is the view of a plan's results that the figures and sweeps plot:
// for one micro-benchmark, the mean response time (ms) per parameter value,
// one series per label — the baseline, or baseline/partner for a Mix
// experiment — each in the micro-benchmark's order. Figures 6 and 7 are the
// Granularity curves; the Section 5.2 results are those of Alignment, Mix
// and Parallelism.
func Curves(res *methodology.Results, micro string) map[string][]Point {
	out := make(map[string][]Point)
	for _, r := range res.Results {
		e := &r.Exp
		if e.Micro != micro {
			continue
		}
		label := e.Base.String()
		if e.MixWith != nil {
			label += "/" + e.MixWith.Name
		}
		out[label] = append(out[label], Point{X: float64(e.Value), Y: r.Run.Summary.Mean * 1e3})
	}
	return out
}

// Figure8 is one device's Figure 8 series: random-write cost relative to
// sequential writes as the target grows, X the target size in bytes. It reads
// a plan holding the Locality micro-benchmark and, for the reference, the
// Granularity SW run at the default IO size.
func Figure8(res *methodology.Results) ([]Point, error) {
	sw := res.Find("Granularity", core.SW, core.StandardDefaults().IOSize)
	if sw == nil || sw.Run.Summary.Mean <= 0 {
		return nil, fmt.Errorf("paperexp: no SW reference for %s", res.Device)
	}
	pts := Curves(res, "Locality")["RW"]
	for i := range pts {
		pts[i].Y /= sw.Run.Summary.Mean * 1e3
	}
	return pts, nil
}

// StateAnomaly reproduces the Section 4.1 Samsung observation: random-write
// cost out of the box versus after writing the whole device. Returns both
// mean response times in ms.
func StateAnomaly(key string, cfg Config) (outOfBoxMS, afterFillMS float64, err error) {
	fresh, err := profile.BuildDevice(key, cfg.Capacity)
	if err != nil {
		return 0, 0, err
	}
	d := cfg.defaults(fresh.Capacity())
	p := core.RW.Pattern(d)
	run, err := core.ExecutePattern(fresh, p, 0)
	if err != nil {
		return 0, 0, err
	}
	outOfBoxMS = run.Summary.Mean * 1e3

	used, at, err := Prepare(key, cfg)
	if err != nil {
		return 0, 0, err
	}
	run2, err := core.ExecutePattern(used, p, at)
	if err != nil {
		return 0, 0, err
	}
	return outOfBoxMS, run2.Summary.Mean * 1e3, nil
}

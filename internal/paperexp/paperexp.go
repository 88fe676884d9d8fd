// Package paperexp regenerates every table and figure of the uFLIP paper's
// evaluation (Section 5) against the simulated devices: one function per
// artifact, shared by the paper benchmarks (bench_test.go) and the
// uflip-report command. Each function runs the relevant micro-benchmark
// experiments following the methodology (state enforcement first, pauses
// between runs) and returns the data series the paper plots or tabulates.
package paperexp

import (
	"fmt"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/statestore"
	"uflip/internal/stats"
)

// Config controls experiment scale. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Capacity is the simulated device capacity. Experiments are
	// capacity-independent beyond the locality/order target sizes, so a
	// scaled-down device (1 GB) reproduces the full-size shapes quickly.
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
	// Enforce selects the enforced initial state ("random" when empty —
	// the Section 4.1 default — or "sequential"). Both kinds flow through
	// PrepareCached, so sequentially-enforced states are cached too.
	Enforce string
}

// enforceKind returns the enforcement kind with the default applied.
func (c Config) enforceKind() string {
	if c.Enforce == "" {
		return "random"
	}
	return c.Enforce
}

// enforce brings dev to the configured initial state.
func (c Config) enforce(dev device.Device) (time.Duration, error) {
	switch c.enforceKind() {
	case "random":
		return methodology.EnforceRandomState(dev, c.Seed)
	case "sequential":
		return methodology.EnforceSequentialState(dev, c.Seed)
	default:
		return 0, fmt.Errorf("paperexp: unknown enforcement kind %q", c.Enforce)
	}
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
	// Random IOs roam half the device so the write-buffer locality window
	// stays a small fraction of the working set, as on the paper's
	// full-size devices.
	d.RandomTarget = capacity / 2
	return d
}

// Prepare builds the named device at the configured capacity and enforces
// the random initial state (Section 4.1), returning the device and the
// virtual time at which measurements may start. The key may be a plain
// profile key ("mtron") or a composite array spec ("stripe(2,mtron,mtron)");
// for arrays, cfg.Capacity applies per member.
func Prepare(key string, cfg Config) (device.Device, time.Duration, error) {
	return prepareSim(key, cfg)
}

// prepareSim is Prepare returning the cloneable simulated device — the
// snapshot the engine master hands out per shard.
func prepareSim(key string, cfg Config) (device.Cloneable, time.Duration, error) {
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
// enforcement kind. An unresolvable spec leaves the fingerprint empty;
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
		Enforce:     cfg.enforceKind(),
		Fingerprint: fp,
	}
}

// PrepareCached builds the device and brings it to the configured enforced
// state (random by default, sequential via cfg.Enforce), returning the
// device, the virtual time enforcement finished (without cfg.Pause added)
// and whether the state came from cfg.Store. With no store configured it
// always enforces live (hit=false). With a store, a hit restores the
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

// enforceCached brings an already-built device to the configured enforced
// state, loading it from cfg.Store on a hit and enforcing live (and saving)
// on a miss or with no store.
func enforceCached(dev device.Cloneable, key string, cfg Config) (time.Duration, bool, error) {
	if cfg.Store == nil {
		end, err := cfg.enforce(dev)
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
	end, err := cfg.enforce(dev)
	if err != nil {
		return 0, false, err
	}
	if err := cfg.Store.Save(sk, dev, end); err != nil {
		return 0, false, err
	}
	return end, false, nil
}

// Master returns an engine master over the profile: the device is built and
// enforced once (lazily, with cfg.Seed), then copied per shard.
func Master(key string, cfg Config) *engine.Master {
	return engine.NewMaster(func() (device.Cloneable, time.Duration, error) {
		return prepareSim(key, cfg)
	})
}

// PrepareOutOfBox builds the device without any state enforcement — the
// "fresh from the factory" state of the Section 4.1 anomaly. Like Prepare it
// accepts plain profile keys and composite array specs.
func PrepareOutOfBox(key string, cfg Config) (device.Device, error) {
	return profile.BuildDevice(key, cfg.Capacity)
}

// Point is one sample of a parameter sweep.
type Point struct {
	X float64 // parameter value (axis unit depends on the figure)
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

// GranularityCurves runs the Granularity micro-benchmark and returns the
// response time (ms) per IO size (KB) for each baseline — Figures 6 and 7.
func GranularityCurves(dev device.Device, at time.Duration, cfg Config) (map[core.Baseline][]Point, time.Duration, error) {
	d := cfg.defaults(dev.Capacity())
	mb := core.Granularity(d, dev.Capacity())
	out := make(map[core.Baseline][]Point)
	t := at
	for _, e := range mb.Experiments {
		run, err := e.Run(dev, t)
		if err != nil {
			return nil, t, fmt.Errorf("%s: %w", e.ID(), err)
		}
		t += run.Total + cfg.Pause
		out[e.Base] = append(out[e.Base], Point{
			X: float64(e.Value) / 1024,
			Y: run.Summary.Mean * 1e3,
		})
	}
	return out, t, nil
}

// LocalityCurve runs the Locality micro-benchmark for random writes and
// returns RW cost relative to SW as the target grows (Figure 8's series for
// one device). X is the target size in MB.
func LocalityCurve(dev device.Device, at time.Duration, cfg Config) ([]Point, time.Duration, error) {
	d := cfg.defaults(dev.Capacity())
	t := at
	// Reference: sequential writes.
	swRun, err := core.ExecutePattern(dev, core.SW.Pattern(d), t)
	if err != nil {
		return nil, t, err
	}
	t += swRun.Total + cfg.Pause
	sw := swRun.Summary.Mean
	if sw <= 0 {
		return nil, t, fmt.Errorf("paperexp: zero SW reference on %s", dev.Name())
	}
	var out []Point
	mb := core.Locality(d, dev.Capacity())
	for _, e := range mb.Experiments {
		if e.Base != core.RW {
			continue
		}
		run, err := e.Run(dev, t)
		if err != nil {
			return nil, t, fmt.Errorf("%s: %w", e.ID(), err)
		}
		t += run.Total + cfg.Pause
		out = append(out, Point{
			X: float64(e.Value) / (1 << 20),
			Y: run.Summary.Mean / sw,
		})
	}
	return out, t, nil
}

// table3Experiments assembles the focused experiment set Table 3 needs:
// the four baselines at 32 KB plus the Locality, Partitioning, Order and
// Pause sweeps.
func table3Experiments(capacity int64, d core.Defaults) []core.Experiment {
	var exps []core.Experiment
	gran := core.Granularity(d, capacity)
	for _, e := range gran.Experiments {
		if e.Value == d.IOSize {
			exps = append(exps, e)
		}
	}
	loc := core.Locality(d, capacity)
	for _, e := range loc.Experiments {
		if e.Base == core.RW {
			exps = append(exps, e)
		}
	}
	exps = append(exps, core.Partitioning(d, capacity).Experiments...)
	exps = append(exps, core.Order(d, capacity).Experiments...)
	pause := core.PauseMB(d, capacity)
	for _, e := range pause.Experiments {
		if e.Base == core.RW {
			exps = append(exps, e)
		}
	}
	return exps
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
	return Master(key, cfg).Factory()
}

// Table3Row measures one device's key characteristics (its Table 3 row),
// following the full methodology: phase measurement to set IOIgnore/IOCount,
// a benchmark plan with disjoint sequential-write targets, and pauses
// between runs.
func Table3Row(dev device.Device, at time.Duration, cfg Config) (report.DeviceCharacter, *methodology.Results, error) {
	d := cfg.defaults(dev.Capacity())
	phases, err := methodology.MeasurePhases(dev, d, 3072, at)
	if err != nil {
		return report.DeviceCharacter{}, nil, err
	}
	exps := table3Experiments(dev.Capacity(), d)
	plan := methodology.BuildPlan(exps, dev.Capacity(), cfg.Pause, phases)
	res, err := methodology.RunPlan(dev, plan, phases.End+cfg.Pause, cfg.Seed, nil)
	if err != nil {
		return report.DeviceCharacter{}, nil, err
	}
	return report.Characterize(res, d.IOSize), res, nil
}

// SweepSeries runs every experiment of a micro-benchmark and returns mean
// response time (ms) per parameter value, per baseline label — used for the
// Alignment, Mix, Parallelism, Pause and Bursts results of Section 5.2.
func SweepSeries(dev device.Device, at time.Duration, cfg Config, mb core.Microbenchmark) (map[string][]Point, time.Duration, error) {
	out := make(map[string][]Point)
	t := at
	for _, e := range mb.Experiments {
		run, err := e.Run(dev, t)
		if err != nil {
			return nil, t, fmt.Errorf("%s: %w", e.ID(), err)
		}
		t += run.Total + cfg.Pause
		label := e.Base.String()
		if e.MixWith != nil {
			label = e.Base.String() + "/" + e.MixWith.Name
		}
		out[label] = append(out[label], Point{X: float64(e.Value), Y: run.Summary.Mean * 1e3})
	}
	return out, t, nil
}

// StateAnomaly reproduces the Section 4.1 Samsung observation: random-write
// cost out of the box versus after writing the whole device. Returns both
// mean response times in ms.
func StateAnomaly(key string, cfg Config) (outOfBoxMS, afterFillMS float64, err error) {
	fresh, err := PrepareOutOfBox(key, cfg)
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
